package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"analogacc/internal/federation"
	"analogacc/internal/la"
	"analogacc/internal/serve"
)

// Workload parameters. Every operator is federation.OperatorRequest(k, n):
// tridiagonal, diagonally dominant, with a fingerprint distinct for each
// k below 997. Operators are fixed; the seed draws the right-hand sides
// and, on operator_churn, which operator each request uses.
const (
	tol        = 1e-8 // requested solve tolerance (alad's default)
	hotDim     = 16   // order of the hot operator (hot_operator, durable_jobs)
	hotOp      = 0    // OperatorRequest index of the hot operator
	burstJobs  = 16   // jobs per durable_jobs burst
	churnDim   = 32   // order of every operator_churn operator
	churnOps   = 64   // registered operator_churn operators, Zipf-ranked
	churnZipfS = 1.1  // Zipf exponent of operator_churn draws
	churnNewIn = 16   // one operator_churn request in churnNewIn uses a never-seen operator
	maxOpIndex = 996  // OperatorRequest fingerprints repeat past this index
)

// workload is one traffic mix. Clients are closed-loop: each sends its
// next request only after the previous one is answered, modelling the
// callers alad has (alasolve, job workers, federation peers), all of
// which wait for their reply.
type workload struct {
	name    string
	why     string
	clients int
	// durable runs the server with a journal-backed job store, so job
	// submissions and operator registrations are fsynced.
	durable bool
	// register lists the operators registered during set-up.
	register func() []*operator
	// warm sends the set-up requests that fill the pool and caches.
	warm func(ctx context.Context, b *bench) error
	// step sends one closed-loop unit of work for a client and returns
	// one sample per request (a durable_jobs burst yields one per job).
	step func(ctx context.Context, b *bench, c *client) []sample
}

var workloads = []*workload{
	{
		name:     "hot_operator",
		why:      "2 clients send solo analog-refined solves by fingerprint to one 16-variable operator: coalescer and partial lane waves on a warm chip",
		clients:  2,
		register: func() []*operator { return []*operator{newOperator(hotOp, hotDim)} },
		warm:     warmSolo,
		step:     stepSolo,
	},
	{
		name:    "operator_churn",
		why:     "2 clients draw 32-variable operators by Zipf over 64, 1 in 16 never seen: pool misses, chip reprogramming and fsynced registrations",
		clients: 2,
		durable: true,
		register: func() []*operator {
			ops := make([]*operator, churnOps)
			for k := range ops {
				ops[k] = newOperator(1+k, churnDim)
			}
			return ops
		},
		warm: warmChurn,
		step: stepChurn,
	},
	{
		name:     "durable_jobs",
		why:      "1 client submits bursts of 16 by-fingerprint solve jobs to a WAL-backed server and waits for all: the only async path",
		clients:  1,
		durable:  true,
		register: func() []*operator { return []*operator{newOperator(hotOp, hotDim)} },
		warm:     warmJobs,
		step:     stepJobs,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// operator is one system matrix with its by-reference upload prepared.
type operator struct {
	idx  int
	a    *la.CSR
	prep *serve.PreparedOperator
}

func newOperator(idx, dim int) *operator {
	req := federation.OperatorRequest(idx, dim, tol)
	a, _, err := req.BuildSystem()
	if err != nil {
		// OperatorRequest always builds a valid system; failing here is a
		// bug in this program, not an input error.
		panic(fmt.Sprintf("operator %d: %v", idx, err))
	}
	return &operator{idx: idx, a: a, prep: serve.PrepareOperator(a)}
}

// sample is one request as the client saw it, plus the inputs the traced
// run replays through the core pass.
type sample struct {
	latency time.Duration
	rhs     int  // right-hand sides the request carried
	failed  bool // error answer or an answer the gate refused
	// analogSeconds is the virtual analog time the answers report.
	analogSeconds float64
	// Replay inputs: the operator, the right-hand sides, and the lane
	// wave width the server reported for them.
	op    *operator
	b     []la.Vector
	lanes int
	// attempts is the job's execution count (durable_jobs only).
	attempts int
	job      bool
}

// client is one closed-loop caller's private state.
type client struct {
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newClient(seed int64, window, idx int) *client {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(window)*1009 + int64(idx) + 1))
	return &client{rng: rng, zipf: rand.NewZipf(rng, churnZipfS, 1, churnOps-1)}
}

// rhs draws a right-hand side with entries uniform in [-1, 1).
func (c *client) rhs(n int) la.Vector {
	b := la.NewVector(n)
	for i := range b {
		b[i] = 2*c.rng.Float64() - 1
	}
	return b
}

// bench is one set-up of the system under test: an in-process alad
// server on a loopback listener and the serve.Client that drives it.
type bench struct {
	w        *workload
	srv      *serve.Server
	hs       *http.Server
	serveErr chan error
	handler  *switchHandler
	// transport is the client's connection pool; traced runs wrap it.
	transport *http.Transport
	cl        *serve.Client
	stateDir  string
	ops       []*operator
	// setupRegs times each operator registration of the set-up.
	setupRegs []time.Duration
	// fresh counts never-seen operators handed out (operator_churn).
	fresh atomic.Int64
}

// serverConfig is alad's default configuration (cmd/alad's flag
// defaults); durable adds the journal-backed job store.
func serverConfig(store string) serve.Config {
	return serve.Config{
		Pool: serve.PoolConfig{
			ChipsPerClass: 2,
			WarmSizes:     []int{4, 16},
			MaxDim:        256,
			ADCBits:       12,
			Bandwidth:     20e3,
			Engine:        "auto",
		},
		QueueBound:       64,
		MaxBatchRHS:      64,
		DefaultTimeout:   30 * time.Second,
		CoalesceWindow:   500 * time.Microsecond,
		JobStore:         store,
		JobWorkers:       2,
		JobLeaseTTL:      10 * time.Second,
		JobMaxQueued:     256,
		RegistryMaxOps:   256,
		RegistryMaxBytes: 256 << 20,
	}
}

// setUp builds the server, registers the workload's operators and sends
// the warm-up requests. Everything it does is what setup_s times.
func setUp(ctx context.Context, w *workload, stateRoot string) (b *bench, err error) {
	b = &bench{w: w}
	defer func() {
		if err != nil {
			b.tearDown()
		}
	}()
	store := ""
	if w.durable {
		if b.stateDir, err = os.MkdirTemp(stateRoot, "state-"); err != nil {
			return b, fmt.Errorf("creating state directory: %w", err)
		}
		store = filepath.Join(b.stateDir, "jobs.wal")
	}
	if b.srv, err = serve.New(serverConfig(store)); err != nil {
		return b, fmt.Errorf("starting server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return b, fmt.Errorf("listening on loopback: %w", err)
	}
	b.handler = &switchHandler{next: b.srv.Handler()}
	b.hs = &http.Server{Handler: b.handler}
	b.serveErr = make(chan error, 1)
	go func() { b.serveErr <- b.hs.Serve(ln) }()

	// The same connection-pool tuning serve.Client's shared transport uses.
	b.transport = http.DefaultTransport.(*http.Transport).Clone()
	b.transport.MaxIdleConns = 256
	b.transport.MaxIdleConnsPerHost = 32
	b.transport.IdleConnTimeout = 90 * time.Second
	b.cl = serve.NewClient(ln.Addr().String())
	b.cl.HTTPClient = &http.Client{Transport: b.transport}

	b.ops = w.register()
	for _, o := range b.ops {
		start := time.Now()
		if err := b.cl.EnsureOperator(ctx, o.prep); err != nil {
			return b, fmt.Errorf("registering operator %d: %w", o.idx, err)
		}
		b.setupRegs = append(b.setupRegs, time.Since(start))
	}
	if err := w.warm(ctx, b); err != nil {
		return b, fmt.Errorf("warm-up: %w", err)
	}
	return b, nil
}

// tearDown stops the server and removes its state. Safe on a partial
// set-up.
func (b *bench) tearDown() error {
	var errs []error
	if b.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, b.hs.Shutdown(ctx))
		cancel()
		if err := <-b.serveErr; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if b.transport != nil {
		b.transport.CloseIdleConnections()
	}
	if b.srv != nil {
		errs = append(errs, b.srv.Close())
	}
	if b.stateDir != "" {
		errs = append(errs, os.RemoveAll(b.stateDir))
	}
	return errors.Join(errs...)
}

// warmSolo sends a few sequential solves, then concurrent ones so the
// coalescer has formed waves before the measurement starts.
func warmSolo(ctx context.Context, b *bench) error {
	c := newClient(0, -1, 0)
	for range 4 {
		if s := solveOne(ctx, b, b.ops[0], c.rhs(hotDim)); s.failed {
			return errors.New("warm-up solve failed")
		}
	}
	return concurrently(b.w.clients, func(i int) error {
		c := newClient(0, -1, i+1)
		for range 8 {
			if s := solveOne(ctx, b, b.ops[0], c.rhs(hotDim)); s.failed {
				return errors.New("warm-up solve failed")
			}
		}
		return nil
	})
}

// warmChurn builds and calibrates the 32-variable chip class and leaves
// the two most popular operators resident.
func warmChurn(ctx context.Context, b *bench) error {
	c := newClient(0, -1, 0)
	for range 2 {
		for _, o := range b.ops[:2] {
			if s := solveOne(ctx, b, o, c.rhs(churnDim)); s.failed {
				return errors.New("warm-up solve failed")
			}
		}
	}
	return nil
}

func warmJobs(ctx context.Context, b *bench) error {
	for _, s := range stepJobs(ctx, b, newClient(0, -1, 0)) {
		if s.failed {
			return errors.New("warm-up job failed")
		}
	}
	return nil
}

// concurrently runs fn(0..n-1) in n goroutines and waits for all.
func concurrently(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// solveOne sends one solo by-fingerprint solve and gates its answer.
func solveOne(ctx context.Context, b *bench, o *operator, rhs la.Vector) sample {
	ctx, sp := startSpan(ctx, "client.solve")
	start := time.Now()
	resp, err := b.cl.SolveOperator(ctx, o.prep, serve.SolveRequest{B: rhs, Tol: tol})
	s := sample{latency: time.Since(start), rhs: 1, op: o, b: []la.Vector{rhs}, lanes: 1}
	sp.end()
	if err == nil {
		err = checkAnswer(o.a, rhs, resp.U, tol)
	}
	if err != nil {
		s.failed = true
		logFailure(err)
		return s
	}
	if resp.WaveLanes > 1 {
		s.lanes = resp.WaveLanes
	}
	if resp.Analog != nil {
		s.analogSeconds = resp.Analog.AnalogSeconds
	}
	return s
}

func stepSolo(ctx context.Context, b *bench, c *client) []sample {
	return []sample{solveOne(ctx, b, b.ops[0], c.rhs(hotDim))}
}

// stepChurn draws an operator by Zipf rank, or one in churnNewIn times
// an operator no request has used; SolveOperator registers that one on
// first use, so its latency includes the fsynced registration.
func stepChurn(ctx context.Context, b *bench, c *client) []sample {
	o := b.ops[c.zipf.Uint64()]
	if c.rng.Intn(churnNewIn) == 0 {
		idx := 1 + churnOps + int(b.fresh.Add(1)-1)%(maxOpIndex-churnOps)
		o = newOperator(idx, churnDim)
	}
	return []sample{solveOne(ctx, b, o, c.rhs(churnDim))}
}

// stepJobs submits a burst of solve jobs, then waits for each in
// submission order. A job's latency runs from its submit call until the
// client has seen it finish.
func stepJobs(ctx context.Context, b *bench, c *client) []sample {
	o := b.ops[0]
	type pending struct {
		id    string
		start time.Time
		s     sample
	}
	burst := make([]pending, burstJobs)
	for k := range burst {
		rhs := c.rhs(hotDim)
		p := &burst[k]
		p.s = sample{rhs: 1, op: o, b: []la.Vector{rhs}, lanes: 1, job: true}
		sctx, sp := startSpan(ctx, "client.submit_job")
		p.start = time.Now()
		st, err := b.cl.SubmitJob(sctx, serve.JobSubmitRequest{Solve: &serve.SolveRequest{Fingerprint: o.prep.FP, B: rhs, Tol: tol}})
		sp.end()
		if err != nil {
			p.s.latency = time.Since(p.start)
			p.s.failed = true
			logFailure(err)
			continue
		}
		p.id = st.ID
	}
	out := make([]sample, 0, burstJobs)
	for k := range burst {
		p := &burst[k]
		if p.id == "" {
			out = append(out, p.s)
			continue
		}
		wctx, sp := startSpan(ctx, "client.wait_job")
		st, err := b.cl.WaitJob(wctx, p.id)
		p.s.latency = time.Since(p.start)
		sp.end()
		var resp *serve.SolveResponse
		if err == nil {
			p.s.attempts = st.Attempts
			resp, err = checkJob(o.a, p.s.b[0], st, tol)
		}
		if err != nil {
			p.s.failed = true
			logFailure(err)
		} else {
			if resp.WaveLanes > 1 {
				p.s.lanes = resp.WaveLanes
			}
			if resp.Analog != nil {
				p.s.analogSeconds = resp.Analog.AnalogSeconds
			}
		}
		out = append(out, p.s)
	}
	return out
}

// maxLoggedFailures bounds the failure lines one run prints.
const maxLoggedFailures = 10

var loggedFailures atomic.Int64

func logFailure(err error) {
	if loggedFailures.Add(1) <= maxLoggedFailures {
		fmt.Fprintf(os.Stderr, "perfbench: failed request: %v\n", err)
	}
}
