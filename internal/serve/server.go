package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"analogacc/internal/cli"
	"analogacc/internal/core"
	"analogacc/internal/jobs"
	"analogacc/internal/la"
)

// Config sizes the server. The zero value gives sensible defaults.
type Config struct {
	// Pool sizes the chip pool.
	Pool PoolConfig
	// NodeName identifies this node in responses (served_by) and in
	// federation peer stats. Empty is fine for a standalone daemon.
	NodeName string
	// QueueBound caps admitted requests (queued waiting for a chip plus
	// actively solving). Beyond it the server answers 429 with a
	// Retry-After hint instead of queueing unboundedly (default 64).
	QueueBound int
	// DefaultTimeout is the per-request solve deadline when the request
	// carries none (default 30s); MaxTimeout clamps what a request may
	// ask for (default 2m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// RetryAfter is the floor of the backoff hint sent with 429s
	// (default 1s). The hint itself adapts upward with load: see
	// Server.retryAfter.
	RetryAfter time.Duration
	// MaxBodyBytes bounds request bodies (default 32 MiB).
	MaxBodyBytes int64
	// MaxBatchRHS caps how many right-hand sides one /v1/solve/batch
	// request may carry (default 64). A batch holds one chip and one
	// admission slot for its whole (clamped) timeout, so the cap bounds
	// how long a single request can monopolize a chip class.
	MaxBatchRHS int
	// Tol is the default solve tolerance for requests that carry none.
	Tol float64
	// CoalesceWindow bounds how long an analog solo solve may wait for
	// same-operator companions before its wave fires (default 500µs; a
	// group also closes early when 16 lanes fill or the operator already
	// has an idle resident chip). Negative disables coalescing entirely —
	// every request checks out its own chip, the pre-coalescer behavior.
	CoalesceWindow time.Duration

	// JobStore is the async job journal path. Empty runs the job queue
	// in memory: the /v1/jobs API works, but submissions do not survive
	// a restart. Point it at a file to make accepted jobs durable.
	JobStore string
	// JobWorkers sizes the async executor pool (default 2); -1 disables
	// execution, leaving the queue accept-only (tests drive it by hand).
	JobWorkers int
	// JobLeaseTTL is the worker lease on a claimed job (default 10s);
	// an executor that stops heartbeating loses the job back to the
	// queue after this long.
	JobLeaseTTL time.Duration
	// JobMaxQueued caps pending async jobs (default 256); beyond it
	// submissions answer 429, same as the synchronous admission queue.
	JobMaxQueued int
	// JobTenantQuota caps one tenant's live jobs (default 0: unlimited).
	JobTenantQuota int
	// JobRetainDone caps terminal jobs kept for dedup and history
	// (default 512).
	JobRetainDone int
	// JobExecDelay is a fault-injection hold between leasing and
	// executing each job (zero in production; crash tests use it to pin
	// a job mid-flight deterministically).
	JobExecDelay time.Duration

	// RegistryMaxOps caps resident operators in the registry (default
	// 256); RegistryMaxBytes caps their estimated resident bytes
	// (default 256 MiB). LRU operators evict first when either cap is
	// exceeded. When JobStore is set the registry journals registrations
	// beside it (JobStore + ".ops") so by-reference job payloads
	// re-resolve after a crash.
	RegistryMaxOps   int
	RegistryMaxBytes int64
}

func (c Config) withDefaults() Config {
	if c.QueueBound <= 0 {
		c.QueueBound = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.MaxBatchRHS <= 0 {
		c.MaxBatchRHS = 64
	}
	if c.Tol <= 0 {
		c.Tol = 1e-8
	}
	if c.CoalesceWindow == 0 {
		c.CoalesceWindow = 500 * time.Microsecond
	}
	if c.JobWorkers == 0 {
		c.JobWorkers = 2
	}
	if c.JobMaxQueued <= 0 {
		c.JobMaxQueued = 256
	}
	if c.JobRetainDone <= 0 {
		c.JobRetainDone = 512
	}
	if c.RegistryMaxOps <= 0 {
		c.RegistryMaxOps = 256
	}
	if c.RegistryMaxBytes <= 0 {
		c.RegistryMaxBytes = 256 << 20
	}
	return c
}

// Server wires the pool, the admission queue, the job queue, the
// metrics, and the HTTP handlers together. Create with New, mount
// Handler on an http.Server, Close when done.
type Server struct {
	cfg     Config
	pool    *Pool
	metrics *Metrics
	// slots is the bounded admission queue: a request holds one slot from
	// admission to response. Its depth (len) is the queue-depth gauge;
	// TryAcquire failure is the 429 path.
	slots chan struct{}
	mux   *http.ServeMux

	// jobs is the durable async queue behind /v1/jobs; workers executes
	// leased jobs on the same dispatch as the synchronous handlers.
	jobs    *jobs.Queue
	workers *jobs.Workers

	// registry is the operator store behind PUT /v1/operators: matrices
	// upload once, then solves reference them by fingerprint.
	registry *opRegistry

	// draining flips when a shutdown begins: /readyz answers 503 from
	// then on so federation peers stop routing new work here, while
	// /healthz (pure liveness) stays green through the drain.
	draining atomic.Bool

	// decompProvider lends chips to decomposed solves. Defaults to the
	// local pool; a federation router swaps in a provider that also
	// scatter-gathers blocks across peer nodes.
	decompProvider core.SessionProvider

	// coalesce groups concurrent same-operator analog solves into lane
	// waves (nil when Config.CoalesceWindow < 0).
	coalesce *coalescer

	// solve is the backend dispatch, swappable by tests that need a
	// deterministic slow or failing solver; solveBatch is its multi-RHS
	// counterpart.
	solve      func(ctx context.Context, backend string, a *la.CSR, b la.Vector, p cli.SolveParams) (cli.Outcome, error)
	solveBatch func(ctx context.Context, backend string, a *la.CSR, rhs []la.Vector, p cli.SolveParams) ([]cli.Outcome, error)
}

// New builds a server: pre-warms its pool, replays the job journal
// (reclaiming leases orphaned by a crash), and starts the async
// executors.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	pool, err := NewPool(cfg.Pool)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:        cfg,
		pool:       pool,
		metrics:    NewMetrics(),
		slots:      make(chan struct{}, cfg.QueueBound),
		solve:      cli.SolveSystem,
		solveBatch: cli.SolveSystemBatch,
	}
	s.decompProvider = pool.DecompProvider()
	if cfg.CoalesceWindow > 0 {
		s.coalesce = newCoalescer(s, cfg.CoalesceWindow)
	}
	// The job queue opens first so the registry can learn which operator
	// fingerprints replayed (still-queued) by-reference payloads depend
	// on: those are pinned through the registry's own replay, exempting
	// them from any cap squeeze — an accepted durable job must always be
	// able to re-resolve its matrix.
	s.jobs, err = jobs.Open(jobs.Config{
		Path:        cfg.JobStore,
		LeaseTTL:    cfg.JobLeaseTTL,
		MaxQueued:   cfg.JobMaxQueued,
		TenantQuota: cfg.JobTenantQuota,
		RetainDone:  cfg.JobRetainDone,
		OnTerminal:  s.jobTerminal,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: opening job store: %w", err)
	}
	pins := make(map[uint64]int)
	for _, j := range s.jobs.List("", jobs.StateQueued) {
		if fp, ok := payloadFingerprint(j.Payload); ok {
			pins[fp]++
		}
	}
	opsPath := ""
	if cfg.JobStore != "" {
		opsPath = cfg.JobStore + ".ops"
	}
	s.registry, err = openRegistry(cfg.RegistryMaxOps, cfg.RegistryMaxBytes, opsPath, pins)
	if err != nil {
		s.jobs.Close()
		return nil, fmt.Errorf("serve: opening operator registry: %w", err)
	}
	if cfg.JobWorkers > 0 {
		s.workers = jobs.StartWorkers(s.jobs, cfg.JobWorkers, s.executeJob, cfg.JobExecDelay)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("POST /v1/solve/batch", s.handleSolveBatch)
	mux.HandleFunc("PUT /v1/operators", s.handleOperatorPut)
	mux.HandleFunc("GET /v1/operators", s.handleOperatorList)
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleJobCancel)
	mux.HandleFunc("GET /v1/backends", s.handleBackends)
	mux.HandleFunc("GET /v1/peer/stats", s.handlePeerStats)
	mux.HandleFunc("POST /v1/peer/block", s.handlePeerBlock)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux = mux
	return s, nil
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Pool exposes the chip pool (tests, expvar).
func (s *Server) Pool() *Pool { return s.pool }

// Metrics exposes the metrics set (tests, expvar).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Jobs exposes the async job queue (tests, drain orchestration).
func (s *Server) Jobs() *jobs.Queue { return s.jobs }

// QueueDepth reports currently admitted requests.
func (s *Server) QueueDepth() int { return len(s.slots) }

// QueueBound reports the admission queue capacity.
func (s *Server) QueueBound() int { return s.cfg.QueueBound }

// NodeName reports this node's federation identity ("" standalone).
func (s *Server) NodeName() string { return s.cfg.NodeName }

// SetDraining flips the readiness signal: once true, /readyz answers 503
// (liveness /healthz is unaffected) so federation peers health-gate this
// node out of new routing decisions while in-flight work drains.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports whether a shutdown drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// SetDecompProvider overrides the chip provider decomposed solves fan out
// over (the federation router installs its scatter-gather provider here).
func (s *Server) SetDecompProvider(p core.SessionProvider) { s.decompProvider = p }

// Snapshot returns the full metrics snapshot (expvar publishing).
func (s *Server) Snapshot() Snapshot {
	return s.metrics.snapshot(s.QueueDepth(), s.pool, s.jobs, s.registry)
}

// PauseJobs stops the job queue from leasing new work; already-leased
// jobs keep running. First step of a graceful drain.
func (s *Server) PauseJobs() {
	s.jobs.Pause()
}

// DrainJobs finishes the async side of a shutdown: leasing is paused,
// the executors stop after their in-flight jobs complete (or ctx
// expires and they are cancelled), and the count of queued jobs left
// persisted for the next boot is returned.
func (s *Server) DrainJobs(ctx context.Context) (queued int, err error) {
	s.jobs.Pause()
	if s.workers != nil {
		s.workers.Stop(ctx)
	}
	return s.jobs.Drain(ctx)
}

// Close releases the server's background resources: executors stopped
// (briefly graceful, then cancelled), journal fsynced shut. Queued jobs
// stay persisted for the next Open.
func (s *Server) Close() error {
	if s.workers != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		s.workers.Stop(ctx)
		cancel()
		s.workers = nil
	}
	err := s.registry.close()
	if jerr := s.jobs.Close(); err == nil {
		err = jerr
	}
	return err
}

func (s *Server) writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Code: code, Error: fmt.Sprintf(format, args...)})
}

// retryAfter is the adaptive 429 backoff hint: the expected wait for a
// slot is roughly (queue depth + 1) × the moving-average service time,
// floored at the configured hint and capped so a load spike never tells
// clients to go away for minutes.
func (s *Server) retryAfter() time.Duration {
	hint := s.cfg.RetryAfter
	if avg := s.metrics.AvgServiceTime(); avg > 0 {
		if est := time.Duration(s.QueueDepth()+1) * avg; est > hint {
			hint = est
		}
	}
	const ceiling = 30 * time.Second
	if hint > ceiling {
		hint = ceiling
	}
	return hint
}

// writeBusy answers 429 with the adaptive Retry-After hint; both the
// synchronous admission queue and the async job backlog route through
// it so clients see one consistent backpressure contract.
func (s *Server) writeBusy(w http.ResponseWriter, code, format string, args ...any) {
	s.metrics.Rejected()
	ra := s.retryAfter()
	w.Header().Set("Retry-After", strconv.Itoa(int((ra+time.Second-1)/time.Second)))
	s.writeError(w, http.StatusTooManyRequests, code, format, args...)
}

// clampTimeout resolves a request's timeout_ms against the server's
// default and ceiling.
func (s *Server) clampTimeout(timeoutMs int) time.Duration {
	t := s.cfg.DefaultTimeout
	if timeoutMs > 0 {
		t = time.Duration(timeoutMs) * time.Millisecond
	}
	if t > s.cfg.MaxTimeout {
		t = s.cfg.MaxTimeout
	}
	return t
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness half of the split health surface:
// /healthz stays a pure liveness probe, while /readyz answers 503 when
// the node should not receive new work — a shutdown drain has begun, or
// the admission queue is saturated. Federation membership polls this, so
// a draining node falls out of routing decisions before its listener
// closes instead of reporting healthy to the last request.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case s.QueueDepth() >= s.cfg.QueueBound:
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "saturated"})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

func (s *Server) handleBackends(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"backends": cli.Backends()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.writeTo(w, s.QueueDepth(), s.pool, s.jobs, s.registry)
}

// APIError is a solve failure in API terms: the HTTP status the
// synchronous path answers with, and the stable code/message that both
// the synchronous error body and a failed job's record carry. Exported
// so the federation router can re-dispatch decoded requests through
// SolveDecoded and write the identical error contract.
type APIError struct {
	Status  int
	Code    string
	Message string
	// RetryAfter is the backoff hint for 429 answers (zero otherwise).
	RetryAfter time.Duration
}

func apiErrorf(status int, code, format string, args ...any) *APIError {
	return &APIError{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// WriteAPIError renders an APIError exactly as the built-in handlers do,
// Retry-After header included.
func (s *Server) WriteAPIError(w http.ResponseWriter, aerr *APIError) {
	if aerr.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int((aerr.RetryAfter+time.Second-1)/time.Second)))
	}
	s.writeError(w, aerr.Status, aerr.Code, "%s", aerr.Message)
}

// busyError books a 429 and packages it with the adaptive backoff hint.
func (s *Server) busyError(code, format string, args ...any) *APIError {
	s.metrics.Rejected()
	aerr := apiErrorf(http.StatusTooManyRequests, code, format, args...)
	aerr.RetryAfter = s.retryAfter()
	return aerr
}

// admit claims one admission slot (bounded, backpressured) and returns
// its release, or the 429 the caller should answer with.
func (s *Server) admit() (release func(), aerr *APIError) {
	select {
	case s.slots <- struct{}{}:
		return func() { <-s.slots }, nil
	default:
		return nil, s.busyError(CodeBusy, "admission queue full (%d requests)", s.cfg.QueueBound)
	}
}

// SolveDecoded runs one already-decoded solve request with the HTTP
// path's full semantics — per-request deadline clamped to the server
// ceiling, bounded admission — and returns the response or the API
// error. POST /v1/solve is decode + SolveDecoded; the federation router
// calls it directly for locally served requests so routed and direct
// traffic share one admission discipline.
func (s *Server) SolveDecoded(ctx context.Context, req *SolveRequest) (*SolveResponse, *APIError) {
	// Per-request deadline, clamped to the server's ceiling, propagated
	// from here down to the chip's settle loop.
	ctx, cancel := context.WithTimeout(ctx, s.clampTimeout(req.TimeoutMs))
	defer cancel()

	release, aerr := s.admit()
	if aerr != nil {
		return nil, aerr
	}
	defer release()
	return s.runSolve(ctx, req)
}

// handleSolve is the synchronous solve path: decode → admit (bounded,
// backpressured) → run under deadline → respond. The solve itself lives
// in runSolve, shared with the async executor.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	n, err := DecodeRequest(w, r, s.cfg.MaxBodyBytes, &req)
	s.metrics.ObserveRequestBytes("solve", n)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, "decoding request: %v", err)
		return
	}
	resp, aerr := s.SolveDecoded(r.Context(), &req)
	if aerr != nil {
		s.WriteAPIError(w, aerr)
		return
	}
	s.metrics.ObserveResponseBytes("solve", int64(writeJSON(w, http.StatusOK, resp)))
	releaseSolveResponse(resp)
}

// resolveSolve materializes one solve request's system. By-value forms
// build exactly as before; the by-reference form resolves the fingerprint
// through the operator registry, with a missing operator answered by the
// stable unknown_operator code so clients can register-and-retry. byRef
// reports which path ran (the fingerprint is only trustworthy when true).
func (s *Server) resolveSolve(req *SolveRequest) (a *la.CSR, b la.Vector, fp uint64, byRef bool, aerr *APIError) {
	if req.Fingerprint == "" {
		a, b, err := req.BuildSystem()
		if err != nil {
			return nil, nil, 0, false, apiErrorf(http.StatusBadRequest, CodeBadRequest, "%v", err)
		}
		return a, b, 0, false, nil
	}
	if req.N > 0 || len(req.A) > 0 || req.System != "" || req.MatrixMarket != "" {
		return nil, nil, 0, false, apiErrorf(http.StatusBadRequest, CodeBadRequest,
			"request carries both a fingerprint reference and a by-value matrix; send exactly one")
	}
	fp, err := ParseFingerprint(req.Fingerprint)
	if err != nil {
		return nil, nil, 0, false, apiErrorf(http.StatusBadRequest, CodeBadRequest, "%v", err)
	}
	a, ok := s.registry.lookup(fp)
	if !ok {
		return nil, nil, 0, false, apiErrorf(http.StatusNotFound, CodeUnknownOperator,
			"operator %s is not registered on this node; PUT /v1/operators and retry", req.Fingerprint)
	}
	b = la.Constant(a.Dim(), 1)
	if len(req.B) > 0 {
		if len(req.B) != a.Dim() {
			return nil, nil, 0, false, apiErrorf(http.StatusBadRequest, CodeBadRequest,
				"b has %d values, operator %s order is %d", len(req.B), req.Fingerprint, a.Dim())
		}
		b = la.Vector(req.B)
	}
	return a, b, fp, true, nil
}

// resolveBatch is resolveSolve's multi-RHS counterpart.
func (s *Server) resolveBatch(req *BatchSolveRequest) (a *la.CSR, rhs []la.Vector, fp uint64, byRef bool, aerr *APIError) {
	if req.Fingerprint == "" {
		a, rhs, err := req.BuildSystem()
		if err != nil {
			return nil, nil, 0, false, apiErrorf(http.StatusBadRequest, CodeBadRequest, "%v", err)
		}
		return a, rhs, 0, false, nil
	}
	if req.N > 0 || len(req.A) > 0 || req.System != "" || req.MatrixMarket != "" {
		return nil, nil, 0, false, apiErrorf(http.StatusBadRequest, CodeBadRequest,
			"request carries both a fingerprint reference and a by-value matrix; send exactly one")
	}
	fp, err := ParseFingerprint(req.Fingerprint)
	if err != nil {
		return nil, nil, 0, false, apiErrorf(http.StatusBadRequest, CodeBadRequest, "%v", err)
	}
	a, ok := s.registry.lookup(fp)
	if !ok {
		return nil, nil, 0, false, apiErrorf(http.StatusNotFound, CodeUnknownOperator,
			"operator %s is not registered on this node; PUT /v1/operators and retry", req.Fingerprint)
	}
	if len(req.RHS) == 0 {
		return nil, nil, 0, false, apiErrorf(http.StatusBadRequest, CodeBadRequest,
			"batch request needs at least one right-hand side in rhs")
	}
	rhs = make([]la.Vector, len(req.RHS))
	for k, row := range req.RHS {
		if len(row) != a.Dim() {
			return nil, nil, 0, false, apiErrorf(http.StatusBadRequest, CodeBadRequest,
				"rhs %d has %d values, operator %s order is %d", k, len(row), req.Fingerprint, a.Dim())
		}
		rhs[k] = la.Vector(row)
	}
	return a, rhs, fp, true, nil
}

// runSolve validates, builds, and executes one solve request. It is the
// shared engine behind POST /v1/solve and async solve jobs: chip
// checkout, backend dispatch, and metrics behave identically on both
// paths, so a job's recorded result is exactly what the synchronous
// call would have returned.
func (s *Server) runSolve(ctx context.Context, req *SolveRequest) (*SolveResponse, *APIError) {
	if req.Backend == "" {
		req.Backend = cli.BackendAnalogRefined
	}
	// Backend validation comes before the (potentially large) matrix is
	// even assembled, mirroring alasolve's fail-fast rule.
	if !cli.ValidBackend(req.Backend) {
		return nil, apiErrorf(http.StatusBadRequest, CodeBadBackend,
			"unknown backend %q (known: %s)", req.Backend, cli.BackendUsage())
	}
	a, b, fp, byRef, aerr := s.resolveSolve(req)
	if aerr != nil {
		return nil, aerr
	}

	params := cli.SolveParams{Tol: req.Tol, ADCBits: s.cfg.Pool.ADCBits, Bandwidth: s.cfg.Pool.Bandwidth}
	if params.Tol <= 0 {
		params.Tol = s.cfg.Tol
	}
	backendRun := req.Backend
	decomposed := req.Backend == cli.BackendDecomposed
	if !decomposed && cli.IsAnalogBackend(req.Backend) {
		if ferr := s.pool.Fits(a); ferr != nil {
			// No single size class can hold the system (or its density).
			// Instead of the pre-decomposition ErrTooLarge rejection,
			// partition it and fan the blocks out over the pool.
			decomposed = true
			backendRun = cli.BackendDecomposed
		}
	}
	var chipClass int
	switch {
	case decomposed:
		params.Provider = s.decompProvider
		params.Workers = req.Workers
		params.OnSweep = func(_ int, _ float64, elapsed time.Duration) {
			s.metrics.ObserveSweep(elapsed)
		}
	case cli.IsAnalogBackend(req.Backend):
		if s.coalesce != nil {
			// The coalesced arm owns the whole checkout/solve/metrics
			// lifecycle (one chip per wave, not per request). By-reference
			// requests hand their already-parsed fingerprint straight to the
			// wave key; only by-value requests pay the hash here.
			if !byRef {
				fp = la.Fingerprint(a)
			}
			return s.runSolveCoalesced(ctx, backendRun, fp, a, b, params.Tol)
		}
		pc, err := s.pool.Checkout(ctx, a)
		if err != nil {
			return nil, s.checkoutErr(err)
		}
		defer s.pool.Checkin(pc)
		params.Acc = pc.Acc
		chipClass = pc.Class
	}

	s.metrics.SolveStarted()
	start := time.Now()
	out, err := s.solve(ctx, backendRun, a, b, params)
	elapsed := time.Since(start)
	s.metrics.SolveFinished()
	s.metrics.ObserveLatency(elapsed)
	if err != nil {
		return nil, s.solveErr(ctx, err)
	}
	residual := la.RelativeResidual(a, out.U, b)
	if err := checkFinite(out.U, residual); err != nil {
		return nil, s.solveErr(ctx, err)
	}
	s.metrics.SolveOK(backendRun, out.AnalogTime, out.Runs, out.Rescales, out.Overflows, out.Refinements)
	if ds := out.Decompose; ds != nil {
		s.metrics.DecomposedOK(ds.Blocks, ds.Sweeps, ds.Configs, ds.ReuseHits)
	}

	resp := newSolveResponse()
	resp.U = []float64(out.U)
	resp.N = a.Dim()
	resp.Backend = backendRun
	resp.Residual = residual
	resp.ElapsedMs = float64(elapsed.Microseconds()) / 1000
	resp.ServedBy = s.cfg.NodeName
	if ds := out.Decompose; ds != nil {
		resp.Decompose = &DecomposeInfo{
			Blocks:                ds.Blocks,
			Sweeps:                ds.Sweeps,
			Chips:                 ds.Chips,
			InnerRefinements:      ds.InnerRefinements,
			Configs:               ds.Configs,
			ReuseHits:             ds.ReuseHits,
			AnalogCriticalSeconds: ds.AnalogCritical,
		}
	}
	if out.Analog {
		resp.Analog = &AnalogStats{
			AnalogSeconds: out.AnalogTime,
			SettleSeconds: out.SettleTime,
			Runs:          out.Runs,
			Rescales:      out.Rescales,
			Overflows:     out.Overflows,
			Refinements:   out.Refinements,
			ScaleS:        out.ScaleS,
			ChipClass:     chipClass,
		}
	} else if out.Iterations > 0 || out.MACs > 0 {
		resp.Digital = &DigitalStats{Iterations: out.Iterations, MACs: out.MACs}
	}
	return resp, nil
}

// handleSolveBatch is the synchronous multi-RHS path: one admission
// slot, one chip checkout, one matrix programming — then every
// right-hand side solves on the resident configuration with only bias
// rewrites in between. The batch itself lives in runSolveBatch, shared
// with the async executor.
func (s *Server) handleSolveBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchSolveRequest
	n, err := DecodeRequest(w, r, s.cfg.MaxBodyBytes, &req)
	s.metrics.ObserveRequestBytes("solve_batch", n)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, "decoding request: %v", err)
		return
	}
	resp, aerr := s.SolveBatchDecoded(r.Context(), &req)
	if aerr != nil {
		s.WriteAPIError(w, aerr)
		return
	}
	s.metrics.ObserveResponseBytes("solve_batch", int64(writeJSON(w, http.StatusOK, resp)))
}

// SolveBatchDecoded is SolveDecoded's multi-RHS counterpart: deadline
// clamp, bounded admission, then the shared batch engine.
func (s *Server) SolveBatchDecoded(ctx context.Context, req *BatchSolveRequest) (*BatchSolveResponse, *APIError) {
	ctx, cancel := context.WithTimeout(ctx, s.clampTimeout(req.TimeoutMs))
	defer cancel()

	release, aerr := s.admit()
	if aerr != nil {
		return nil, aerr
	}
	defer release()
	return s.runSolveBatch(ctx, req)
}

// runSolveBatch validates, builds, and executes one batch request; the
// shared engine behind POST /v1/solve/batch and async batch jobs.
func (s *Server) runSolveBatch(ctx context.Context, req *BatchSolveRequest) (*BatchSolveResponse, *APIError) {
	if req.Backend == "" {
		req.Backend = cli.BackendAnalogRefined
	}
	if !cli.ValidBackend(req.Backend) {
		return nil, apiErrorf(http.StatusBadRequest, CodeBadBackend,
			"unknown backend %q (known: %s)", req.Backend, cli.BackendUsage())
	}
	if req.Backend == cli.BackendDecomposed {
		// The decomposed backend leases several chips per item; batching
		// would hold the fan-out across the whole batch. Items that big
		// should go through /v1/solve individually.
		return nil, apiErrorf(http.StatusBadRequest, CodeBadBackend,
			"backend %q does not support batch solves", req.Backend)
	}
	a, rhs, _, _, aerr := s.resolveBatch(req)
	if aerr != nil {
		return nil, aerr
	}
	if len(rhs) > s.cfg.MaxBatchRHS {
		return nil, apiErrorf(http.StatusBadRequest, CodeBadRequest,
			"batch of %d right-hand sides exceeds the server limit %d; split into smaller batches",
			len(rhs), s.cfg.MaxBatchRHS)
	}

	params := cli.SolveParams{Tol: req.Tol, ADCBits: s.cfg.Pool.ADCBits, Bandwidth: s.cfg.Pool.Bandwidth, MaxLanes: req.MaxLanes}
	if params.Tol <= 0 {
		params.Tol = s.cfg.Tol
	}
	var chipClass int
	if cli.IsAnalogBackend(req.Backend) {
		if ferr := s.pool.Fits(a); ferr != nil {
			return nil, s.checkoutErr(ferr)
		}
		pc, err := s.pool.Checkout(ctx, a)
		if err != nil {
			return nil, s.checkoutErr(err)
		}
		defer s.pool.Checkin(pc)
		params.Acc = pc.Acc
		chipClass = pc.Class
	}

	s.metrics.SolveStarted()
	s.metrics.BatchRHS(len(rhs))
	start := time.Now()
	outs, err := s.solveBatch(ctx, req.Backend, a, rhs, params)
	elapsed := time.Since(start)
	s.metrics.SolveFinished()
	// Latency is per request, not per item: the histogram measures what a
	// caller waited for, so one batch is one observation even though each
	// item bumps the SolveOK counters below. Divide alad_batch_rhs_total
	// by request counts for a per-item view.
	s.metrics.ObserveLatency(elapsed)
	if err != nil {
		return nil, s.solveErr(ctx, err)
	}

	resp := &BatchSolveResponse{
		N:         a.Dim(),
		Backend:   req.Backend,
		Items:     make([]BatchItem, len(outs)),
		ElapsedMs: float64(elapsed.Microseconds()) / 1000,
		ServedBy:  s.cfg.NodeName,
	}
	for k, out := range outs {
		resp.Items[k].Residual = la.RelativeResidual(a, out.U, rhs[k])
		if err := checkFinite(out.U, resp.Items[k].Residual); err != nil {
			return nil, s.solveErr(ctx, fmt.Errorf("item %d: %w", k, err))
		}
	}
	for k, out := range outs {
		s.metrics.SolveOK(req.Backend, out.AnalogTime, out.Runs, out.Rescales, out.Overflows, out.Refinements)
		// Wave provenance: the widest lane group any item rode, and
		// whether at least two right-hand sides shared one (PR 9 stamped
		// solo responses only; batch answers report occupancy too).
		if out.Lanes > resp.WaveLanes {
			resp.WaveLanes = out.Lanes
		}
		if out.Lanes >= 2 {
			resp.Coalesced = true
		}
		item := BatchItem{
			U:        []float64(out.U),
			Residual: resp.Items[k].Residual,
		}
		if out.Analog {
			item.Analog = &AnalogStats{
				AnalogSeconds: out.AnalogTime,
				SettleSeconds: out.SettleTime,
				Runs:          out.Runs,
				Rescales:      out.Rescales,
				Overflows:     out.Overflows,
				Refinements:   out.Refinements,
				ScaleS:        out.ScaleS,
				ChipClass:     chipClass,
				Lanes:         out.Lanes,
			}
		} else if out.Iterations > 0 || out.MACs > 0 {
			item.Digital = &DigitalStats{Iterations: out.Iterations, MACs: out.MACs}
		}
		resp.Items[k] = item
	}
	return resp, nil
}

func (s *Server) checkoutErr(err error) *APIError {
	switch {
	case errors.Is(err, core.ErrTooLarge):
		return apiErrorf(http.StatusRequestEntityTooLarge, CodeTooLarge, "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.DeadlineExceeded()
		return apiErrorf(http.StatusGatewayTimeout, CodeDeadline, "deadline expired waiting for a chip: %v", err)
	case errors.Is(err, context.Canceled):
		return apiErrorf(http.StatusServiceUnavailable, CodeInternal, "request cancelled while queued: %v", err)
	default:
		s.metrics.SolveError()
		return apiErrorf(http.StatusInternalServerError, CodeInternal, "%v", err)
	}
}

// handleOperatorPut registers one operator (PUT /v1/operators): the
// upload-once half of the by-reference wire path.
func (s *Server) handleOperatorPut(w http.ResponseWriter, r *http.Request) {
	var req OperatorRequest
	n, err := DecodeRequest(w, r, s.cfg.MaxBodyBytes, &req)
	s.metrics.ObserveRequestBytes("operators", n)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, "decoding request: %v", err)
		return
	}
	info, aerr := s.RegisterOperatorDecoded(&req)
	if aerr != nil {
		s.WriteAPIError(w, aerr)
		return
	}
	s.metrics.ObserveResponseBytes("operators", int64(writeJSON(w, http.StatusOK, info)))
}

// RegisterOperatorDecoded registers an already-decoded operator upload
// and reports its fingerprint, dims, and nnz. Exported for the
// federation router, which registers forwarded uploads on the affinity
// owner without re-encoding.
func (s *Server) RegisterOperatorDecoded(req *OperatorRequest) (OperatorInfo, *APIError) {
	a, err := req.Build()
	if err != nil {
		return OperatorInfo{}, apiErrorf(http.StatusBadRequest, CodeBadRequest, "%v", err)
	}
	start := time.Now()
	fp, existed, err := s.registry.register(a)
	if err != nil {
		if errors.Is(err, errRegistryCapacity) {
			return OperatorInfo{}, apiErrorf(http.StatusRequestEntityTooLarge, CodeTooLarge, "%v", err)
		}
		return OperatorInfo{}, apiErrorf(http.StatusInternalServerError, CodeInternal, "journaling operator: %v", err)
	}
	s.metrics.ObserveRegistration(time.Since(start))
	return OperatorInfo{
		Fingerprint: FormatFingerprint(fp),
		N:           a.Dim(),
		NNZ:         a.NNZ(),
		Bytes:       operatorCost(a),
		Existed:     existed,
		ServedBy:    s.cfg.NodeName,
	}, nil
}

// handleOperatorList reports the resident operators, MRU first
// (GET /v1/operators).
func (s *Server) handleOperatorList(w http.ResponseWriter, _ *http.Request) {
	_, bytes := s.registry.stats()
	writeJSON(w, http.StatusOK, OperatorListResponse{
		Operators: s.registry.residents(),
		Bytes:     bytes,
		MaxOps:    s.registry.maxOps,
		MaxBytes:  s.registry.maxBytes,
	})
}

// checkFinite reports an answer that float64 cannot hold as a solve
// failure: a NaN or ±Inf entry in u, or in a scalar derived from it (a
// residual, a gain). JSON cannot encode such values, so one that got
// through would turn a hostile input into an encoder 500 after the solve.
func checkFinite(u la.Vector, derived ...float64) error {
	if u.IsFinite() && la.Vector(derived).IsFinite() {
		return nil
	}
	return errors.New("answer overflowed float64 (NaN or ±Inf); rescale A and b toward unit magnitude")
}

func (s *Server) solveErr(ctx context.Context, err error) *APIError {
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(ctx.Err(), context.DeadlineExceeded):
		s.metrics.DeadlineExceeded()
		return apiErrorf(http.StatusGatewayTimeout, CodeDeadline, "solve aborted by deadline: %v", err)
	case errors.Is(err, context.Canceled):
		return apiErrorf(http.StatusServiceUnavailable, CodeInternal, "solve cancelled: %v", err)
	case errors.Is(err, core.ErrTooLarge):
		return apiErrorf(http.StatusRequestEntityTooLarge, CodeTooLarge, "%v", err)
	default:
		s.metrics.SolveError()
		return apiErrorf(http.StatusUnprocessableEntity, CodeSolveFailed, "%v", err)
	}
}
