package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"analogacc/internal/serve"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// stateRoot holds durable workloads' server state; reportDir, if set,
	// receives the run's report and spans.
	stateRoot string
	reportDir string
}

// report is everything one run measured.
type report struct {
	Workload   string             `json:"workload"`
	Trace      bool               `json:"trace"`
	Provenance provenance         `json:"provenance"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	ErrorFrac  float64            `json:"error_frac"`
	Metrics    map[string]float64 `json:"metrics"`
	// Problems lists why Correct is false.
	Problems []string `json:"problems,omitempty"`
}

// window is one measured stretch of closed-loop traffic.
type window struct {
	samples  []sample
	wall     time.Duration
	cpu      time.Duration
	peakHeap uint64
}

func (w *window) attempted() int { return len(w.samples) }

func (w *window) failed() int {
	n := 0
	for _, s := range w.samples {
		if s.failed {
			n++
		}
	}
	return n
}

// solved counts right-hand sides answered correctly.
func (w *window) solved() int {
	n := 0
	for _, s := range w.samples {
		if !s.failed {
			n += s.rhs
		}
	}
	return n
}

func (w *window) rate() float64 { return float64(w.solved()) / w.wall.Seconds() }

// merge appends another measured slice to w.
func (w *window) merge(o window) {
	w.samples = append(w.samples, o.samples...)
	w.wall += o.wall
	w.cpu += o.cpu
	w.peakHeap = max(w.peakHeap, o.peakHeap)
}

// measure drives the workload's closed-loop clients until dur has passed,
// lets in-flight requests finish, and returns what they saw. Wall time
// runs until the last client stops, so no work is cut off.
func measure(ctx context.Context, b *bench, seed int64, windowIdx int, dur time.Duration) window {
	runtime.GC()
	stopHeap := make(chan struct{})
	heapDone := make(chan uint64)
	go sampleHeap(stopHeap, heapDone)

	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(dur)
	per := make([][]sample, b.w.clients)
	var wg sync.WaitGroup
	for i := range b.w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(seed, windowIdx, i)
			for time.Now().Before(deadline) {
				per[i] = append(per[i], b.w.step(ctx, b, c)...)
			}
		}()
	}
	wg.Wait()
	w := window{wall: time.Since(start), cpu: cpuTime() - cpu0}
	close(stopHeap)
	w.peakHeap = <-heapDone
	for _, p := range per {
		w.samples = append(w.samples, p...)
	}
	return w
}

// heapMetric is the heap memory occupied by live objects, as of the
// last garbage collection: the heap the program needs, free of the
// collector's timing.
const heapMetric = "/gc/heap/live:bytes"

// sampleHeap reports the peak of heapMetric, sampled every 10 ms
// until stop closes.
func sampleHeap(stop <-chan struct{}, done chan<- uint64) {
	s := []metrics.Sample{{Name: heapMetric}}
	var peak uint64
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > peak {
			peak = v
		}
		select {
		case <-stop:
			done <- peak
			return
		case <-tick.C:
		}
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setups is how many set-ups one run makes; setup_s is their median.
const setups = 5

// minSamples is the fewest requests a measured window may carry. A
// window with fewer makes the run incorrect: its percentiles would rest
// on too few samples.
const minSamples = 100

// run performs one benchmark invocation: setups set-ups (the last one is
// kept), then measureRun.
func run(ctx context.Context, cfg config) (*report, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("seconds must be positive, got %v", cfg.seconds)
	}
	setupTimes := make([]float64, 0, setups)
	var b *bench
	for i := range setups {
		runtime.GC()
		start := time.Now()
		nb, err := setUp(ctx, w, cfg.stateRoot)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if i < setups-1 {
			if err := nb.tearDown(); err != nil {
				return nil, fmt.Errorf("tearing down set-up %d: %w", i+1, err)
			}
			continue
		}
		b = nb
	}
	return measureRun(ctx, b, cfg, median(setupTimes))
}

// measureRun makes the untraced measurement or the traced run on a
// set-up bench, tears the bench down, and reports. setupS is the set-up
// time the untraced run reports.
func measureRun(ctx context.Context, b *bench, cfg config, setupS float64) (*report, error) {
	rep := &report{Workload: b.w.name, Trace: cfg.trace, Metrics: make(map[string]float64)}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	var (
		wins    []window
		coreRHS int
		runErr  error
	)
	if cfg.trace {
		wins, coreRHS, runErr = tracedRun(ctx, b, cfg, dur, rep)
	} else {
		win := measure(ctx, b, cfg.seed, 0, dur)
		endToEnd(win, setupS, rep.Metrics)
		wins = []window{win}
	}
	if err := b.tearDown(); err != nil && runErr == nil {
		runErr = fmt.Errorf("tearing down: %w", err)
	}
	if runErr != nil {
		return nil, runErr
	}
	for _, win := range wins {
		rep.Attempted += win.attempted()
		rep.Failed += win.failed()
		if n := win.attempted(); n < minSamples {
			rep.Problems = append(rep.Problems, fmt.Sprintf("a measured window carried %d requests, fewer than %d", n, minSamples))
		}
	}
	rep.Provenance = newProvenance(cfg, b.w, wins)
	rep.Provenance.CoreRHS = coreRHS
	if rep.Attempted > 0 {
		rep.ErrorFrac = float64(rep.Failed) / float64(rep.Attempted)
	}
	if rep.Failed > 0 {
		rep.Problems = append(rep.Problems, fmt.Sprintf("%d of %d requests failed", rep.Failed, rep.Attempted))
	}
	if rep.Attempted == 0 {
		rep.Problems = append(rep.Problems, "no request completed")
	}
	rep.Correct = len(rep.Problems) == 0
	return rep, nil
}

// endToEnd fills the untraced metrics a user of the service sees.
func endToEnd(w window, setupS float64, m map[string]float64) {
	lat := make([]float64, len(w.samples))
	analog := 0.0
	for i, s := range w.samples {
		lat[i] = ms(s.latency)
		if !s.failed {
			analog += s.analogSeconds
		}
	}
	solved := float64(w.solved())
	m["solves_per_s"] = w.rate()
	m["p50_ms"] = percentile(lat, 50)
	m["p90_ms"] = percentile(lat, 90)
	m["correct_frac"] = 1 - float64(w.failed())/float64(max(1, w.attempted()))
	m["analog_ms_per_solve"] = perUnit(analog*1000, solved)
	m["cpu_ms_per_solve"] = perUnit(ms(w.cpu), solved)
	m["peak_heap_mb"] = float64(w.peakHeap) / (1 << 20)
	m["setup_s"] = setupS
}

// tracePairs is how many untraced and traced slices a traced run
// alternates; each slice is a tenth of the run.
const tracePairs = 5

// tracedRun alternates untraced and traced slices on the same server.
// The per-layer metrics come from the traced slices and the server's
// counters across them. trace.overhead_pct is the median, over the
// pairs, of the throughput a traced slice lost against the untraced
// slice just before it; alternating keeps the host's slow drift and the
// server's changing state out of most of that figure. Then it makes the
// core pass. It returns the untraced and the traced window and the
// right-hand sides the core pass replayed.
func tracedRun(ctx context.Context, b *bench, cfg config, dur time.Duration, rep *report) ([]window, int, error) {
	slice := dur / (2 * tracePairs)
	t := newTracer()
	tctx := withTracer(ctx, t)
	var base, traced window
	delta := counters{}
	overheads := make([]float64, 0, tracePairs)
	for i := range tracePairs {
		plain := measure(ctx, b, cfg.seed, 2*i, slice)
		before, err := readCounters(ctx, b)
		if err != nil {
			return nil, 0, err
		}
		b.handler.t.Store(t)
		b.cl.HTTPClient = &http.Client{Transport: tracingTransport{base: b.transport}}
		tr := measure(tctx, b, cfg.seed, 2*i+1, slice)
		b.cl.HTTPClient = &http.Client{Transport: b.transport}
		b.handler.t.Store(nil)
		after, err := readCounters(ctx, b)
		if err != nil {
			return nil, 0, err
		}
		delta.addDelta(before, after)
		overheads = append(overheads, perUnit(100*(plain.rate()-tr.rate()), plain.rate()))
		base.merge(plain)
		traced.merge(tr)
	}

	m := rep.Metrics
	serveLayers(analyzeSpans(t.snapshot()), b.setupRegs, delta, traced, m)
	m["trace.overhead_pct"] = median(overheads)

	// A core pass that fails or answers wrongly makes the run incorrect;
	// its layers then read 0.
	waves := replayWaves(traced.samples)
	designs, err := poolDesigns(ctx, b.srv.Pool(), waves)
	var plain, timed *coreResult
	if err == nil {
		plain, err = runCorePass(ctx, waves, designs, false)
	}
	if err == nil {
		timed, err = runCorePass(ctx, waves, designs, true)
	}
	if err == nil {
		err = sameResults(plain, timed)
	}
	if err != nil {
		rep.Problems = append(rep.Problems, "core pass: "+err.Error())
		timed = &coreResult{}
	}
	coreLayers(timed, m)

	if cfg.reportDir != "" {
		if err := t.writeJSONL(spanFile(cfg.reportDir, b.w.name, cfg.seed)); err != nil {
			return nil, 0, fmt.Errorf("writing spans: %w", err)
		}
	}
	return []window{base, traced}, timed.rhs, nil
}

// counters is the server state the per-layer metrics difference:
// cumulative totals from Server.Snapshot, Metrics().RequestBytes and the
// /metrics text, by name.
type counters map[string]float64

// byteRoutes are the routes whose body sizes the server records.
var byteRoutes = []string{"solve", "solve_batch", "operators", "jobs", "peer_block"}

func readCounters(ctx context.Context, b *bench) (counters, error) {
	s := b.srv.Snapshot()
	c := counters{
		"rejected":          float64(s.Rejected),
		"waves":             float64(s.Waves),
		"wave_lanes":        s.WaveMeanLanes * float64(s.Waves),
		"solo_solves":       float64(sumSolves(s) - s.BatchRHS),
		"coalesced":         float64(s.CoalescedRequests),
		"pool_hits":         float64(s.SessionCacheHits),
		"pool_misses":       float64(s.SessionCacheMisses),
		"pool_evictions":    float64(s.SessionCacheEvictions),
		"pool_builds":       float64(s.PoolBuilds),
		"pool_calibrations": float64(s.PoolCalibrations),
		"registry_hits":     float64(s.RegistryHits),
		"registry_misses":   float64(s.RegistryMisses),
		"registrations":     float64(s.RegistryRegistrations),
		"wal_bytes":         float64(s.Jobs.WALBytes),
		"jobs_submitted":    float64(s.Jobs.Submitted),
		"lease_expired":     float64(s.Jobs.LeaseExpired),
	}
	for _, r := range byteRoutes {
		sum, n := b.srv.Metrics().RequestBytes(r)
		c["req_bytes"] += float64(sum)
		c["req_count"] += float64(n)
	}
	text, err := b.cl.Metrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	c["resp_bytes"] = scrape(text, "alad_response_bytes_sum")
	c["resp_count"] = scrape(text, "alad_response_bytes_count")
	c["wait_s"] = scrape(text, "alad_coalesce_wait_seconds_sum")
	c["wait_count"] = scrape(text, "alad_coalesce_wait_seconds_count")
	return c, nil
}

// addDelta adds after − before to c, counter by counter.
func (c counters) addDelta(before, after counters) {
	for k, v := range after {
		c[k] += v - before[k]
	}
}

// scrape sums every sample of one metric family series in Prometheus
// text, over all label sets.
func scrape(text, series string) float64 {
	total := 0.0
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, series)
		if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		f := strings.Fields(line)
		if v, err := strconv.ParseFloat(f[len(f)-1], 64); err == nil {
			total += v
		}
	}
	return total
}

// serveLayers fills the serve and jobs metrics of the traced window
// from its spans and the counters' change d across it. The registration
// time also averages the last set-up's registrations, so it is measured
// on every workload. The job submit time is a share of job latency,
// which reads 0 where no jobs are submitted.
func serveLayers(sp spanLayers, setupRegs []time.Duration, d counters, traced window, m map[string]float64) {
	var jobLatency time.Duration
	for _, s := range traced.samples {
		if s.job {
			jobLatency += s.latency
		}
	}
	m["serve.handler_ms"] = sp.handlerMs
	m["serve.wire_ms"] = sp.wireMs
	m["serve.req_bytes"] = perUnit(d["req_bytes"], d["req_count"])
	m["serve.resp_bytes"] = perUnit(d["resp_bytes"], d["resp_count"])
	m["serve.rejected"] = d["rejected"]

	m["serve.waves"] = d["waves"]
	m["serve.wave_lanes_mean"] = perUnit(d["wave_lanes"], d["waves"])
	m["serve.coalesced_frac"] = perUnit(d["coalesced"], d["solo_solves"])
	m["serve.coalesce_wait_ms"] = perUnit(1000*d["wait_s"], d["wait_count"])

	m["serve.pool_hit_ratio"] = perUnit(d["pool_hits"], d["pool_hits"]+d["pool_misses"])
	m["serve.pool_evictions"] = d["pool_evictions"]
	m["serve.pool_builds"] = d["pool_builds"]
	m["serve.pool_calibrations"] = d["pool_calibrations"]

	m["serve.registry_hit_ratio"] = perUnit(d["registry_hits"], d["registry_hits"]+d["registry_misses"])
	m["serve.registrations"] = d["registrations"]
	reg := sp.register
	for _, r := range setupRegs {
		reg.add(ms(r))
	}
	m["serve.register_ms"] = reg.mean()

	var lanes, attempts meanAcc
	for _, s := range traced.samples {
		if s.job && !s.failed {
			lanes.add(float64(s.lanes))
			attempts.add(float64(s.attempts))
		}
	}
	m["jobs.submit_frac"] = perUnit(sp.submit.Seconds(), jobLatency.Seconds())
	m["jobs.wal_bytes_per_job"] = perUnit(d["wal_bytes"], d["jobs_submitted"])
	m["jobs.wave_lanes_mean"] = lanes.mean()
	m["jobs.lease_expired"] = d["lease_expired"]
	m["jobs.attempts_mean"] = attempts.mean()
}

func sumSolves(s serve.Snapshot) int64 {
	var n int64
	for _, v := range s.Solves {
		n += v
	}
	return n
}

// coreLayers fills the core, chip, isa and circuit metrics from the
// timed core pass. Times are per right-hand side unless named otherwise.
func coreLayers(r *coreResult, m map[string]float64) {
	rhs := float64(r.rhs)
	var runs, refinements, rescales int
	for _, st := range r.stats {
		runs += st.Runs
		refinements += st.Refinements
		rescales += st.Rescales
	}
	m["core.solve_ms"] = perUnit(float64(r.solveNs)/1e6, rhs)
	m["core.self_ms"] = perUnit(float64(r.solveNs-r.solveDevNs)/1e6, rhs)
	m["core.begin_session_ms"] = perUnit(float64(r.beginNs)/1e6, float64(r.waves))
	m["core.runs_per_solve"] = perUnit(float64(runs), rhs)
	m["core.refinements_per_solve"] = perUnit(float64(refinements), rhs)
	m["core.rescales_per_solve"] = perUnit(float64(rescales), rhs)

	var ns [numGroups]int64
	var calls [numGroups]int64
	var total, steps, execs, laneSum int64
	for _, c := range r.chips {
		for g := range numGroups {
			ns[g] += c.groupNs[g]
			calls[g] += c.groupCalls[g]
		}
		total += c.calls
		steps += c.steps
		execs += c.execs
		laneSum += c.laneWidth
	}
	m["chip.calibrate_ms"] = perUnit(float64(ns[groupCalibrate])/1e6, float64(calls[groupCalibrate]))
	m["chip.configure_ms"] = perUnit(float64(ns[groupConfigure])/1e6, rhs)
	m["chip.exec_ms"] = perUnit(float64(ns[groupExec])/1e6, rhs)
	m["chip.readback_ms"] = perUnit(float64(ns[groupReadback])/1e6, rhs)
	m["chip.rebuilds"] = float64(r.rebuilds)
	m["isa.transactions_per_solve"] = perUnit(float64(total), rhs)
	m["circuit.rk4_steps_per_solve"] = perUnit(float64(steps), rhs)
	m["circuit.ns_per_step"] = perUnit(float64(ns[groupExec]), float64(steps))
	m["circuit.lane_width_mean"] = perUnit(float64(laneSum), float64(execs))
}

// perUnit divides, reading an empty denominator as 0 (nothing happened).
func perUnit(v, n float64) float64 {
	if n == 0 {
		return 0
	}
	return v / n
}

// percentile is the nearest-rank p-th percentile of vs (0 when empty).
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

func median(vs []float64) float64 { return percentile(vs, 50) }

// provenance pins a result to the host and inputs that produced it.
type provenance struct {
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Setups     int     `json:"setups"`
	Clients    int     `json:"clients"`
	// Requests and RHS count each measured window's samples.
	Requests []int `json:"requests"`
	RHS      []int `json:"rhs"`
	CoreRHS  int   `json:"core_rhs,omitempty"`
}

func newProvenance(cfg config, w *workload, wins []window) provenance {
	p := provenance{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Setups:     setups,
		Clients:    w.clients,
	}
	for _, win := range wins {
		p.Requests = append(p.Requests, win.attempted())
		p.RHS = append(p.RHS, win.solved())
	}
	return p
}

// writeReport saves the full report beside the spans.
func writeReport(dir string, rep *report, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if rep.Trace {
		trace = 1
	}
	path := fmt.Sprintf("%s/report-%s-seed%d-trace%d.json", dir, rep.Workload, seed, trace)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
