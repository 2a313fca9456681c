package serve

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"analogacc/internal/jobs"
)

// Metrics is the daemon's observability surface: counters and gauges for
// admission, solving, and analog cost, plus a request-latency histogram.
// Everything is exported in a Prometheus-compatible text format by
// WriteTo; cmd/alad additionally publishes the same snapshot via expvar.
type Metrics struct {
	start time.Time

	// Admission.
	rejected atomic.Int64 // 429s
	inFlight atomic.Int64 // requests actively solving

	// Outcomes.
	deadlineExceeded atomic.Int64
	solveErrors      atomic.Int64

	// Analog cost accumulators.
	runs        atomic.Int64
	rescales    atomic.Int64
	overflows   atomic.Int64
	refinements atomic.Int64

	// Decomposed-solve accumulators: fan-out volume and the pinned-session
	// economy (reuse hits vs. full matrix configurations).
	decomposed      atomic.Int64
	decompBlocks    atomic.Int64
	decompSweeps    atomic.Int64
	decompConfigs   atomic.Int64
	decompReuseHits atomic.Int64

	// Batch-solve volume: right-hand sides arriving through /v1/solve/batch.
	batchRHS atomic.Int64

	mu            sync.Mutex
	solves        map[string]int64 // by backend
	analogSeconds float64

	// Request latency (seconds).
	latency *Histogram

	// ewmaUs is an exponentially-weighted moving average of request
	// latency (microseconds, α=1/5): the "typical recent service time"
	// behind the adaptive Retry-After hint. An EWMA over a plain mean
	// because backpressure should track the current regime, not the
	// process-lifetime history.
	ewmaUs atomic.Int64

	// Per-sweep latency for decomposed solves.
	sweep *Histogram

	// Coalescer traffic. waves counts fired waves by close reason;
	// coalescedReqs counts requests that shared a wave with at least one
	// companion. The occupancy histogram (lanes per wave) says how full
	// waves run; the wait histogram is the latency the window added to
	// each member (registration → wave launch).
	wavesWindow   atomic.Int64
	wavesFull     atomic.Int64
	wavesResident atomic.Int64
	coalescedReqs atomic.Int64
	waveLanes     *Histogram
	coalesceWait  *Histogram

	// detachedLanes gauges in-flight solves holding no admission slot
	// (async-job executions): queue depth alone understates load when the
	// job queue drains waves, so federation peer stats add this in.
	detachedLanes atomic.Int64

	// Wire-size histograms, one per route. The maps are built once in
	// NewMetrics and never mutated after, so lookups are lock-free; the
	// histograms make the by-reference byte win observable on /metrics,
	// not just in BENCH_9.
	reqBytes  map[string]*Histogram
	respBytes map[string]*Histogram

	// Registration latency (registry PUTs).
	register *Histogram
}

// Histogram is a cumulative-bucket histogram rendered in the Prometheus
// text format. A seconds histogram observes durations and keeps its sum
// in microseconds (rendered %g seconds); any other observes integers
// (lanes, bytes) and renders an integer sum. Safe for concurrent use.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // one per bound, then +Inf
	sum     atomic.Int64
	n       atomic.Int64
	seconds bool
}

// LatencyBounds are the le-bucket bounds (seconds) every request- and
// sweep-latency histogram shares.
var LatencyBounds = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// NewHistogram returns an empty histogram over the given upper bounds.
func NewHistogram(bounds []float64, seconds bool) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1), seconds: seconds}
}

// Observe records one integer observation.
func (h *Histogram) Observe(v int64) { h.add(float64(v), v) }

// ObserveDuration records one latency.
func (h *Histogram) ObserveDuration(d time.Duration) { h.add(d.Seconds(), d.Microseconds()) }

func (h *Histogram) add(v float64, sum int64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.sum.Add(sum)
	h.n.Add(1)
}

// Render writes the series' _bucket, _sum and _count lines; labels (""
// or e.g. `route="solve"`) precede le. The caller writes the # TYPE line
// once per metric family.
func (h *Histogram) Render(w io.Writer, name, labels string) {
	sel, open := "", "{"
	if labels != "" {
		sel, open = "{"+labels+"}", "{"+labels+","
	}
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%sle=\"%g\"} %d\n", name, open, bound, cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"} %d\n", name, open, cum)
	if h.seconds {
		fmt.Fprintf(w, "%s_sum%s %g\n", name, sel, float64(h.sum.Load())/1e6)
	} else {
		fmt.Fprintf(w, "%s_sum%s %d\n", name, sel, h.sum.Load())
	}
	fmt.Fprintf(w, "%s_count%s %d\n", name, sel, h.n.Load())
}

// byteRoutes are the labeled wire paths. Fixed at build time so the
// histogram maps stay read-only under concurrency.
var byteRoutes = []string{"solve", "solve_batch", "operators", "jobs", "peer_block"}

// NewMetrics returns a zeroed metrics set.
func NewMetrics() *Metrics {
	byteBounds := []float64{256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304}
	m := &Metrics{
		start:        time.Now(),
		solves:       make(map[string]int64),
		latency:      NewHistogram(LatencyBounds, true),
		sweep:        NewHistogram(LatencyBounds, true),
		register:     NewHistogram(LatencyBounds, true),
		waveLanes:    NewHistogram([]float64{1, 2, 4, 8, 16}, false),
		coalesceWait: NewHistogram([]float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025}, true),
		reqBytes:     make(map[string]*Histogram, len(byteRoutes)),
		respBytes:    make(map[string]*Histogram, len(byteRoutes)),
	}
	for _, route := range byteRoutes {
		m.reqBytes[route] = NewHistogram(byteBounds, false)
		m.respBytes[route] = NewHistogram(byteBounds, false)
	}
	return m
}

// ObserveRequestBytes records one request body's wire size (compressed,
// when the upload was gzipped — it measures bytes moved, not bytes
// parsed). Unknown routes are dropped rather than grown: the maps are
// lock-free because their shape is fixed.
func (m *Metrics) ObserveRequestBytes(route string, n int64) {
	if h, ok := m.reqBytes[route]; ok {
		h.Observe(n)
	}
}

// ObserveResponseBytes records one response body's wire size.
func (m *Metrics) ObserveResponseBytes(route string, n int64) {
	if h, ok := m.respBytes[route]; ok {
		h.Observe(n)
	}
}

// RequestBytes reads one route's request-byte total and observation count
// (tests, BENCH_9 assertions).
func (m *Metrics) RequestBytes(route string) (sum, count int64) {
	if h, ok := m.reqBytes[route]; ok {
		return h.sum.Load(), h.n.Load()
	}
	return 0, 0
}

// ObserveRegistration records one operator registration's latency.
func (m *Metrics) ObserveRegistration(d time.Duration) { m.register.ObserveDuration(d) }

// Rejected records one 429.
func (m *Metrics) Rejected() { m.rejected.Add(1) }

// SolveStarted / SolveFinished bracket the in-flight gauge.
func (m *Metrics) SolveStarted() { m.inFlight.Add(1) }

// SolveFinished decrements the in-flight gauge.
func (m *Metrics) SolveFinished() { m.inFlight.Add(-1) }

// InFlight reads the in-flight gauge (the coalescer's load probe).
func (m *Metrics) InFlight() int64 { return m.inFlight.Load() }

// DeadlineExceeded records a solve aborted by its deadline.
func (m *Metrics) DeadlineExceeded() { m.deadlineExceeded.Add(1) }

// SolveError records a failed solve (non-deadline).
func (m *Metrics) SolveError() { m.solveErrors.Add(1) }

// SolveOK records a completed solve and its analog cost.
func (m *Metrics) SolveOK(backend string, analogSeconds float64, runs, rescales, overflows, refinements int) {
	m.runs.Add(int64(runs))
	m.rescales.Add(int64(rescales))
	m.overflows.Add(int64(overflows))
	m.refinements.Add(int64(refinements))
	m.mu.Lock()
	m.solves[backend]++
	m.analogSeconds += analogSeconds
	m.mu.Unlock()
}

// ObserveLatency records one request's wall-clock solve latency.
func (m *Metrics) ObserveLatency(d time.Duration) {
	m.latency.ObserveDuration(d)
	// Lossy-on-race CAS update is fine: the EWMA is a hint, not a ledger.
	us := d.Microseconds()
	for {
		old := m.ewmaUs.Load()
		next := us
		if old > 0 {
			next = old + (us-old)/5
		}
		if m.ewmaUs.CompareAndSwap(old, next) {
			return
		}
	}
}

// AvgServiceTime is the moving-average request latency (zero before any
// request completes). It feeds the adaptive Retry-After hint.
func (m *Metrics) AvgServiceTime() time.Duration {
	return time.Duration(m.ewmaUs.Load()) * time.Microsecond
}

// ObserveSweep records one decomposed outer sweep's wall-clock latency.
func (m *Metrics) ObserveSweep(d time.Duration) { m.sweep.ObserveDuration(d) }

// BatchRHS records the right-hand-side count of one batch request.
func (m *Metrics) BatchRHS(n int) { m.batchRHS.Add(int64(n)) }

// ObserveWave records one fired coalescer wave: its lane occupancy and
// why its window closed ("window" ran out, "full" 16 lanes, "resident"
// idle warm chip).
func (m *Metrics) ObserveWave(lanes int, reason string) {
	switch reason {
	case "full":
		m.wavesFull.Add(1)
	case "resident":
		m.wavesResident.Add(1)
	default:
		m.wavesWindow.Add(1)
	}
	m.waveLanes.Observe(int64(lanes))
}

// ObserveCoalesceWait records the latency the coalescing window added to
// one member (enrollment → wave launch).
func (m *Metrics) ObserveCoalesceWait(d time.Duration) { m.coalesceWait.ObserveDuration(d) }

// CoalescedRequest records one request served from a shared (≥2-lane)
// wave.
func (m *Metrics) CoalescedRequest() { m.coalescedReqs.Add(1) }

// DetachedLaneStarted / DetachedLaneFinished bracket solves that hold no
// admission slot (async-job executions). Peer stats report the gauge so
// saturation gating sees job-driven wave load the queue depth misses.
func (m *Metrics) DetachedLaneStarted() { m.detachedLanes.Add(1) }

// DetachedLaneFinished decrements the detached-lane gauge.
func (m *Metrics) DetachedLaneFinished() { m.detachedLanes.Add(-1) }

// DetachedLanes reads the detached-lane gauge.
func (m *Metrics) DetachedLanes() int64 { return m.detachedLanes.Load() }

// CoalescedRequests reads the shared-wave request counter (tests).
func (m *Metrics) CoalescedRequests() int64 { return m.coalescedReqs.Load() }

// Waves reads the fired-wave counter (tests).
func (m *Metrics) Waves() int64 { return m.waveLanes.n.Load() }

// DecomposedOK records a completed decomposed solve's fan-out volume and
// its pinned-session economy.
func (m *Metrics) DecomposedOK(blocks, sweeps, configs, reuseHits int) {
	m.decomposed.Add(1)
	m.decompBlocks.Add(int64(blocks))
	m.decompSweeps.Add(int64(sweeps))
	m.decompConfigs.Add(int64(configs))
	m.decompReuseHits.Add(int64(reuseHits))
}

// Snapshot is a point-in-time copy of every metric, used both by the
// /metrics text format and by expvar.
type Snapshot struct {
	UptimeSeconds    float64          `json:"uptime_seconds"`
	QueueDepth       int              `json:"queue_depth"`
	InFlight         int64            `json:"inflight"`
	Rejected         int64            `json:"rejected_total"`
	DeadlineExceeded int64            `json:"deadline_exceeded_total"`
	SolveErrors      int64            `json:"solve_errors_total"`
	Solves           map[string]int64 `json:"solves_total"`
	AnalogSeconds    float64          `json:"analog_seconds_total"`
	Runs             int64            `json:"runs_total"`
	Rescales         int64            `json:"rescales_total"`
	Overflows        int64            `json:"overflows_total"`
	Refinements      int64            `json:"refinements_total"`
	Decomposed       int64            `json:"decomposed_total"`
	DecompBlocks     int64            `json:"decomposed_blocks_total"`
	DecompSweeps     int64            `json:"decomposed_sweeps_total"`
	DecompConfigs    int64            `json:"decomposed_configs_total"`
	DecompReuseHits  int64            `json:"decomposed_reuse_hits_total"`
	BatchRHS         int64            `json:"batch_rhs_total"`

	// Coalescer: fired waves by close reason, requests that shared a
	// wave, mean occupancy, and the job-driven (slot-less) in-flight
	// lanes gauge.
	Waves             int64   `json:"waves_total"`
	WavesClosedWindow int64   `json:"waves_closed_window_total"`
	WavesClosedFull   int64   `json:"waves_closed_full_total"`
	WavesClosedWarm   int64   `json:"waves_closed_resident_total"`
	CoalescedRequests int64   `json:"coalesced_requests_total"`
	WaveMeanLanes     float64 `json:"wave_mean_lanes"`
	DetachedLanes     int64   `json:"detached_lanes"`

	PoolBuilds       int64       `json:"pool_builds_total"`
	PoolCalibrations int64       `json:"pool_calibrations_total"`
	PoolClasses      []ClassStat `json:"pool_classes"`

	// Session-cache traffic and occupancy (cached entries also appear
	// per class in PoolClasses).
	SessionCacheHits          int64 `json:"session_cache_hits_total"`
	SessionCacheMisses        int64 `json:"session_cache_misses_total"`
	SessionCacheEvictions     int64 `json:"session_cache_evictions_total"`
	SessionCacheInvalidations int64 `json:"session_cache_invalidations_total"`
	SessionCacheResident      int   `json:"session_cache_resident"`

	// Operator registry: resident occupancy plus lifetime traffic. A warm
	// by-reference fleet shows hits ≫ registrations; a thrashing byte cap
	// shows evictions climbing with misses.
	RegistryOps   int   `json:"registry_operators"`
	RegistryBytes int64 `json:"registry_bytes"`
	// RegistryPinned counts operators held by queued/leased durable jobs:
	// pinned operators are exempt from LRU eviction, so a persistently
	// high gauge explains a registry sitting over its configured caps.
	RegistryPinned        int   `json:"registry_pinned_operators"`
	RegistryHits          int64 `json:"registry_hits_total"`
	RegistryMisses        int64 `json:"registry_misses_total"`
	RegistryEvictions     int64 `json:"registry_evictions_total"`
	RegistryRegistrations int64 `json:"registry_registrations_total"`

	// Jobs snapshots the async queue: state gauges (queued…cancelled)
	// plus lifetime counters for submissions, completions, lease
	// expiries, journal replay, dedup hits, and WAL size.
	Jobs jobs.Stats `json:"jobs"`

	// Go runtime health: the fused engine's worker sharding and the pool's
	// chip builds both show up here first when something leaks or churns.
	Goroutines     int     `json:"goroutines"`
	HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
	HeapSysBytes   uint64  `json:"heap_sys_bytes"`
	GCCycles       uint32  `json:"gc_cycles_total"`
	GCPauseSeconds float64 `json:"gc_pause_seconds_total"`
}

// snapshot collects everything except the histogram (which only the text
// format renders). queueDepth, pool, jq, and reg are sampled by the
// caller.
func (m *Metrics) snapshot(queueDepth int, pool *Pool, jq *jobs.Queue, reg *opRegistry) Snapshot {
	s := Snapshot{
		UptimeSeconds:    time.Since(m.start).Seconds(),
		QueueDepth:       queueDepth,
		InFlight:         m.inFlight.Load(),
		Rejected:         m.rejected.Load(),
		DeadlineExceeded: m.deadlineExceeded.Load(),
		SolveErrors:      m.solveErrors.Load(),
		Runs:             m.runs.Load(),
		Rescales:         m.rescales.Load(),
		Overflows:        m.overflows.Load(),
		Refinements:      m.refinements.Load(),
		Decomposed:       m.decomposed.Load(),
		DecompBlocks:     m.decompBlocks.Load(),
		DecompSweeps:     m.decompSweeps.Load(),
		DecompConfigs:    m.decompConfigs.Load(),
		DecompReuseHits:  m.decompReuseHits.Load(),
		Solves:           make(map[string]int64),
	}
	m.mu.Lock()
	for k, v := range m.solves {
		s.Solves[k] = v
	}
	s.AnalogSeconds = m.analogSeconds
	m.mu.Unlock()
	s.BatchRHS = m.batchRHS.Load()
	s.Waves = m.waveLanes.n.Load()
	s.WavesClosedWindow = m.wavesWindow.Load()
	s.WavesClosedFull = m.wavesFull.Load()
	s.WavesClosedWarm = m.wavesResident.Load()
	s.CoalescedRequests = m.coalescedReqs.Load()
	if s.Waves > 0 {
		s.WaveMeanLanes = float64(m.waveLanes.sum.Load()) / float64(s.Waves)
	}
	s.DetachedLanes = m.detachedLanes.Load()
	if pool != nil {
		s.PoolBuilds = pool.Builds()
		s.PoolCalibrations = pool.Calibrations()
		s.PoolClasses = pool.Stats()
		s.SessionCacheHits = pool.CacheHits()
		s.SessionCacheMisses = pool.CacheMisses()
		s.SessionCacheEvictions = pool.CacheEvictions()
		s.SessionCacheInvalidations = pool.CacheInvalidations()
		for _, c := range s.PoolClasses {
			s.SessionCacheResident += c.Cached
		}
	}
	if jq != nil {
		s.Jobs = jq.Stats()
	}
	if reg != nil {
		s.RegistryOps, s.RegistryBytes = reg.stats()
		s.RegistryPinned = reg.pinnedCount()
		s.RegistryHits = reg.hits.Load()
		s.RegistryMisses = reg.misses.Load()
		s.RegistryEvictions = reg.evictions.Load()
		s.RegistryRegistrations = reg.registrations.Load()
	}
	s.Goroutines = runtime.NumGoroutine()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.HeapAllocBytes = ms.HeapAlloc
	s.HeapSysBytes = ms.HeapSys
	s.GCCycles = ms.NumGC
	s.GCPauseSeconds = float64(ms.PauseTotalNs) / 1e9
	return s
}

// writeTo renders the Prometheus text format.
func (m *Metrics) writeTo(w io.Writer, queueDepth int, pool *Pool, jq *jobs.Queue, reg *opRegistry) {
	s := m.snapshot(queueDepth, pool, jq, reg)
	fmt.Fprintf(w, "# TYPE alad_uptime_seconds gauge\nalad_uptime_seconds %g\n", s.UptimeSeconds)
	fmt.Fprintf(w, "# TYPE alad_queue_depth gauge\nalad_queue_depth %d\n", s.QueueDepth)
	fmt.Fprintf(w, "# TYPE alad_inflight gauge\nalad_inflight %d\n", s.InFlight)
	fmt.Fprintf(w, "# TYPE alad_rejected_total counter\nalad_rejected_total %d\n", s.Rejected)
	fmt.Fprintf(w, "# TYPE alad_deadline_exceeded_total counter\nalad_deadline_exceeded_total %d\n", s.DeadlineExceeded)
	fmt.Fprintf(w, "# TYPE alad_solve_errors_total counter\nalad_solve_errors_total %d\n", s.SolveErrors)
	fmt.Fprint(w, "# TYPE alad_solves_total counter\n")
	backends := make([]string, 0, len(s.Solves))
	for k := range s.Solves {
		backends = append(backends, k)
	}
	sort.Strings(backends)
	for _, k := range backends {
		fmt.Fprintf(w, "alad_solves_total{backend=%q} %d\n", k, s.Solves[k])
	}
	fmt.Fprintf(w, "# TYPE alad_analog_seconds_total counter\nalad_analog_seconds_total %g\n", s.AnalogSeconds)
	fmt.Fprintf(w, "# TYPE alad_runs_total counter\nalad_runs_total %d\n", s.Runs)
	fmt.Fprintf(w, "# TYPE alad_rescales_total counter\nalad_rescales_total %d\n", s.Rescales)
	fmt.Fprintf(w, "# TYPE alad_overflows_total counter\nalad_overflows_total %d\n", s.Overflows)
	fmt.Fprintf(w, "# TYPE alad_refinements_total counter\nalad_refinements_total %d\n", s.Refinements)
	fmt.Fprintf(w, "# TYPE alad_decomposed_total counter\nalad_decomposed_total %d\n", s.Decomposed)
	fmt.Fprintf(w, "# TYPE alad_decomposed_blocks_total counter\nalad_decomposed_blocks_total %d\n", s.DecompBlocks)
	fmt.Fprintf(w, "# TYPE alad_decomposed_sweeps_total counter\nalad_decomposed_sweeps_total %d\n", s.DecompSweeps)
	fmt.Fprintf(w, "# TYPE alad_decomposed_configs_total counter\nalad_decomposed_configs_total %d\n", s.DecompConfigs)
	fmt.Fprintf(w, "# TYPE alad_decomposed_reuse_hits_total counter\nalad_decomposed_reuse_hits_total %d\n", s.DecompReuseHits)
	fmt.Fprintf(w, "# TYPE alad_batch_rhs_total counter\nalad_batch_rhs_total %d\n", s.BatchRHS)
	fmt.Fprintf(w, "# TYPE alad_session_cache_hits_total counter\nalad_session_cache_hits_total %d\n", s.SessionCacheHits)
	fmt.Fprintf(w, "# TYPE alad_session_cache_misses_total counter\nalad_session_cache_misses_total %d\n", s.SessionCacheMisses)
	fmt.Fprintf(w, "# TYPE alad_session_cache_evictions_total counter\nalad_session_cache_evictions_total %d\n", s.SessionCacheEvictions)
	fmt.Fprintf(w, "# TYPE alad_session_cache_invalidations_total counter\nalad_session_cache_invalidations_total %d\n", s.SessionCacheInvalidations)
	fmt.Fprintf(w, "# TYPE alad_goroutines gauge\nalad_goroutines %d\n", s.Goroutines)
	fmt.Fprintf(w, "# TYPE alad_heap_alloc_bytes gauge\nalad_heap_alloc_bytes %d\n", s.HeapAllocBytes)
	fmt.Fprintf(w, "# TYPE alad_heap_sys_bytes gauge\nalad_heap_sys_bytes %d\n", s.HeapSysBytes)
	fmt.Fprintf(w, "# TYPE alad_gc_cycles_total counter\nalad_gc_cycles_total %d\n", s.GCCycles)
	fmt.Fprintf(w, "# TYPE alad_gc_pause_seconds_total counter\nalad_gc_pause_seconds_total %g\n", s.GCPauseSeconds)
	fmt.Fprintf(w, "# TYPE alad_pool_builds_total counter\nalad_pool_builds_total %d\n", s.PoolBuilds)
	fmt.Fprintf(w, "# TYPE alad_pool_calibrations_total counter\nalad_pool_calibrations_total %d\n", s.PoolCalibrations)
	fmt.Fprint(w, "# TYPE alad_pool_chips_built gauge\n# TYPE alad_pool_chips_free gauge\n# TYPE alad_session_cache_resident gauge\n")
	for _, c := range s.PoolClasses {
		fmt.Fprintf(w, "alad_pool_chips_built{class=\"%d\"} %d\n", c.Class, c.Built)
		fmt.Fprintf(w, "alad_pool_chips_free{class=\"%d\"} %d\n", c.Class, c.Free)
		fmt.Fprintf(w, "alad_session_cache_resident{class=\"%d\"} %d\n", c.Class, c.Cached)
	}
	fmt.Fprint(w, "# TYPE alad_jobs_state gauge\n")
	for _, st := range []struct {
		name string
		n    int
	}{
		{"queued", s.Jobs.Queued}, {"leased", s.Jobs.Leased}, {"running", s.Jobs.Running},
		{"done", s.Jobs.Done}, {"failed", s.Jobs.Failed}, {"cancelled", s.Jobs.Cancelled},
	} {
		fmt.Fprintf(w, "alad_jobs_state{state=%q} %d\n", st.name, st.n)
	}
	fmt.Fprintf(w, "# TYPE alad_jobs_submitted_total counter\nalad_jobs_submitted_total %d\n", s.Jobs.Submitted)
	fmt.Fprintf(w, "# TYPE alad_jobs_completed_total counter\nalad_jobs_completed_total %d\n", s.Jobs.Completed)
	fmt.Fprintf(w, "# TYPE alad_jobs_failed_total counter\nalad_jobs_failed_total %d\n", s.Jobs.FailedTotal)
	fmt.Fprintf(w, "# TYPE alad_jobs_cancelled_total counter\nalad_jobs_cancelled_total %d\n", s.Jobs.CancelledTot)
	fmt.Fprintf(w, "# TYPE alad_jobs_lease_expired_total counter\nalad_jobs_lease_expired_total %d\n", s.Jobs.LeaseExpired)
	fmt.Fprintf(w, "# TYPE alad_jobs_replayed_total counter\nalad_jobs_replayed_total %d\n", s.Jobs.Replayed)
	fmt.Fprintf(w, "# TYPE alad_jobs_dedup_total counter\nalad_jobs_dedup_total %d\n", s.Jobs.Deduped)
	fmt.Fprintf(w, "# TYPE alad_jobs_compactions_total counter\nalad_jobs_compactions_total %d\n", s.Jobs.Compactions)
	fmt.Fprintf(w, "# TYPE alad_jobs_torn_dropped_total counter\nalad_jobs_torn_dropped_total %d\n", s.Jobs.TornDropped)
	fmt.Fprintf(w, "# TYPE alad_jobs_wal_records_total counter\nalad_jobs_wal_records_total %d\n", s.Jobs.WALRecords)
	fmt.Fprintf(w, "# TYPE alad_jobs_wal_bytes gauge\nalad_jobs_wal_bytes %d\n", s.Jobs.WALBytes)
	fmt.Fprintf(w, "# TYPE alad_service_time_ewma_seconds gauge\nalad_service_time_ewma_seconds %g\n", m.AvgServiceTime().Seconds())
	fmt.Fprint(w, "# TYPE alad_request_seconds histogram\n")
	m.latency.Render(w, "alad_request_seconds", "")
	fmt.Fprint(w, "# TYPE alad_sweep_seconds histogram\n")
	m.sweep.Render(w, "alad_sweep_seconds", "")
	fmt.Fprintf(w, "# TYPE alad_coalesced_requests_total counter\nalad_coalesced_requests_total %d\n", s.CoalescedRequests)
	fmt.Fprint(w, "# TYPE alad_waves_closed_total counter\n")
	fmt.Fprintf(w, "alad_waves_closed_total{reason=\"window\"} %d\n", s.WavesClosedWindow)
	fmt.Fprintf(w, "alad_waves_closed_total{reason=\"full\"} %d\n", s.WavesClosedFull)
	fmt.Fprintf(w, "alad_waves_closed_total{reason=\"resident\"} %d\n", s.WavesClosedWarm)
	fmt.Fprintf(w, "# TYPE alad_detached_lanes gauge\nalad_detached_lanes %d\n", s.DetachedLanes)
	fmt.Fprint(w, "# TYPE alad_wave_lanes histogram\n")
	m.waveLanes.Render(w, "alad_wave_lanes", "")
	fmt.Fprint(w, "# TYPE alad_coalesce_wait_seconds histogram\n")
	m.coalesceWait.Render(w, "alad_coalesce_wait_seconds", "")
	fmt.Fprintf(w, "# TYPE alad_registry_operators gauge\nalad_registry_operators %d\n", s.RegistryOps)
	fmt.Fprintf(w, "# TYPE alad_registry_bytes gauge\nalad_registry_bytes %d\n", s.RegistryBytes)
	fmt.Fprintf(w, "# TYPE alad_registry_pinned_operators gauge\nalad_registry_pinned_operators %d\n", s.RegistryPinned)
	fmt.Fprintf(w, "# TYPE alad_registry_hits_total counter\nalad_registry_hits_total %d\n", s.RegistryHits)
	fmt.Fprintf(w, "# TYPE alad_registry_misses_total counter\nalad_registry_misses_total %d\n", s.RegistryMisses)
	fmt.Fprintf(w, "# TYPE alad_registry_evictions_total counter\nalad_registry_evictions_total %d\n", s.RegistryEvictions)
	fmt.Fprintf(w, "# TYPE alad_registry_registrations_total counter\nalad_registry_registrations_total %d\n", s.RegistryRegistrations)
	fmt.Fprint(w, "# TYPE alad_registry_register_seconds histogram\n")
	m.register.Render(w, "alad_registry_register_seconds", "")
	writeByteHists(w, "alad_request_bytes", m.reqBytes)
	writeByteHists(w, "alad_response_bytes", m.respBytes)
}

// writeByteHists renders one direction's per-route body-size histograms.
func writeByteHists(w io.Writer, name string, hists map[string]*Histogram) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	for _, route := range byteRoutes {
		hists[route].Render(w, name, fmt.Sprintf("route=%q", route))
	}
}
