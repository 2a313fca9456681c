package federation

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"analogacc/internal/serve"
)

// Metrics is the router tier's observability: where requests were routed
// (local / affinity hit forward / fallback forward / random), forward
// failures, a routed-request latency histogram labelled by route class,
// and — aggregated from the last membership poll plus the local pool —
// the cluster-wide session-cache hit rate and per-node residency gauges.
// Rendered as a Prometheus text section the router appends to the
// node's /metrics.
type Metrics struct {
	local    atomic.Int64 // served here, this node is the affinity owner
	hit      atomic.Int64 // forwarded to the affinity owner
	fallback atomic.Int64 // owner unavailable → next-ranked healthy node
	random   atomic.Int64 // affinity disabled → random healthy node
	errors   atomic.Int64 // forwards that failed (peer marked unhealthy)
	blockOut atomic.Int64 // block batches scattered to peers
	blockIn  atomic.Int64 // block items in those batches

	// One histogram per route class, same buckets: tail latency of a
	// forwarded request vs a local one is the routing tax made visible.
	lat map[string]*serve.Histogram
}

// Route labels, also stamped into SolveResponse.Affinity.
const (
	RouteLocal    = "local"
	RouteHit      = "hit"
	RouteFallback = "fallback"
	RouteRandom   = "random"
)

// NewMetrics returns a zeroed metrics set.
func NewMetrics() *Metrics {
	m := &Metrics{lat: make(map[string]*serve.Histogram)}
	for _, r := range []string{RouteLocal, RouteHit, RouteFallback, RouteRandom} {
		m.lat[r] = serve.NewHistogram(serve.LatencyBounds, true)
	}
	return m
}

// Routed records one routed request's class and latency.
func (m *Metrics) Routed(route string, d time.Duration) {
	switch route {
	case RouteLocal:
		m.local.Add(1)
	case RouteHit:
		m.hit.Add(1)
	case RouteFallback:
		m.fallback.Add(1)
	case RouteRandom:
		m.random.Add(1)
	default:
		return
	}
	m.lat[route].ObserveDuration(d)
}

// ForwardError records a forward that failed over to the next candidate.
func (m *Metrics) ForwardError() { m.errors.Add(1) }

// BlockScatter records one block batch shipped to a peer.
func (m *Metrics) BlockScatter(items int) {
	m.blockOut.Add(1)
	m.blockIn.Add(int64(items))
}

// Counts returns the per-route totals (tests, bench reporting).
func (m *Metrics) Counts() (local, hit, fallback, random, errors int64) {
	return m.local.Load(), m.hit.Load(), m.fallback.Load(), m.random.Load(), m.errors.Load()
}

// ClusterCache is the cluster-wide session-cache aggregate: the local
// pool's counters plus every healthy peer's last-polled counters.
type ClusterCache struct {
	Hits   int64
	Misses int64
	Nodes  int
}

// HitRate is hits / (hits + misses), zero before any traffic.
func (c ClusterCache) HitRate() float64 {
	if t := c.Hits + c.Misses; t > 0 {
		return float64(c.Hits) / float64(t)
	}
	return 0
}

// writeTo renders the federation section of /metrics. peers is the
// membership snapshot; localHits/localMisses/localResident come from the
// node's own pool so the cluster aggregate covers all members.
func (m *Metrics) writeTo(w io.Writer, self string, peers []PeerInfo, localHits, localMisses int64, localResident int) {
	fmt.Fprint(w, "# TYPE alad_fed_routed_total counter\n")
	for _, r := range []struct {
		route string
		n     int64
	}{
		{RouteLocal, m.local.Load()}, {RouteHit, m.hit.Load()},
		{RouteFallback, m.fallback.Load()}, {RouteRandom, m.random.Load()},
	} {
		fmt.Fprintf(w, "alad_fed_routed_total{route=%q} %d\n", r.route, r.n)
	}
	fmt.Fprintf(w, "# TYPE alad_fed_forward_errors_total counter\nalad_fed_forward_errors_total %d\n", m.errors.Load())
	fmt.Fprintf(w, "# TYPE alad_fed_block_batches_total counter\nalad_fed_block_batches_total %d\n", m.blockOut.Load())
	fmt.Fprintf(w, "# TYPE alad_fed_block_items_total counter\nalad_fed_block_items_total %d\n", m.blockIn.Load())

	// Membership and per-node residency, self included.
	fmt.Fprint(w, "# TYPE alad_fed_member_healthy gauge\n# TYPE alad_fed_member_resident gauge\n# TYPE alad_fed_member_queue_depth gauge\n")
	fmt.Fprintf(w, "alad_fed_member_healthy{node=%q} 1\n", self)
	fmt.Fprintf(w, "alad_fed_member_resident{node=%q} %d\n", self, localResident)
	cluster := ClusterCache{Hits: localHits, Misses: localMisses, Nodes: 1}
	ordered := append([]PeerInfo(nil), peers...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Addr < ordered[j].Addr })
	for _, p := range ordered {
		up := 0
		if p.Healthy {
			up = 1
			cluster.Hits += p.CacheHits
			cluster.Misses += p.CacheMiss
			cluster.Nodes++
		}
		fmt.Fprintf(w, "alad_fed_member_healthy{node=%q} %d\n", p.Addr, up)
		fmt.Fprintf(w, "alad_fed_member_resident{node=%q} %d\n", p.Addr, p.Resident)
		fmt.Fprintf(w, "alad_fed_member_queue_depth{node=%q} %d\n", p.Addr, p.QueueDepth)
	}
	fmt.Fprintf(w, "# TYPE alad_fed_cluster_cache_hits_total counter\nalad_fed_cluster_cache_hits_total %d\n", cluster.Hits)
	fmt.Fprintf(w, "# TYPE alad_fed_cluster_cache_misses_total counter\nalad_fed_cluster_cache_misses_total %d\n", cluster.Misses)
	fmt.Fprintf(w, "# TYPE alad_fed_cluster_cache_hit_rate gauge\nalad_fed_cluster_cache_hit_rate %g\n", cluster.HitRate())
	fmt.Fprintf(w, "# TYPE alad_fed_cluster_nodes gauge\nalad_fed_cluster_nodes %d\n", cluster.Nodes)

	fmt.Fprint(w, "# TYPE alad_fed_request_seconds histogram\n")
	for _, route := range []string{RouteLocal, RouteHit, RouteFallback, RouteRandom} {
		m.lat[route].Render(w, "alad_fed_request_seconds", fmt.Sprintf("route=%q", route))
	}
}
