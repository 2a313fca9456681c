package serve

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden /metrics files under testdata")

// volatileMetrics are the process-health lines whose values depend on
// the host and the moment of the scrape; the golden comparison drops
// their value lines (the # TYPE lines stay pinned).
var volatileMetrics = []string{
	"alad_uptime_seconds ", "alad_goroutines ", "alad_heap_alloc_bytes ",
	"alad_heap_sys_bytes ", "alad_gc_cycles_total ", "alad_gc_pause_seconds_total ",
}

func stableMetricsText(raw string) string {
	var out strings.Builder
	for _, line := range strings.SplitAfter(raw, "\n") {
		volatile := false
		for _, p := range volatileMetrics {
			if strings.HasPrefix(line, p) {
				volatile = true
			}
		}
		if !volatile {
			out.WriteString(line)
		}
	}
	return out.String()
}

// compareGolden checks got against testdata/<name>, or rewrites the file
// under -update.
func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("/metrics text drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestMetricsTextGolden records a fixed set of observations in every
// histogram family (plus a few counters) and pins the rendered /metrics
// text byte for byte: metric names, label order, bucket bounds, and the
// %g seconds sums vs %d integer sums.
func TestMetricsTextGolden(t *testing.T) {
	m := NewMetrics()
	for _, d := range []time.Duration{0, 700 * time.Microsecond, 3 * time.Millisecond, 40 * time.Millisecond, 2 * time.Second, 20 * time.Second} {
		m.ObserveLatency(d)
	}
	m.ObserveSweep(1500 * time.Microsecond)
	m.ObserveSweep(80 * time.Millisecond)
	m.ObserveRegistration(300 * time.Microsecond)
	m.ObserveRegistration(12 * time.Millisecond)
	m.ObserveWave(1, "window")
	m.ObserveWave(3, "full")
	m.ObserveWave(16, "resident")
	m.ObserveWave(20, "window")
	m.ObserveCoalesceWait(50 * time.Microsecond)
	m.ObserveCoalesceWait(300 * time.Microsecond)
	m.ObserveCoalesceWait(30 * time.Millisecond)
	m.ObserveRequestBytes("solve", 100)
	m.ObserveRequestBytes("solve", 5000)
	m.ObserveRequestBytes("peer_block", 9_000_000)
	m.ObserveRequestBytes("unknown_route", 5)
	m.ObserveResponseBytes("jobs", 1024)
	m.ObserveResponseBytes("operators", 300)
	m.SolveOK("analog", 0.25, 3, 1, 0, 2)
	m.SolveOK("cg", 0, 0, 0, 0, 0)
	m.Rejected()
	m.BatchRHS(4)
	m.CoalescedRequest()
	m.DecomposedOK(4, 3, 2, 1)

	var buf bytes.Buffer
	m.writeTo(&buf, 2, nil, nil, nil)
	compareGolden(t, "metrics.golden", stableMetricsText(buf.String()))

	if sum, n := m.RequestBytes("solve"); sum != 5100 || n != 2 {
		t.Fatalf("RequestBytes(solve) = %d, %d; want 5100, 2", sum, n)
	}
}
