package federation

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden /metrics file under testdata")

// TestMetricsTextGolden pins the federation section of /metrics byte for
// byte across a fixed set of routed observations: one per route class,
// plus an unknown route that must be dropped.
func TestMetricsTextGolden(t *testing.T) {
	m := NewMetrics()
	m.Routed(RouteLocal, 2*time.Millisecond)
	m.Routed(RouteLocal, 400*time.Microsecond)
	m.Routed(RouteHit, 30*time.Millisecond)
	m.Routed(RouteFallback, 1200*time.Millisecond)
	m.Routed(RouteRandom, 15*time.Second)
	m.Routed("bogus", time.Millisecond)
	m.ForwardError()
	m.BlockScatter(3)
	peers := []PeerInfo{
		{Addr: "http://b", Healthy: true, Resident: 2, QueueDepth: 1, CacheHits: 4, CacheMiss: 1},
		{Addr: "http://a", Resident: 1},
	}
	var buf bytes.Buffer
	m.writeTo(&buf, "http://self", peers, 5, 3, 2)

	path := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want) {
		t.Fatalf("federation /metrics text drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
