package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"analogacc/internal/la"
	"analogacc/internal/serve"
	"analogacc/internal/solvers"
)

// benchmarkJSON is the part of the root BENCHMARK.json these tests check.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestDeclarationsMatchBenchmarkJSON holds the program's workload and
// metric tables to the root BENCHMARK.json.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, declared []metricDef, names, units []string) {
		if len(names) != len(declared) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(names), len(declared))
		}
		for i, d := range declared {
			if names[i] != d.name || units[i] != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, names[i], units[i], d.name, d.unit)
			}
		}
	}
	var names, units []string
	for _, m := range bj.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("end_to_end", endToEndMetrics, names, units)
	names, units = nil, nil
	for _, m := range bj.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("per_layer", perLayerMetrics, names, units)
}

// TestEveryWorkloadEmitsEveryMetric runs each workload briefly, untraced
// and traced, and checks the result line carries exactly the declared
// metrics, each with its unit, from a correct run.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	// Long enough for every measured window to carry minSamples requests
	// at full speed; a traced run's windows each get half of it. Under the
	// race detector the windows come out short, and the test then expects
	// exactly that problem and no other.
	seconds := map[bool]float64{false: 3, true: 8}
	if !testing.Short() {
		seconds = map[bool]float64{false: 6, true: 12}
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace%v", w.name, trace), func(t *testing.T) {
				ctx := context.Background()
				start := time.Now()
				b, err := setUp(ctx, w, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				cfg := config{workload: w.name, seed: 7, seconds: seconds[trace], trace: trace, reportDir: t.TempDir()}
				rep, err := measureRun(ctx, b, cfg, time.Since(start).Seconds())
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := printResult(&out, rep); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				short := 0
				for _, n := range rep.Provenance.Requests {
					if n < minSamples {
						short++
					}
				}
				if res.Failed != 0 || res.Attempted < 1 || len(rep.Problems) != short || res.Correct != (short == 0) {
					t.Fatalf("run not correct (%d short windows): %+v\n%s", short, res, out.String())
				}
				defs := endToEndMetrics
				if trace {
					defs = perLayerMetrics
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.name]
					if !ok {
						t.Errorf("metric %s missing", d.name)
						continue
					}
					if v.Unit != d.unit {
						t.Errorf("metric %s unit %q, want %q", d.name, v.Unit, d.unit)
					}
					if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("metric %s = %v", d.name, v.Value)
					}
				}
				if !trace {
					for _, name := range []string{"solves_per_s", "p50_ms", "setup_s", "analog_ms_per_solve"} {
						if res.Metrics[name].Value <= 0 {
							t.Errorf("metric %s = %v, want > 0", name, res.Metrics[name].Value)
						}
					}
				}
			})
		}
	}
}

// exactSolution solves a·u = b directly.
func exactSolution(t *testing.T, a *la.CSR, b la.Vector) []float64 {
	t.Helper()
	u, err := solvers.SolveCSRDirect(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// TestGateCountsWrongAnswers shows the gate accepts a correct answer and
// refuses deliberately perturbed ones.
func TestGateCountsWrongAnswers(t *testing.T) {
	o := newOperator(hotOp, hotDim)
	c := newClient(3, 0, 0)
	b := c.rhs(hotDim)
	u := exactSolution(t, o.a, b)
	if err := checkAnswer(o.a, b, u, tol); err != nil {
		t.Fatalf("exact answer refused: %v", err)
	}
	perturb := func(f func(u []float64) []float64) []float64 {
		return f(append([]float64(nil), u...))
	}
	wrong := map[string][]float64{
		"perturbed": perturb(func(u []float64) []float64 { u[5] += 1e-4; return u }),
		"nan":       perturb(func(u []float64) []float64 { u[0] = math.NaN(); return u }),
		"inf":       perturb(func(u []float64) []float64 { u[15] = math.Inf(1); return u }),
		"short":     u[:hotDim-1],
	}
	for name, v := range wrong {
		if checkAnswer(o.a, b, v, tol) == nil {
			t.Errorf("%s answer accepted", name)
		}
	}

	result := func(u []float64) json.RawMessage {
		raw, err := json.Marshal(serve.SolveResponse{U: u, N: hotDim})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if _, err := checkJob(o.a, b, &serve.JobStatus{ID: "j", State: "done", Result: result(u)}, tol); err != nil {
		t.Fatalf("correct job refused: %v", err)
	}
	if _, err := checkJob(o.a, b, &serve.JobStatus{ID: "j", State: "done", Result: result(wrong["perturbed"])}, tol); err == nil {
		t.Error("job with a perturbed answer accepted")
	}
	if _, err := checkJob(o.a, b, &serve.JobStatus{ID: "j", State: "failed"}, tol); err == nil {
		t.Error("failed job accepted")
	}
}

// TestFailedRequestsAreCounted perturbs every solve answer on its way to
// the client: every request must come back as a failed sample, none
// dropped.
func TestFailedRequestsAreCounted(t *testing.T) {
	w, err := workloadByName("hot_operator")
	if err != nil {
		t.Fatal(err)
	}
	b, err := setUp(context.Background(), w, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer b.tearDown()
	b.cl.HTTPClient = &http.Client{Transport: perturbingTransport{base: b.transport}}
	win := measure(context.Background(), b, 1, 0, 300*time.Millisecond)
	if win.attempted() == 0 || win.failed() != win.attempted() || win.solved() != 0 {
		t.Fatalf("attempted %d failed %d solved %d; want every request failed", win.attempted(), win.failed(), win.solved())
	}
}

// TestShortWindowIsNotCorrect checks that a run whose window carries
// fewer than minSamples requests does not report itself correct.
func TestShortWindowIsNotCorrect(t *testing.T) {
	w, err := workloadByName("hot_operator")
	if err != nil {
		t.Fatal(err)
	}
	b, err := setUp(context.Background(), w, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := measureRun(context.Background(), b, config{workload: w.name, seed: 1, seconds: 0.1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempted >= minSamples {
		t.Fatalf("a 0.1 s window carried %d requests; the test needs fewer than %d", rep.Attempted, minSamples)
	}
	if rep.Correct || rep.Failed != 0 {
		t.Fatalf("correct %v, failed %d, problems %q; want an incorrect run without failed requests", rep.Correct, rep.Failed, rep.Problems)
	}
}

// perturbingTransport nudges the first value of every solve answer on its
// way back to the client.
type perturbingTransport struct {
	base http.RoundTripper
}

func (p perturbingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := p.base.RoundTrip(req)
	if err != nil || req.URL.Path != "/v1/solve" || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	defer resp.Body.Close()
	var sr serve.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, err
	}
	sr.U[0] += 1e-3
	raw, err := json.Marshal(sr)
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	resp.ContentLength = int64(len(raw))
	resp.Header.Del("Content-Length")
	return resp, nil
}

// TestInputsFollowTheSeed checks that a seed fixes the generated inputs.
func TestInputsFollowTheSeed(t *testing.T) {
	draw := func(seed int64) []float64 {
		c := newClient(seed, 0, 1)
		out := append([]float64(nil), c.rhs(churnDim)...)
		for range 8 {
			out = append(out, float64(c.zipf.Uint64()))
		}
		return out
	}
	a, b, other := draw(11), draw(11), draw(12)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 11 drew different inputs at %d", i)
		}
	}
	same := true
	for i := range a {
		same = same && a[i] == other[i]
	}
	if same {
		t.Fatal("seeds 11 and 12 drew the same inputs")
	}
}

// TestReplayWaves checks the core pass regroups solo requests into the
// waves the server reported.
func TestReplayWaves(t *testing.T) {
	o1, o2 := newOperator(1, 4), newOperator(2, 4)
	v := la.Constant(4, 1)
	solo := func(o *operator, lanes int) sample { return sample{op: o, b: []la.Vector{v}, lanes: lanes} }
	samples := []sample{
		solo(o1, 1),
		solo(o1, 2), solo(o2, 3), solo(o1, 2),
		solo(o2, 3), solo(o2, 3),
		{op: o1, b: []la.Vector{v}, lanes: 2, failed: true},
	}
	var got []int
	for _, w := range replayWaves(samples) {
		got = append(got, len(w.rhs))
	}
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("waves %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("waves %v, want %v", got, want)
		}
	}
}

func TestScrape(t *testing.T) {
	text := `# TYPE alad_response_bytes histogram
alad_response_bytes_sum{route="solve"} 120
alad_response_bytes_sum{route="jobs"} 30
alad_response_bytes_sum_other 9
alad_coalesce_wait_seconds_sum 0.25
alad_coalesce_wait_seconds_count 5
`
	if got := scrape(text, "alad_response_bytes_sum"); got != 150 {
		t.Errorf("response bytes %v, want 150", got)
	}
	if got := scrape(text, "alad_coalesce_wait_seconds_sum"); got != 0.25 {
		t.Errorf("wait sum %v, want 0.25", got)
	}
}

// TestCorePassFaithful runs a small core pass with and without the
// timing wrapper: the answers must be bit-identical, and the comparison
// must catch a single flipped bit.
func TestCorePassFaithful(t *testing.T) {
	w, err := workloadByName("hot_operator")
	if err != nil {
		t.Fatal(err)
	}
	b, err := setUp(context.Background(), w, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer b.tearDown()
	o := b.ops[0]
	c := newClient(5, 0, 0)
	waves := []coreWave{{op: o, rhs: []la.Vector{c.rhs(hotDim)}}, {op: o, rhs: []la.Vector{c.rhs(hotDim), c.rhs(hotDim)}}}
	designs, err := poolDesigns(context.Background(), b.srv.Pool(), waves)
	if err != nil {
		t.Fatal(err)
	}
	if waves[0].class != hotDim {
		t.Fatalf("pool served the %d-variable operator on class %d", hotDim, waves[0].class)
	}
	plain, err := runCorePass(context.Background(), waves, designs, false)
	if err != nil {
		t.Fatal(err)
	}
	timed, err := runCorePass(context.Background(), waves, designs, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameResults(plain, timed); err != nil {
		t.Fatal(err)
	}
	if timed.rhs != 3 || timed.chips[0].calls == 0 || timed.chips[0].steps == 0 {
		t.Fatalf("timed pass recorded rhs %d, calls %d, steps %d", timed.rhs, timed.chips[0].calls, timed.chips[0].steps)
	}
	timed.answers[2][4] = math.Float64frombits(math.Float64bits(timed.answers[2][4]) ^ 1)
	if sameResults(plain, timed) == nil {
		t.Fatal("a flipped answer bit went unnoticed")
	}
}
