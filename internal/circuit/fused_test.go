package circuit

import (
	"math"
	"strings"
	"testing"
)

// TestFusedMatchesReference runs the full differential harness (probes,
// fractional runs, state pokes, trim reloads) against the fused kernel.
func TestFusedMatchesReference(t *testing.T) {
	testEngineMatchesReference(t, EngineFused)
}

// TestFusedStepAllocs pins the kernel's allocation contract: once warm,
// a fused step allocates nothing.
func TestFusedStepAllocs(t *testing.T) {
	sim, err := NewSimulator(buildPoissonNetlist(t, 12, benchRHS), 0)
	if err != nil {
		t.Fatal(err)
	}
	sim.SetEngine(EngineFused)
	for i := 0; i < 8; i++ {
		sim.Step()
	}
	if allocs := testing.AllocsPerRun(50, sim.Step); allocs != 0 {
		t.Fatalf("%v allocs per step, want 0", allocs)
	}
}

// TestFusedSettlesIdentically runs the settle-and-sample pattern on the
// interpreter and on the fused kernel and requires identical
// SettleResults and states; a lane run for the reference's settle time
// must land on the same state in every lane.
func TestFusedSettlesIdentically(t *testing.T) {
	build := func(eng Engine) *Simulator {
		sim, err := NewSimulator(buildPoissonNetlist(t, 8, settleRHS), 0)
		if err != nil {
			t.Fatal(err)
		}
		sim.SetEngine(eng)
		return sim
	}
	ref := build(EngineReference)
	refRes := ref.RunUntilSettled(1e-4, 1.0, 0) // exercises DefaultCheckEvery
	if !refRes.Settled {
		t.Fatalf("reference did not settle: %+v", refRes)
	}
	sim := build(EngineFused)
	if res := sim.RunUntilSettled(1e-4, 1.0, 0); res != refRes {
		t.Fatalf("fused settle result %+v != reference %+v", res, refRes)
	}
	for i := range ref.state {
		if sim.state[i] != ref.state[i] {
			t.Fatalf("fused state %d diverges", i)
		}
	}
	const B = 3
	simL := build(EngineFused)
	if err := simL.ConfigureLanes(B); err != nil {
		t.Fatal(err)
	}
	simL.Reset()
	if err := simL.RunLanes(refRes.Time); err != nil {
		t.Fatal(err)
	}
	for lane := 0; lane < B; lane++ {
		if simL.LaneSteps(lane) != ref.Steps() {
			t.Fatalf("lane %d: %d steps vs reference %d", lane, simL.LaneSteps(lane), ref.Steps())
		}
		for i := range ref.state {
			if simL.laneState[i*B+lane] != ref.state[i] {
				t.Fatalf("lane %d: state %d diverges", lane, i)
			}
		}
	}
}

// TestLUTNaNInput pins the NaN guard: a stimulus returning NaN reaches a
// LUT without tripping the implementation-defined float→int conversion,
// resolves to table index 0, and does so identically on every engine.
func TestLUTNaNInput(t *testing.T) {
	build := func(eng Engine) (*Simulator, *Block) {
		nl, err := NewNetlist(Config{Bandwidth: 20e3})
		if err != nil {
			t.Fatal(err)
		}
		in, out, d, u := nl.Net(), nl.Net(), nl.Net(), nl.Net()
		nl.AddInput(in, func(float64) float64 { return math.NaN() })
		nl.AddLUT(in, out, func(x float64) float64 { return 0.25 + 0.5*x })
		nl.AddMultiplier(out, d, 0.5)
		integ := nl.AddIntegrator(d, u, 0)
		sim, err := NewSimulator(nl, 0)
		if err != nil {
			t.Fatal(err)
		}
		sim.SetEngine(eng)
		return sim, integ
	}
	refSim, refInteg := build(EngineReference)
	refSim.Run(10 * refSim.Dt())
	refV, _ := refSim.IntegratorValue(refInteg)
	if math.IsNaN(refV) {
		t.Fatalf("NaN leaked through the LUT into the state")
	}
	sim, integ := build(EngineFused)
	sim.Run(10 * sim.Dt())
	if v, _ := sim.IntegratorValue(integ); v != refV {
		t.Fatalf("fused: state %v != reference %v", v, refV)
	}
	simL, integL := build(EngineFused)
	if err := simL.ConfigureLanes(2); err != nil {
		t.Fatal(err)
	}
	simL.Reset()
	if err := simL.RunLanes(10 * simL.LaneDt(0)); err != nil {
		t.Fatal(err)
	}
	for lane := 0; lane < 2; lane++ {
		if v, _ := simL.LaneIntegratorValue(integL, lane); v != refV {
			t.Fatalf("lane %d: state %v != reference %v", lane, v, refV)
		}
	}
}

// TestEngineParse covers the name round-trip and rejection.
func TestEngineParse(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Engine
	}{
		{"", EngineAuto}, {"auto", EngineAuto},
		{"interpreter", EngineReference}, {"reference", EngineReference},
		{"fused", EngineFused},
	} {
		got, err := ParseEngine(tc.name)
		if err != nil || got != tc.want {
			t.Fatalf("ParseEngine(%q) = (%v, %v), want %v", tc.name, got, err, tc.want)
		}
	}
	for _, name := range []string{"vectorized", "compiled"} {
		_, err := ParseEngine(name)
		if err == nil {
			t.Fatalf("ParseEngine accepted unknown engine %q", name)
		}
		if msg := err.Error(); !strings.Contains(msg, "auto, interpreter, or fused") {
			t.Fatalf("ParseEngine(%q) error %q does not list the valid engines", name, msg)
		}
	}
	if EngineFused.String() != "fused" || EngineReference.String() != "interpreter" {
		t.Fatal("Engine.String names drifted from ParseEngine")
	}
}

// TestFirstDriverFlags checks the lowering invariant the clear-free store
// relies on: exactly one first-driver op per driven net, and it is the
// earliest driver in stream order.
func TestFirstDriverFlags(t *testing.T) {
	sim, err := NewSimulator(buildPoissonNetlist(t, 4, benchRHS), 0)
	if err != nil {
		t.Fatal(err)
	}
	p := sim.prog
	seen := map[int32]bool{}
	for i := 0; i < p.nDrive; i++ {
		out := p.out[i]
		if p.first[i] != !seen[out] {
			t.Fatalf("op %d (net %d): first=%v but net already driven=%v", i, out, p.first[i], seen[out])
		}
		seen[out] = true
	}
	for i := p.nDrive; i < len(p.kind); i++ {
		if p.first[i] {
			t.Fatalf("silent op %d flagged as first driver", i)
		}
	}
}
