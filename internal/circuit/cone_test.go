package circuit

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// recordOnlyConeSeed is a buildRandomNetlist seed whose program carries a
// record-only cone more than one op deep, including LUT and var-mul ops;
// FuzzEngineEquivalence seeds its corpus with it.
const recordOnlyConeSeed = int64(149)

// buildConeNetlist wires one integrator loop plus everything the trial
// stages skip: a multiplier chain from the integrator output into an
// unloaded net, an ADC reading only a record-only net, an unprogrammed
// (all-zero) LUT, a stimulated analog input feeding a var-mul nobody
// reads, an overflowing record-only multiplier, and a silent op.
func buildConeNetlist(t testing.TB) *Netlist {
	t.Helper()
	nl, err := NewNetlist(Config{Bandwidth: 20e3, OffsetSigma: 0.01, GainSigma: 0.01, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	u, d := nl.Net(), nl.Net()
	nl.AddIntegrator(d, u, 0.3)
	fb, chain, lutIn := nl.Net(), nl.Net(), nl.Net()
	nl.AddFanout(u, fb, chain, lutIn)
	nl.AddMultiplier(fb, d, -0.8)
	nl.AddDAC(d, 0.2)

	c1, c2 := nl.Net(), nl.Net()
	nl.AddMultiplier(chain, c1, 1.5)
	nl.AddMultiplier(c1, c2, 4) // |c1| > 0.25 drives it past full scale
	nl.AddADC(c1)
	nl.AddLUTTable(lutIn, nl.Net(), make([]float64, 256))
	in := nl.Net()
	nl.AddInput(in, func(tm float64) float64 { return 0.7 * math.Sin(2*math.Pi*3e3*tm) })
	nl.AddVarMultiplier(in, c1, nl.Net())
	nl.AddMultiplier(c2, noNet, 0.5)
	for i, b := range nl.Blocks() {
		b.SetOffsetTrim(i%5 - 2)
	}
	return nl
}

// TestConeRecordOnlyOpsMatchReference pins the trial-stage pruning: the
// cone netlist splits into 4 trial-live, 7 record-only and 1 silent op,
// and the interpreter, the scalar fused kernel and the lane kernel at
// widths 1, 2, 5 and 16 agree bit for bit on states, every net value, ADC
// codes, peaks and overflow latches — the record-only and silent ops are
// skipped by the trial stages but not by what the chip reports.
func TestConeRecordOnlyOpsMatchReference(t *testing.T) {
	newSim := func(eng Engine) *Simulator {
		sim, err := NewSimulator(buildConeNetlist(t), 0)
		if err != nil {
			t.Fatal(err)
		}
		sim.SetEngine(eng)
		return sim
	}
	adcsOf := func(s *Simulator) []*Block {
		var adcs []*Block
		for _, b := range s.nl.Blocks() {
			if b.Kind == KindADC {
				adcs = append(adcs, b)
			}
		}
		return adcs
	}
	ref, fused := newSim(EngineReference), newSim(EngineFused)
	if trial, rec, silent := fused.OpRegions(); trial != 4 || rec != 7 || silent != 1 {
		t.Fatalf("op regions (trial, record-only, silent) = (%d, %d, %d), want (4, 7, 1)", trial, rec, silent)
	}
	d := 300.5 * ref.Dt()
	ref.Run(d)
	fused.Run(d)
	overflowed := false
	for _, b := range ref.nl.Blocks() {
		overflowed = overflowed || (b.Kind == KindMultiplier && b.Gain == 4 && b.Overflowed)
	}
	if !overflowed {
		t.Fatal("the record-only multiplier never overflowed: the test lost its saturating op")
	}
	expectSame(t, ref, fused, adcsOf(ref), adcsOf(fused), "scalar fused")

	for _, B := range []int{1, 2, 5, 16} {
		simL := newSim(EngineFused)
		if err := simL.ConfigureLanes(B); err != nil {
			t.Fatal(err)
		}
		simL.Reset()
		if err := simL.RunLanes(d); err != nil {
			t.Fatal(err)
		}
		for lane := 0; lane < B; lane++ {
			// A fresh reference per lane: ADC reads latch overflow.
			r := newSim(EngineReference)
			r.Run(d)
			expectLaneMatchesScalar(t, simL, lane, r, fmt.Sprintf("B=%d", B))
		}
	}
}

// TestFuzzSeedHasRecordOnlyCone keeps recordOnlyConeSeed meaningful: its
// netlist must have a record-only op that reads a record-only net.
func TestFuzzSeedHasRecordOnlyCone(t *testing.T) {
	cfg := Config{Bandwidth: 20e3, OffsetSigma: 0.01, GainSigma: 0.01, Seed: recordOnlyConeSeed}
	nl, _, _ := buildRandomNetlist(t, rand.New(rand.NewSource(recordOnlyConeSeed)), cfg)
	sim, err := NewSimulator(nl, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := sim.prog
	recNet := map[int32]bool{}
	for i := p.nLive; i < p.nDrive; i++ {
		recNet[p.out[i]] = true
	}
	for i := p.nLive; i < p.nDrive; i++ {
		switch p.kind[i] {
		case opLinear, opVarMul, opLUT:
			if recNet[p.in0[i]] || (p.kind[i] == opVarMul && recNet[p.in1[i]]) {
				return
			}
		}
	}
	t.Fatalf("seed %d: no record-only op reads a record-only net", recordOnlyConeSeed)
}
