package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"analogacc/internal/chip"
	"analogacc/internal/core"
	"analogacc/internal/isa"
	"analogacc/internal/la"
	"analogacc/internal/serve"
)

// The core pass. The traced run replays the inputs its serve window
// generated, grouped into the lane waves the server reported, straight
// through core on fresh chips of the designs the server's pool serves
// them on: Accelerator.BeginSession,
// then Session.SolveForRefinedCtx for a one-lane wave or
// Session.SolveBatchRefined for a wider one. The chip sits behind
// isa.NewLoopback wrapped in timedChip, which times every ISA
// instruction. The same pass runs once more on unwrapped chips, and the
// two must agree bit for bit: the wrapper observes the program without
// changing it.

// coreMaxRHS bounds the right-hand sides one core pass replays.
const coreMaxRHS = 32

// opGroup buckets ISA instructions by the phase of an analog solve.
type opGroup int

const (
	groupCalibrate opGroup = iota // Init: on-chip calibration
	groupConfigure                // connections, gains, DACs, ICs, commit, lanes
	groupExec                     // execStart (the settle) and execStop
	groupReadback                 // ADC and exception reads
	numGroups
)

func groupOf(op isa.Opcode) opGroup {
	switch op {
	case isa.OpInit:
		return groupCalibrate
	case isa.OpExecStart, isa.OpExecStop:
		return groupExec
	case isa.OpReadSerial, isa.OpAnalogAvg, isa.OpReadExp,
		isa.OpReadSerialLane, isa.OpAnalogAvgLane, isa.OpReadExpLane:
		return groupReadback
	default:
		return groupConfigure
	}
}

// timedChip is an isa.Device that forwards to a simulated chip and times
// each Execute by phase. It also forwards SelectEngine, the side-band
// knob core reaches through the loopback, so wrapping changes nothing
// core can see.
type timedChip struct {
	dev *chip.Chip

	groupNs    [numGroups]int64
	groupCalls [numGroups]int64
	calls      int64
	deviceNs   int64
	// RK4 steps taken inside execStart (lane steps summed over lanes),
	// and the lane width of each execStart (1 in scalar mode).
	steps     int64
	execs     int64
	laneWidth int64
}

func (t *timedChip) Execute(op isa.Opcode, payload []byte) ([]byte, isa.Status) {
	exec := op == isa.OpExecStart
	var before int64
	if exec {
		before = t.stepCount()
	}
	start := time.Now()
	out, st := t.dev.Execute(op, payload)
	ns := time.Since(start).Nanoseconds()
	g := groupOf(op)
	t.groupNs[g] += ns
	t.groupCalls[g]++
	t.calls++
	t.deviceNs += ns
	if exec {
		t.steps += t.stepCount() - before
		t.execs++
		t.laneWidth += int64(max(1, t.dev.Sim().Lanes()))
	}
	return out, st
}

func (t *timedChip) SelectEngine(name string, workers int) error {
	return t.dev.SelectEngine(name, workers)
}

// stepCount is the simulator's RK4 step count since its last reset.
func (t *timedChip) stepCount() int64 {
	sim := t.dev.Sim()
	if sim == nil {
		return 0
	}
	n := sim.Steps()
	for l := range sim.Lanes() {
		n += sim.LaneSteps(l)
	}
	return n
}

// coreWave is one replayed wave: right-hand sides that shared a lane
// wave on the server, and the pool class that served them.
type coreWave struct {
	op    *operator
	rhs   []la.Vector
	class int
}

// replayWaves regroups served requests into the waves the server
// reported, keeping at most coreMaxRHS right-hand sides. A solo request
// that rode a w-lane wave joins the next w−1 same-operator requests.
func replayWaves(samples []sample) []coreWave {
	var out []coreWave
	total := 0
	open := make(map[*operator]*coreWave)
	want := make(map[*operator]int)
	emit := func(w coreWave) bool {
		if total+len(w.rhs) > coreMaxRHS {
			return false
		}
		out = append(out, w)
		total += len(w.rhs)
		return true
	}
	for _, s := range samples {
		if s.failed {
			continue
		}
		if s.lanes <= 1 {
			if !emit(coreWave{op: s.op, rhs: s.b}) {
				break
			}
			continue
		}
		w := open[s.op]
		if w == nil {
			w = &coreWave{op: s.op}
			open[s.op] = w
			want[s.op] = s.lanes
		}
		w.rhs = append(w.rhs, s.b[0])
		if len(w.rhs) >= want[s.op] {
			delete(open, s.op)
			if !emit(*w) {
				break
			}
		}
	}
	return out
}

// coreResult is one core pass: answers and solver statistics per
// right-hand side, in replay order, plus the timings of the traced pass.
type coreResult struct {
	answers []la.Vector
	stats   []core.Stats

	rhs        int
	waves      int
	solveNs    int64 // wall time inside the solve calls
	solveDevNs int64 // device time inside the solve calls
	beginNs    int64 // wall time inside BeginSession
	rebuilds   int
	chips      []*timedChip
}

// poolDesigns asks the server's pool which chip design serves each
// wave's operator: it checks a chip out for the operator, notes its class
// and design, and checks it back in. It sets each wave's class and
// returns the design of each class, the first chip's it saw.
func poolDesigns(ctx context.Context, pool *serve.Pool, waves []coreWave) (map[int]chip.Spec, error) {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	designs := make(map[int]chip.Spec)
	for i := range waves {
		pc, err := pool.Checkout(ctx, waves[i].op.a)
		if err != nil {
			return nil, fmt.Errorf("operator %d: pool checkout: %w", waves[i].op.idx, err)
		}
		waves[i].class = pc.Class
		if _, ok := designs[pc.Class]; !ok {
			designs[pc.Class] = pc.Acc.Spec()
		}
		pool.Checkin(pc)
	}
	return designs, nil
}

// runCorePass replays waves on fresh calibrated chips, one per class, of
// the designs poolDesigns found; timed wraps each chip in a timedChip.
func runCorePass(ctx context.Context, waves []coreWave, designs map[int]chip.Spec, timed bool) (*coreResult, error) {
	res := &coreResult{}
	type unit struct {
		acc *core.Accelerator
		dev *chip.Chip
		tc  *timedChip
	}
	units := make(map[int]*unit)
	opt := core.SolveOptions{Tolerance: tol}
	for _, w := range waves {
		u := units[w.class]
		if u == nil {
			spec, ok := designs[w.class]
			if !ok {
				return nil, fmt.Errorf("operator %d: no design for class %d", w.op.idx, w.class)
			}
			dev, err := chip.New(spec)
			if err != nil {
				return nil, fmt.Errorf("building class-%d chip: %w", w.class, err)
			}
			u = &unit{dev: dev}
			var dv isa.Device = dev
			if timed {
				u.tc = &timedChip{dev: dev}
				dv = u.tc
				res.chips = append(res.chips, u.tc)
			}
			if u.acc, err = core.New(isa.NewLoopback(dv), spec); err != nil {
				return nil, err
			}
			if _, err := u.acc.Calibrate(); err != nil {
				return nil, fmt.Errorf("calibrating class-%d chip: %w", w.class, err)
			}
			units[w.class] = u
		}
		t0 := time.Now()
		sess, err := u.acc.BeginSession(w.op.a)
		res.beginNs += time.Since(t0).Nanoseconds()
		if err != nil {
			return nil, fmt.Errorf("operator %d: begin session: %w", w.op.idx, err)
		}
		dev0 := int64(0)
		if u.tc != nil {
			dev0 = u.tc.deviceNs
		}
		t1 := time.Now()
		var (
			us  []la.Vector
			sts []core.Stats
		)
		if len(w.rhs) == 1 {
			var (
				x  la.Vector
				st core.Stats
			)
			x, st, err = sess.SolveForRefinedCtx(ctx, w.rhs[0], opt)
			us, sts = []la.Vector{x}, []core.Stats{st}
		} else {
			us, sts, err = sess.SolveBatchRefined(ctx, w.rhs, opt)
		}
		res.solveNs += time.Since(t1).Nanoseconds()
		if u.tc != nil {
			res.solveDevNs += u.tc.deviceNs - dev0
		}
		if err != nil {
			return nil, fmt.Errorf("operator %d: solve: %w", w.op.idx, err)
		}
		for k, b := range w.rhs {
			if err := checkAnswer(w.op.a, b, us[k], tol); err != nil {
				return nil, fmt.Errorf("operator %d: core answer: %w", w.op.idx, err)
			}
		}
		res.answers = append(res.answers, us...)
		res.stats = append(res.stats, sts...)
		res.rhs += len(w.rhs)
		res.waves++
	}
	for _, u := range units {
		res.rebuilds += u.dev.Rebuilds()
	}
	return res, nil
}

// sameResults reports whether two passes produced bit-identical answers
// and the same solver statistics.
func sameResults(a, b *coreResult) error {
	if len(a.answers) != len(b.answers) {
		return fmt.Errorf("untimed and timed passes solved %d and %d right-hand sides", len(a.answers), len(b.answers))
	}
	for k := range a.answers {
		x, y := a.answers[k], b.answers[k]
		if len(x) != len(y) {
			return fmt.Errorf("answer %d lengths differ", k)
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return fmt.Errorf("timed answer %d differs from the untimed one at %d: %v vs %v", k, i, x[i], y[i])
			}
		}
		sa, sb := a.stats[k], b.stats[k]
		if sa.Runs != sb.Runs || sa.Refinements != sb.Refinements || sa.Rescales != sb.Rescales ||
			math.Float64bits(sa.AnalogTime) != math.Float64bits(sb.AnalogTime) {
			return fmt.Errorf("answer %d solver statistics differ: %+v vs %+v", k, sa, sb)
		}
	}
	return nil
}
