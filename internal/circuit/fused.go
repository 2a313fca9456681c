package circuit

import "math"

// Fused step kernel. The fused engine executes the lowered program
// (program.go) without the per-op costs of walking it directly: an opcode
// dispatch on every op, a full netVals clear before every evaluation, and
// five bounds-checked parallel-array loads per op.
//
//   - At lower time the driving ops are re-materialised into compact
//     24-byte struct-of-ops streams in execution order, segmented into
//     homogeneous runs. Each run executes as a tight loop specialised for
//     its opcode: no switch, no blk pointer loads (except opInput, which
//     must read Stimulus live), and no per-op bounds checks on op data —
//     the loops range over exact subslices. Cold fields (the op's stream
//     index for fold re-sync, the second input net of a varmul, the
//     owning block's ID) live in side arrays so the hot loops never pull
//     them through the cache.
//   - Execution order is phase-major: nets are assigned topological
//     levels (a net's level is the max level of its driver ops; a
//     combinational op sits one past its deepest input net) and every
//     driver of a net executes in its net's phase. Each phase runs a
//     store pass (the stream-first driver of each net, emitted as
//     0 + v — exactly the reference's cleared-slot-plus-first-addend sum,
//     so even signed zeros match bit-for-bit) followed by an add pass
//     (the remaining drivers, in stream order). First-driver stores
//     replace the netVals clear; the store/add split replaces the per-op
//     first-flag branch. Per-net accumulation order is still exactly
//     stream order, so results are bit-identical to the reference
//     interpreter. Undriven nets are never written by any engine after
//     Reset, so skipping them is safe.
//
// Simulate only what the integrators see. The three RK4 trial stages of a
// step feed nothing but the integrator derivatives, so they run only the
// program's trial-live region (the serial stream): on a chip most units
// are unconnected, and their ops never reach an integrator. The
// once-per-step record pass — and Reset's — walks the
// live stream, then the record-only stream, then the silent ops, with the
// peak/overflow latches folded into every loop (runSegsRecord, and
// runSegsLanesRecord for the lane kernel). Record-only ops read live nets
// that the same pass has just completed, so every net value, ADC code,
// peak and latch matches an evaluation of the whole program.

// fusedOp is one materialised driving op: 24 bytes, only the fields the
// hot loops touch. Meaning varies by segment opcode: for opConst, gain
// holds the saturated constant and off its raw (pre-saturation) value,
// which only the record pass reads, and in0 is unused; opState/opInput
// need no folded constants. The op's index in the program's stream arrays
// and a varmul's second input net live in the stream's side arrays.
type fusedOp struct {
	in0, out  int32
	gain, off float64
}

// fusedSeg is one homogeneous run [start,end) of a materialised stream:
// every op in it has the same opcode and the same store/add role.
type fusedSeg struct {
	op         opcode
	store      bool
	start, end int32
}

// fusedStream is one materialised execution stream. aux[i] is op i's
// index in the program's stream arrays (read during fold re-sync, and by
// LUT/input loops to reach tables and stimulus blocks); in1[i] is the
// second input net (read by varmul loops only); ids[i] is the owning
// block's ID (read by the record passes to address the latches).
//
// The lane fields are the stream's per-lane folded constants, aligned
// with its op positions ([pos*B+lane]) and re-synced by syncLanes:
// laneG is op pos's lane-l folded gain (the saturated constant for
// opConst); laneUni marks ops whose B gains are equal — all of them, in
// a batch that diverges only the right-hand sides — so the hot loops
// read one gain instead of streaming B copies; laneCraw carries the
// per-lane opConst raw values, which only the record pass reads.
type fusedStream struct {
	ops      []fusedOp
	aux, in1 []int32
	ids      []int32
	segs     []fusedSeg

	laneG    []float64
	laneUni  []bool
	laneCraw []float64
}

// emit appends op i, merging it into the last segment when that segment
// has the same opcode and store/add role.
func (st *fusedStream) emit(p *program, i int32, store bool) {
	kind := p.kind[i]
	if n := len(st.segs); n > 0 && st.segs[n-1].op == kind && st.segs[n-1].store == store {
		st.segs[n-1].end++
	} else {
		st.segs = append(st.segs, fusedSeg{
			op: kind, store: store,
			start: int32(len(st.ops)), end: int32(len(st.ops)) + 1,
		})
	}
	st.ops = append(st.ops, fusedOp{in0: p.in0[i], out: p.out[i]})
	st.aux = append(st.aux, i)
	st.in1 = append(st.in1, p.in1[i])
	st.ids = append(st.ids, int32(p.blk[i].ID))
}

// emitPhaseMajor materialises program ops [lo,hi) phase-major: a driver
// executes in its net's phase (netLevel), so the stream-first driver of
// every net runs before the rest even when their op levels differ; each
// phase is a store pass then an add pass, stream order within each pass.
// Every input a phase-L op reads completed in a phase < L — or, for the
// record-only region, in the live stream before it — so the reordering
// only ever commutes writes to different nets; per-net sums still
// accumulate in exactly the reference's order.
func (st *fusedStream) emitPhaseMajor(p *program, lo, hi int, netLevel []int32, phases int) {
	byPhase := make([][]int32, phases)
	for i := lo; i < hi; i++ {
		lv := netLevel[p.out[i]]
		byPhase[lv] = append(byPhase[lv], int32(i)) // ascending i: stream order
	}
	st.ops = make([]fusedOp, 0, hi-lo)
	for _, phase := range byPhase {
		for _, i := range phase {
			if p.first[i] {
				st.emit(p, i, true)
			}
		}
		for _, i := range phase {
			if !p.first[i] {
				st.emit(p, i, false)
			}
		}
	}
}

// syncFold copies the program's folded constants (refreshed by refold on
// trim/mismatch changes) into the stream.
func (st *fusedStream) syncFold(p *program) {
	for si := range st.segs {
		sg := &st.segs[si]
		ops := st.ops[sg.start:sg.end]
		auxs := st.aux[sg.start:sg.end]
		if sg.op == opConst {
			for i := range ops {
				ops[i].gain = p.cval[auxs[i]]
				ops[i].off = p.craw[auxs[i]]
			}
		} else {
			for i := range ops {
				ops[i].gain = p.gain[auxs[i]]
				ops[i].off = p.off[auxs[i]]
			}
		}
	}
}

// fusedProg is the segmented view of a program. Topology is fixed for
// the life of a Simulator; the folded constants copied into the streams
// are refreshed lazily whenever refold bumps the program's generation
// (trim changes), so ReloadBlockParams keeps working unchanged.
type fusedProg struct {
	p *program

	// serial is the trial-live region in phase-major store/add order: the
	// trial stages' kernel and the first leg of every record pass. rec is
	// the record-only region, laid out the same way: the record pass's
	// second leg.
	serial    fusedStream
	rec       fusedStream
	syncedGen uint64

	// Lane fold bookkeeping: the streams' lane fields were last synced
	// from this laneProg generation at this width.
	syncedLaneGen uint64
	laneB         int
}

// buildFused computes the net levels and the materialised streams for p's
// driving ops. nNets is the netlist's net count.
func (p *program) buildFused(nNets int) *fusedProg {
	f := &fusedProg{p: p}

	// Topological levels. The driving region is ordered sources-first
	// then topologically (live ops first, then record-only ops, which
	// read only live nets or nets driven earlier in their region), so a
	// single pass sees every driver of a net before any reader of it:
	// netLevel is final by the time it is consumed.
	netLevel := make([]int32, nNets)
	maxLevel := int32(0)
	for i := 0; i < p.nDrive; i++ {
		var lv int32
		switch p.kind[i] {
		case opLinear, opLUT:
			lv = netLevel[p.in0[i]] + 1
		case opVarMul:
			lv = netLevel[p.in0[i]] + 1
			if l2 := netLevel[p.in1[i]] + 1; l2 > lv {
				lv = l2
			}
		}
		if out := p.out[i]; netLevel[out] < lv {
			netLevel[out] = lv
		}
		if lv > maxLevel {
			maxLevel = lv
		}
	}

	f.serial.emitPhaseMajor(p, 0, p.nLive, netLevel, int(maxLevel)+1)
	f.rec.emitPhaseMajor(p, p.nLive, p.nDrive, netLevel, int(maxLevel)+1)
	f.syncFold()
	return f
}

// syncFold refreshes every stream's folded constants from the program.
func (f *fusedProg) syncFold() {
	f.serial.syncFold(f.p)
	f.rec.syncFold(f.p)
	f.syncedGen = f.p.foldGen
}

// eval is a trial-stage evaluation: it computes the trial-live nets only.
func (f *fusedProg) eval(s *Simulator, t float64, state []float64) {
	if f.syncedGen != f.p.foldGen {
		f.syncFold()
	}
	f.runSegs(s, t, state, &f.serial)
}

// runSegs executes a materialised stream's segments: one branch-free
// tight loop per homogeneous run, first-driver stores in place of a
// netVals clear.
func (f *fusedProg) runSegs(s *Simulator, t float64, state []float64, all *fusedStream) {
	p := f.p
	fs := s.nl.cfg.FullScale
	sat := s.nl.cfg.SatLevel
	nv := s.netVals
	for _, sg := range all.segs {
		ops := all.ops[sg.start:sg.end]
		switch {
		case sg.op == opConst && sg.store:
			for i := range ops {
				o := &ops[i]
				// gain holds cval, pre-saturated by refold.
				nv[o.out] = 0 + o.gain
			}
		case sg.op == opConst:
			for i := range ops {
				o := &ops[i]
				nv[o.out] += o.gain
			}
		case sg.op == opState && sg.store:
			for i := range ops {
				o := &ops[i]
				v := state[o.in0]
				if math.Abs(v) > fs { // one predictable branch; NaN passes through
					if v > fs {
						v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
					} else {
						v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
					}
				}
				nv[o.out] = 0 + v
			}
		case sg.op == opState:
			for i := range ops {
				o := &ops[i]
				v := state[o.in0]
				if math.Abs(v) > fs { // one predictable branch; NaN passes through
					if v > fs {
						v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
					} else {
						v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
					}
				}
				nv[o.out] += v
			}
		case sg.op == opInput:
			auxs := all.aux[sg.start:sg.end]
			for i := range ops {
				o := &ops[i]
				var v float64
				if fn := p.blk[auxs[i]].Stimulus; fn != nil {
					v = fn(t)
				}
				if math.Abs(v) > fs { // one predictable branch; NaN passes through
					if v > fs {
						v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
					} else {
						v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
					}
				}
				if sg.store {
					nv[o.out] = 0 + v
				} else {
					nv[o.out] += v
				}
			}
		case sg.op == opLinear && sg.store:
			for i := range ops {
				o := &ops[i]
				v := o.gain*nv[o.in0] + o.off
				if math.Abs(v) > fs { // one predictable branch; NaN passes through
					if v > fs {
						v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
					} else {
						v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
					}
				}
				nv[o.out] = 0 + v
			}
		case sg.op == opLinear:
			for i := range ops {
				o := &ops[i]
				v := o.gain*nv[o.in0] + o.off
				if math.Abs(v) > fs { // one predictable branch; NaN passes through
					if v > fs {
						v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
					} else {
						v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
					}
				}
				nv[o.out] += v
			}
		case sg.op == opVarMul:
			in1s := all.in1[sg.start:sg.end]
			for i := range ops {
				o := &ops[i]
				v := o.gain*(nv[o.in0]*nv[in1s[i]]/fs) + o.off
				if math.Abs(v) > fs { // one predictable branch; NaN passes through
					if v > fs {
						v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
					} else {
						v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
					}
				}
				if sg.store {
					nv[o.out] = 0 + v
				} else {
					nv[o.out] += v
				}
			}
		case sg.op == opLUT:
			auxs := all.aux[sg.start:sg.end]
			for i := range ops {
				o := &ops[i]
				tab := p.blk[auxs[i]].Table
				idx := lutIndex(nv[o.in0], fs, len(tab))
				v := o.gain*tab[idx] + o.off
				if math.Abs(v) > fs { // one predictable branch; NaN passes through
					if v > fs {
						v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
					} else {
						v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
					}
				}
				if sg.store {
					nv[o.out] = 0 + v
				} else {
					nv[o.out] += v
				}
			}
		}
	}
}

// evalRecord is the scalar record-mode evaluation: the live stream, then
// the record-only stream, both with the latches folded into every loop
// (runSegsRecord), then an interpreted tail over the silent ops. Each
// stream's first-driver stores cover every net it drives, record-only ops
// read only nets completed before them, and latching is order-independent
// (max and OR), so the pass is value- and latch-identical to the
// interpreter's record evaluation.
func (f *fusedProg) evalRecord(s *Simulator, t float64, state []float64) {
	if f.syncedGen != f.p.foldGen {
		f.syncFold()
	}
	f.runSegsRecord(s, t, state, &f.serial)
	f.runSegsRecord(s, t, state, &f.rec)

	// Silent tail: compute each op's raw value from the finished nets and
	// latch it; nothing is driven.
	p := f.p
	fs := s.nl.cfg.FullScale
	ovThresh := fs * (1 + 1e-12)
	nv := s.netVals
	for i := p.nDrive; i < len(p.kind); i++ {
		var raw float64
		switch p.kind[i] {
		case opConst:
			raw = p.craw[i]
		case opState:
			raw = state[p.in0[i]]
		case opInput:
			if fn := p.blk[i].Stimulus; fn != nil {
				raw = fn(t)
			}
		case opLinear:
			raw = p.gain[i]*nv[p.in0[i]] + p.off[i]
		case opVarMul:
			raw = p.gain[i]*(nv[p.in0[i]]*nv[p.in1[i]]/fs) + p.off[i]
		case opLUT:
			tab := p.blk[i].Table
			idx := lutIndex(nv[p.in0[i]], fs, len(tab))
			raw = p.gain[i]*tab[idx] + p.off[i]
		}
		latch(p.blk[i], math.Abs(raw), ovThresh)
	}
}

// latch folds one raw output magnitude into a block's peak tracker and
// overflow latch. NaN compares false on both, as in the interpreter.
func latch(b *Block, a, ovThresh float64) {
	if a > b.PeakAbs {
		b.PeakAbs = a
	}
	if a > ovThresh {
		b.Overflowed = true
	}
}

// runSegsRecord is runSegs with the record-mode bookkeeping in every
// loop: each op's raw value updates the owning block's peak tracker and
// overflow latch before saturation. opConst ops carry their saturated
// value in gain and their raw value in off.
func (f *fusedProg) runSegsRecord(s *Simulator, t float64, state []float64, all *fusedStream) {
	p := f.p
	fs := s.nl.cfg.FullScale
	sat := s.nl.cfg.SatLevel
	ovThresh := fs * (1 + 1e-12)
	nv := s.netVals
	blocks := s.nl.blocks
	for _, sg := range all.segs {
		ops := all.ops[sg.start:sg.end]
		ids := all.ids[sg.start:sg.end]
		switch sg.op {
		case opConst:
			for i := range ops {
				o := &ops[i]
				latch(blocks[ids[i]], math.Abs(o.off), ovThresh)
				if sg.store {
					nv[o.out] = 0 + o.gain
				} else {
					nv[o.out] += o.gain
				}
			}
		case opState:
			for i := range ops {
				o := &ops[i]
				v := state[o.in0]
				a := math.Abs(v)
				latch(blocks[ids[i]], a, ovThresh)
				if a > fs { // NaN skips saturation, as in softSat
					v = softSat(v, fs, sat)
				}
				if sg.store {
					nv[o.out] = 0 + v
				} else {
					nv[o.out] += v
				}
			}
		case opInput:
			auxs := all.aux[sg.start:sg.end]
			for i := range ops {
				o := &ops[i]
				var v float64
				if fn := p.blk[auxs[i]].Stimulus; fn != nil {
					v = fn(t)
				}
				a := math.Abs(v)
				latch(blocks[ids[i]], a, ovThresh)
				if a > fs {
					v = softSat(v, fs, sat)
				}
				if sg.store {
					nv[o.out] = 0 + v
				} else {
					nv[o.out] += v
				}
			}
		case opLinear:
			for i := range ops {
				o := &ops[i]
				v := o.gain*nv[o.in0] + o.off
				a := math.Abs(v)
				latch(blocks[ids[i]], a, ovThresh)
				if a > fs {
					v = softSat(v, fs, sat)
				}
				if sg.store {
					nv[o.out] = 0 + v
				} else {
					nv[o.out] += v
				}
			}
		case opVarMul:
			in1s := all.in1[sg.start:sg.end]
			for i := range ops {
				o := &ops[i]
				v := o.gain*(nv[o.in0]*nv[in1s[i]]/fs) + o.off
				a := math.Abs(v)
				latch(blocks[ids[i]], a, ovThresh)
				if a > fs {
					v = softSat(v, fs, sat)
				}
				if sg.store {
					nv[o.out] = 0 + v
				} else {
					nv[o.out] += v
				}
			}
		case opLUT:
			auxs := all.aux[sg.start:sg.end]
			for i := range ops {
				o := &ops[i]
				tab := p.blk[auxs[i]].Table
				v := o.gain*tab[lutIndex(nv[o.in0], fs, len(tab))] + o.off
				a := math.Abs(v)
				latch(blocks[ids[i]], a, ovThresh)
				if a > fs {
					v = softSat(v, fs, sat)
				}
				if sg.store {
					nv[o.out] = 0 + v
				} else {
					nv[o.out] += v
				}
			}
		}
	}
}

// syncFoldLanes materialises the stream's per-lane folded constants from
// the simulator's laneProg into its lane fields, exactly mirroring how
// syncFold fills ops[pos].gain from the scalar fold, and laneCraw's
// opConst positions, which only the record pass reads. Constants are
// sources, so they sit in the stream's first phase: laneCraw stops at
// the last of them.
func (st *fusedStream) syncFoldLanes(lp *laneProg) {
	B := lp.lanes
	need := len(st.ops) * B
	st.laneG = resizeF(st.laneG, need)
	st.laneUni = resizeBool(st.laneUni, len(st.ops))
	for i := range st.ops {
		a := int(st.aux[i])
		src := lp.gain[a*B : (a+1)*B]
		copy(st.laneG[i*B:(i+1)*B], src)
		u := true
		for l := 1; l < B; l++ {
			if src[l] != src[0] {
				u = false
				break
			}
		}
		st.laneUni[i] = u
	}
	constEnd := 0
	for _, sg := range st.segs {
		if sg.op == opConst {
			constEnd = int(sg.end)
		}
	}
	st.laneCraw = resizeF(st.laneCraw, constEnd*B)
	for _, sg := range st.segs {
		if sg.op != opConst {
			continue
		}
		for i := int(sg.start); i < int(sg.end); i++ {
			a := int(st.aux[i])
			copy(st.laneCraw[i*B:(i+1)*B], lp.craw[a*B:(a+1)*B])
		}
	}
}

// syncLanes brings the fused kernel's materialised lane state current with
// the simulator's scalar fold and lane fold generations, returning the
// lane width. Shared by the trial and record lane entry points.
func (f *fusedProg) syncLanes(s *Simulator) int {
	if f.syncedGen != f.p.foldGen {
		f.syncFold()
	}
	lp := s.lprog
	if f.syncedLaneGen != lp.foldGen || f.laneB != lp.lanes {
		f.serial.syncFoldLanes(lp)
		f.rec.syncFoldLanes(lp)
		f.syncedLaneGen = lp.foldGen
		f.laneB = lp.lanes
	}
	return lp.lanes
}

// evalLanes is the lane-batched trial evaluation: the fused segment walk
// over the trial-live region with an inner loop streaming B lanes per op
// record.
func (f *fusedProg) evalLanes(s *Simulator, ts, state []float64) {
	B := f.syncLanes(s)
	f.runSegsLanes(s, ts, state, &f.serial, B)
}

// runSegsLanes executes a stream's segments over all B lanes: the scalar
// runSegs loops with an inner lane dimension. Per-lane constants come
// from the stream's laneG; offsets are physical and shared; ops marked
// uniform in laneUni broadcast one gain load
// across the lane loop instead of streaming B identical copies — the
// value is the same, so lanes stay bit-identical either way. Every
// lane's per-net accumulation order is the scalar stream order, so each
// lane is bit-identical to a scalar run with that lane's parameters.
func (f *fusedProg) runSegsLanes(s *Simulator, ts, state []float64, all *fusedStream, B int) {
	p := f.p
	fs := s.nl.cfg.FullScale
	sat := s.nl.cfg.SatLevel
	nv := s.laneNets
	for _, sg := range all.segs {
		ops := all.ops[sg.start:sg.end]
		lg := all.laneG[int(sg.start)*B : int(sg.end)*B]
		un := all.laneUni[sg.start:sg.end]
		switch {
		case sg.op == opConst && sg.store:
			for i := range ops {
				o := &ops[i]
				dst := nv[int(o.out)*B : int(o.out)*B+B]
				src := lg[i*B : i*B+B]
				for l := range dst {
					dst[l] = 0 + src[l]
				}
			}
		case sg.op == opConst:
			for i := range ops {
				o := &ops[i]
				dst := nv[int(o.out)*B : int(o.out)*B+B]
				src := lg[i*B : i*B+B]
				for l := range dst {
					dst[l] += src[l]
				}
			}
		case sg.op == opState && sg.store:
			i0 := 0
			if laneAVX && B == 16 {
				i0 = laneSegState16(&ops[0], len(ops), &nv[0], &state[0], fs, true)
			}
			for i := i0; i < len(ops); i++ {
				o := &ops[i]
				dst := nv[int(o.out)*B : int(o.out)*B+B]
				src := state[int(o.in0)*B : int(o.in0)*B+B]
				for l := range dst {
					v := src[l]
					if math.Abs(v) > fs { // one predictable branch; NaN passes through
						if v > fs {
							v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
						} else {
							v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
						}
					}
					dst[l] = 0 + v
				}
			}
		case sg.op == opState:
			i0 := 0
			if laneAVX && B == 16 {
				i0 = laneSegState16(&ops[0], len(ops), &nv[0], &state[0], fs, false)
			}
			for i := i0; i < len(ops); i++ {
				o := &ops[i]
				dst := nv[int(o.out)*B : int(o.out)*B+B]
				src := state[int(o.in0)*B : int(o.in0)*B+B]
				for l := range dst {
					v := src[l]
					if math.Abs(v) > fs { // one predictable branch; NaN passes through
						if v > fs {
							v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
						} else {
							v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
						}
					}
					dst[l] += v
				}
			}
		case sg.op == opInput:
			auxs := all.aux[sg.start:sg.end]
			for i := range ops {
				o := &ops[i]
				fn := p.blk[auxs[i]].Stimulus
				dst := nv[int(o.out)*B : int(o.out)*B+B]
				for l := range dst {
					var v float64
					if fn != nil {
						v = fn(ts[l])
					}
					if math.Abs(v) > fs {
						if v > fs {
							v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
						} else {
							v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
						}
					}
					if sg.store {
						dst[l] = 0 + v
					} else {
						dst[l] += v
					}
				}
			}
		case sg.op == opLinear && sg.store:
			i0 := 0
			if laneAVX && B == 16 {
				i0 = laneSegLin16(&ops[0], len(ops), &nv[0], &lg[0], &un[0], fs, true)
			}
			for i := i0; i < len(ops); i++ {
				o := &ops[i]
				dst := nv[int(o.out)*B : int(o.out)*B+B]
				src := nv[int(o.in0)*B : int(o.in0)*B+B]
				off := o.off
				if un[i] {
					g0 := lg[i*B]
					for l := range dst {
						v := g0*src[l] + off
						if math.Abs(v) > fs { // one predictable branch; NaN passes through
							if v > fs {
								v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
							} else {
								v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
							}
						}
						dst[l] = 0 + v
					}
					continue
				}
				g := lg[i*B : i*B+B]
				for l := range dst {
					v := g[l]*src[l] + off
					if math.Abs(v) > fs { // one predictable branch; NaN passes through
						if v > fs {
							v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
						} else {
							v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
						}
					}
					dst[l] = 0 + v
				}
			}
		case sg.op == opLinear:
			i0 := 0
			if laneAVX && B == 16 {
				i0 = laneSegLin16(&ops[0], len(ops), &nv[0], &lg[0], &un[0], fs, false)
			}
			for i := i0; i < len(ops); i++ {
				o := &ops[i]
				dst := nv[int(o.out)*B : int(o.out)*B+B]
				src := nv[int(o.in0)*B : int(o.in0)*B+B]
				off := o.off
				if un[i] {
					g0 := lg[i*B]
					for l := range dst {
						v := g0*src[l] + off
						if math.Abs(v) > fs { // one predictable branch; NaN passes through
							if v > fs {
								v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
							} else {
								v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
							}
						}
						dst[l] += v
					}
					continue
				}
				g := lg[i*B : i*B+B]
				for l := range dst {
					v := g[l]*src[l] + off
					if math.Abs(v) > fs { // one predictable branch; NaN passes through
						if v > fs {
							v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
						} else {
							v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
						}
					}
					dst[l] += v
				}
			}
		case sg.op == opVarMul:
			in1s := all.in1[sg.start:sg.end]
			for i := range ops {
				o := &ops[i]
				dst := nv[int(o.out)*B : int(o.out)*B+B]
				src0 := nv[int(o.in0)*B : int(o.in0)*B+B]
				src1 := nv[int(in1s[i])*B : int(in1s[i])*B+B]
				g := lg[i*B : i*B+B]
				off := o.off
				for l := range dst {
					v := g[l]*(src0[l]*src1[l]/fs) + off
					if math.Abs(v) > fs {
						if v > fs {
							v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
						} else {
							v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
						}
					}
					if sg.store {
						dst[l] = 0 + v
					} else {
						dst[l] += v
					}
				}
			}
		case sg.op == opLUT:
			auxs := all.aux[sg.start:sg.end]
			for i := range ops {
				o := &ops[i]
				tab := p.blk[auxs[i]].Table
				dst := nv[int(o.out)*B : int(o.out)*B+B]
				src := nv[int(o.in0)*B : int(o.in0)*B+B]
				g := lg[i*B : i*B+B]
				off := o.off
				for l := range dst {
					idx := lutIndex(src[l], fs, len(tab))
					v := g[l]*tab[idx] + off
					if math.Abs(v) > fs {
						if v > fs {
							v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
						} else {
							v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
						}
					}
					if sg.store {
						dst[l] = 0 + v
					} else {
						dst[l] += v
					}
				}
			}
		}
	}
}

// evalLanesRecord is the lane-batched record-mode evaluation: evalRecord
// with an inner lane dimension. The live stream, then the record-only
// stream, run with per-lane peak tracking and overflow latching folded
// into each loop; an interpreted tail then latches the silent ops, which
// read only completed nets.
func (f *fusedProg) evalLanesRecord(s *Simulator, ts, state []float64) {
	B := f.syncLanes(s)
	f.runSegsLanesRecord(s, ts, state, &f.serial, B)
	f.runSegsLanesRecord(s, ts, state, &f.rec, B)

	// Silent tail: compute each op's per-lane raw from the finished nets
	// and latch it; nothing is driven.
	p := f.p
	lp := s.lprog
	fs := s.nl.cfg.FullScale
	ovThresh := fs * (1 + 1e-12)
	nv := s.laneNets
	for i := p.nDrive; i < len(p.kind); i++ {
		id := p.blk[i].ID
		pk := s.lanePeak[id*B : id*B+B]
		ov := s.laneOver[id*B : id*B+B]
		for l := 0; l < B; l++ {
			var raw float64
			switch p.kind[i] {
			case opConst:
				raw = lp.craw[i*B+l]
			case opState:
				raw = state[int(p.in0[i])*B+l]
			case opInput:
				if fn := p.blk[i].Stimulus; fn != nil {
					raw = fn(ts[l])
				}
			case opLinear:
				raw = lp.gain[i*B+l]*nv[int(p.in0[i])*B+l] + p.off[i]
			case opVarMul:
				raw = lp.gain[i*B+l]*(nv[int(p.in0[i])*B+l]*nv[int(p.in1[i])*B+l]/fs) + p.off[i]
			case opLUT:
				tab := p.blk[i].Table
				idx := lutIndex(nv[int(p.in0[i])*B+l], fs, len(tab))
				raw = lp.gain[i*B+l]*tab[idx] + p.off[i]
			}
			if a := math.Abs(raw); a > pk[l] {
				pk[l] = a
			}
			if math.Abs(raw) > ovThresh {
				ov[l] = true
			}
		}
	}
}

// runSegsLanesRecord is runSegsLanes with the record-mode bookkeeping in
// every loop over one whole stream: each op's raw value updates the
// owning block's per-lane peak tracker and overflow latch before
// saturation. Raw values depend only on completed input nets, so latch
// results are identical to the interpreter's walk regardless of the
// phase-major reordering. opConst values come pre-saturated from the
// stream's laneG; their raws come from laneCraw, exactly as the scalar
// fold keeps craw beside cval.
func (f *fusedProg) runSegsLanesRecord(s *Simulator, ts, state []float64, all *fusedStream, B int) {
	p := f.p
	fs := s.nl.cfg.FullScale
	sat := s.nl.cfg.SatLevel
	ovThresh := fs * (1 + 1e-12)
	nv := s.laneNets
	lanePeak := s.lanePeak
	laneOver := s.laneOver
	for _, sg := range all.segs {
		ops := all.ops[sg.start:sg.end]
		ids := all.ids[sg.start:sg.end]
		lg := all.laneG[int(sg.start)*B : int(sg.end)*B]
		un := all.laneUni[sg.start:sg.end]
		switch {
		case sg.op == opConst:
			cr := all.laneCraw[int(sg.start)*B : int(sg.end)*B]
			for i := range ops {
				o := &ops[i]
				id := int(ids[i])
				dst := nv[int(o.out)*B : int(o.out)*B+B]
				cv := lg[i*B : i*B+B]
				raws := cr[i*B : i*B+B]
				pk := lanePeak[id*B : id*B+B]
				ov := laneOver[id*B : id*B+B]
				for l := range dst {
					a := math.Abs(raws[l])
					if a > pk[l] {
						pk[l] = a
					}
					if a > ovThresh {
						ov[l] = true
					}
					if sg.store {
						dst[l] = 0 + cv[l]
					} else {
						dst[l] += cv[l]
					}
				}
			}
		case sg.op == opState:
			i0 := 0
			if laneAVX && B == 16 {
				i0 = laneSegState16Rec(&ops[0], &ids[0], len(ops), &nv[0], &state[0], &lanePeak[0], fs, sg.store)
			}
			for i := i0; i < len(ops); i++ {
				o := &ops[i]
				id := int(ids[i])
				dst := nv[int(o.out)*B : int(o.out)*B+B]
				src := state[int(o.in0)*B : int(o.in0)*B+B]
				pk := lanePeak[id*B : id*B+B]
				ov := laneOver[id*B : id*B+B]
				for l := range dst {
					v := src[l]
					a := math.Abs(v)
					if a > pk[l] {
						pk[l] = a
					}
					if a > ovThresh {
						ov[l] = true
					}
					if a > fs { // NaN skips saturation, as in the scalar walk
						if v > fs {
							v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
						} else {
							v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
						}
					}
					if sg.store {
						dst[l] = 0 + v
					} else {
						dst[l] += v
					}
				}
			}
		case sg.op == opInput:
			auxs := all.aux[sg.start:sg.end]
			for i := range ops {
				o := &ops[i]
				id := int(ids[i])
				fn := p.blk[auxs[i]].Stimulus
				dst := nv[int(o.out)*B : int(o.out)*B+B]
				pk := lanePeak[id*B : id*B+B]
				ov := laneOver[id*B : id*B+B]
				for l := range dst {
					var v float64
					if fn != nil {
						v = fn(ts[l])
					}
					a := math.Abs(v)
					if a > pk[l] {
						pk[l] = a
					}
					if a > ovThresh {
						ov[l] = true
					}
					if a > fs {
						if v > fs {
							v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
						} else {
							v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
						}
					}
					if sg.store {
						dst[l] = 0 + v
					} else {
						dst[l] += v
					}
				}
			}
		case sg.op == opLinear && sg.store:
			i0 := 0
			if laneAVX && B == 16 {
				i0 = laneSegLin16Rec(&ops[0], &ids[0], len(ops), &nv[0], &lg[0], &un[0], &lanePeak[0], fs, true)
			}
			for i := i0; i < len(ops); i++ {
				o := &ops[i]
				id := int(ids[i])
				dst := nv[int(o.out)*B : int(o.out)*B+B]
				src := nv[int(o.in0)*B : int(o.in0)*B+B]
				pk := lanePeak[id*B : id*B+B]
				ov := laneOver[id*B : id*B+B]
				off := o.off
				if un[i] {
					g0 := lg[i*B]
					for l := range dst {
						v := g0*src[l] + off
						a := math.Abs(v)
						if a > pk[l] {
							pk[l] = a
						}
						if a > ovThresh {
							ov[l] = true
						}
						if a > fs {
							if v > fs {
								v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
							} else {
								v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
							}
						}
						dst[l] = 0 + v
					}
					continue
				}
				g := lg[i*B : i*B+B]
				for l := range dst {
					v := g[l]*src[l] + off
					a := math.Abs(v)
					if a > pk[l] {
						pk[l] = a
					}
					if a > ovThresh {
						ov[l] = true
					}
					if a > fs {
						if v > fs {
							v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
						} else {
							v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
						}
					}
					dst[l] = 0 + v
				}
			}
		case sg.op == opLinear:
			i0 := 0
			if laneAVX && B == 16 {
				i0 = laneSegLin16Rec(&ops[0], &ids[0], len(ops), &nv[0], &lg[0], &un[0], &lanePeak[0], fs, false)
			}
			for i := i0; i < len(ops); i++ {
				o := &ops[i]
				id := int(ids[i])
				dst := nv[int(o.out)*B : int(o.out)*B+B]
				src := nv[int(o.in0)*B : int(o.in0)*B+B]
				pk := lanePeak[id*B : id*B+B]
				ov := laneOver[id*B : id*B+B]
				off := o.off
				if un[i] {
					g0 := lg[i*B]
					for l := range dst {
						v := g0*src[l] + off
						a := math.Abs(v)
						if a > pk[l] {
							pk[l] = a
						}
						if a > ovThresh {
							ov[l] = true
						}
						if a > fs {
							if v > fs {
								v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
							} else {
								v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
							}
						}
						dst[l] += v
					}
					continue
				}
				g := lg[i*B : i*B+B]
				for l := range dst {
					v := g[l]*src[l] + off
					a := math.Abs(v)
					if a > pk[l] {
						pk[l] = a
					}
					if a > ovThresh {
						ov[l] = true
					}
					if a > fs {
						if v > fs {
							v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
						} else {
							v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
						}
					}
					dst[l] += v
				}
			}
		case sg.op == opVarMul:
			in1s := all.in1[sg.start:sg.end]
			for i := range ops {
				o := &ops[i]
				id := int(ids[i])
				dst := nv[int(o.out)*B : int(o.out)*B+B]
				src0 := nv[int(o.in0)*B : int(o.in0)*B+B]
				src1 := nv[int(in1s[i])*B : int(in1s[i])*B+B]
				pk := lanePeak[id*B : id*B+B]
				ov := laneOver[id*B : id*B+B]
				g := lg[i*B : i*B+B]
				off := o.off
				for l := range dst {
					v := g[l]*(src0[l]*src1[l]/fs) + off
					a := math.Abs(v)
					if a > pk[l] {
						pk[l] = a
					}
					if a > ovThresh {
						ov[l] = true
					}
					if a > fs {
						if v > fs {
							v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
						} else {
							v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
						}
					}
					if sg.store {
						dst[l] = 0 + v
					} else {
						dst[l] += v
					}
				}
			}
		case sg.op == opLUT:
			auxs := all.aux[sg.start:sg.end]
			for i := range ops {
				o := &ops[i]
				id := int(ids[i])
				tab := p.blk[auxs[i]].Table
				dst := nv[int(o.out)*B : int(o.out)*B+B]
				src := nv[int(o.in0)*B : int(o.in0)*B+B]
				pk := lanePeak[id*B : id*B+B]
				ov := laneOver[id*B : id*B+B]
				g := lg[i*B : i*B+B]
				off := o.off
				for l := range dst {
					idx := lutIndex(src[l], fs, len(tab))
					v := g[l]*tab[idx] + off
					a := math.Abs(v)
					if a > pk[l] {
						pk[l] = a
					}
					if a > ovThresh {
						ov[l] = true
					}
					if a > fs {
						if v > fs {
							v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
						} else {
							v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
						}
					}
					if sg.store {
						dst[l] = 0 + v
					} else {
						dst[l] += v
					}
				}
			}
		}
	}
}

// lutIndex maps an input voltage to a table index, clamping out-of-range
// inputs to the end entries. NaN (only reachable through a pathological
// user stimulus or table) maps to index 0 instead of feeding an
// implementation-defined int conversion: every engine uses this helper,
// so the choice is consistent.
func lutIndex(in, fs float64, tabLen int) int {
	idx := 0
	if r := math.Round((in + fs) / (2 * fs) * float64(tabLen-1)); !math.IsNaN(r) {
		idx = int(r)
	}
	if idx < 0 {
		idx = 0
	}
	if idx >= tabLen {
		idx = tabLen - 1
	}
	return idx
}
