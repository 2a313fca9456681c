package circuit

// Lowering IR: NewSimulator lowers the netlist into a flat
// struct-of-arrays op stream — the program — that the fused kernel
// (fused.go) materialises into its execution streams. The lowering folds
// each block's effective gain/offset (effGain·Gain, effOff) into per-op
// constants and pre-quantizes DAC levels; the block-walk interpreter
// (evalReference) stays the executable specification every kernel is
// tested against.
//
// Stream order. Sources come in block order and combinational ops in the
// topological order computed by compile() — the interpreter's emission
// order, so every net's drivers sum in the interpreter's order. lower then
// stably partitions the stream into three regions:
//
//   - trial-live ops [0, nLive): ops whose output net reaches an
//     integrator input, backwards through the inputs of linear, var-mul
//     and LUT ops. Only these can move an integrator, so they are all the
//     three RK4 trial stages evaluate.
//   - record-only ops [nLive, nDrive): ops that drive a net no integrator
//     sees (an unconnected unit's dangling output, a fanout branch that
//     feeds only an ADC). The once-per-step record pass still evaluates
//     them, so their net values, ADC codes, peaks and overflow latches
//     are exactly the interpreter's.
//   - silent ops [nDrive, len): ops that drive no net at all. Only the
//     record pass visits them, for their peak/overflow latches.
//
// The partition keeps every net's drivers together and in order:
// liveness belongs to nets, and an op is live exactly when the net it
// drives is, so all of a net's drivers land in the same region. Live ops read only live nets, and record-only ops read
// nets that are live or driven earlier in their own region, so each region
// is still topologically ordered. Summation order — and so every value —
// is therefore unchanged. The differential tests in differential_test.go,
// cone_test.go and fuzz_test.go enforce bit-identity with the interpreter.

// opcode discriminates lowered op kinds.
type opcode uint8

const (
	// opConst emits a pre-folded, pre-quantized constant (a DAC).
	opConst opcode = iota
	// opState emits an integrator's state slot.
	opState
	// opInput emits an external stimulus sample (read live through the
	// block pointer: the chip layer rewires Stimulus mid-run).
	opInput
	// opLinear emits gain·net[in0] + off (constant-gain multiplier or one
	// fanout branch).
	opLinear
	// opVarMul emits gain·(net[in0]·net[in1]/fs) + off.
	opVarMul
	// opLUT emits gain·table[index(net[in0])] + off.
	opLUT
)

// program is the struct-of-arrays lowering of one netlist. Topology
// (kind/in/out/blk) is fixed at lower time; the folded constants
// (gain/off/craw/cval) are refreshed by refold whenever trim or mismatch
// changes (ReloadBlockParams).
type program struct {
	kind []opcode
	in0  []int32 // net index, or state slot for opState
	in1  []int32 // second net for opVarMul
	out  []int32 // driven net; -1 drives nothing
	gain []float64
	off  []float64
	craw []float64 // opConst raw (pre-saturation) value
	cval []float64 // opConst saturated value
	blk  []*Block  // owning block: latches, stimulus, LUT table

	// Region bounds (see the file comment): [0,nLive) trial-live,
	// [nLive,nDrive) record-only, [nDrive,len) silent.
	nLive, nDrive int

	// first[i] marks the first op in stream order driving out[i]. The
	// fused engine stores (0 + v) there instead of accumulating, which is
	// what lets it skip the netVals clear.
	first []bool

	// foldGen increments on every refold; the fused engine re-syncs its
	// materialised copy of the folded constants when it observes a new
	// generation.
	foldGen uint64

	// Integrator derivative stream: du/dt = k·(intGain·net[intNet] + intOff)
	// per state slot, with intNet = -1 for a grounded input.
	intNet  []int32
	intGain []float64
	intOff  []float64
}

// lower builds the op stream for the simulator's netlist. Must run after
// compile() (it consumes the topological order); constants are filled in by
// the first refold.
func (s *Simulator) lower() *program {
	p := &program{}
	emit := func(kind opcode, b *Block, in0, in1 int32, out Net) {
		p.kind = append(p.kind, kind)
		p.in0 = append(p.in0, in0)
		p.in1 = append(p.in1, in1)
		p.out = append(p.out, int32(out))
		p.blk = append(p.blk, b)
		p.gain = append(p.gain, 0)
		p.off = append(p.off, 0)
		p.craw = append(p.craw, 0)
		p.cval = append(p.cval, 0)
	}
	// Sources in block order, then combinational blocks in topological
	// order — the same emission order as the reference interpreter, so
	// net sums accumulate bit-identically.
	for _, b := range s.nl.blocks {
		switch b.Kind {
		case KindIntegrator:
			emit(opState, b, int32(b.stateIdx), -1, b.out[0])
		case KindDAC:
			emit(opConst, b, -1, -1, b.out[0])
		case KindInput:
			emit(opInput, b, -1, -1, b.out[0])
		}
	}
	for _, b := range s.order {
		switch b.Kind {
		case KindMultiplier:
			if b.varMode {
				emit(opVarMul, b, int32(b.in[0]), int32(b.in[1]), b.out[0])
			} else {
				emit(opLinear, b, int32(b.in[0]), -1, b.out[0])
			}
		case KindFanout:
			for _, n := range b.out {
				emit(opLinear, b, int32(b.in[0]), -1, n)
			}
		case KindLUT:
			emit(opLUT, b, int32(b.in[0]), -1, b.out[0])
		}
	}

	// Integrator derivative stream, in state-slot order.
	p.intNet = make([]int32, len(s.integrators))
	p.intGain = make([]float64, len(s.integrators))
	p.intOff = make([]float64, len(s.integrators))
	for i, b := range s.integrators {
		p.intNet[i] = int32(b.in[0]) // noNet is already -1
	}
	p.partition(s.nl.nets)
	return p
}

// partition stably reorders the stream into its trial-live, record-only
// and silent regions (see the file comment) and sets the first-driver
// flags. Liveness is one backward pass: the stream is topological, so
// every reader of a net is visited before any of the net's drivers.
func (p *program) partition(nNets int) {
	n := len(p.kind)
	liveNet := make([]bool, nNets)
	for _, in := range p.intNet {
		if in >= 0 {
			liveNet[in] = true
		}
	}
	live := make([]bool, n)
	for i := n - 1; i >= 0; i-- {
		if p.out[i] < 0 || !liveNet[p.out[i]] {
			continue
		}
		live[i] = true
		switch p.kind[i] {
		case opVarMul:
			liveNet[p.in1[i]] = true
			liveNet[p.in0[i]] = true
		case opLinear, opLUT:
			liveNet[p.in0[i]] = true
		}
	}
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if live[i] {
			order = append(order, i)
		}
	}
	p.nLive = len(order)
	for i := 0; i < n; i++ {
		if !live[i] && p.out[i] >= 0 {
			order = append(order, i)
		}
	}
	p.nDrive = len(order)
	for i := 0; i < n; i++ {
		if p.out[i] < 0 {
			order = append(order, i)
		}
	}
	p.kind = permuteOpcodes(p.kind, order)
	p.in0 = permuteInt32(p.in0, order)
	p.in1 = permuteInt32(p.in1, order)
	p.out = permuteInt32(p.out, order)
	p.gain = permuteFloat64(p.gain, order)
	p.off = permuteFloat64(p.off, order)
	p.craw = permuteFloat64(p.craw, order)
	p.cval = permuteFloat64(p.cval, order)
	p.blk = permuteBlocks(p.blk, order)

	// First-driver flags over the final stream order (silent ops drive
	// nothing and are never first).
	p.first = make([]bool, n)
	seen := make([]bool, nNets)
	for i := 0; i < p.nDrive; i++ {
		if !seen[p.out[i]] {
			p.first[i] = true
			seen[p.out[i]] = true
		}
	}
}

func permuteOpcodes(src []opcode, order []int) []opcode {
	dst := make([]opcode, len(src))
	for i, j := range order {
		dst[i] = src[j]
	}
	return dst
}

func permuteInt32(src []int32, order []int) []int32 {
	dst := make([]int32, len(src))
	for i, j := range order {
		dst[i] = src[j]
	}
	return dst
}

func permuteFloat64(src []float64, order []int) []float64 {
	dst := make([]float64, len(src))
	for i, j := range order {
		dst[i] = src[j]
	}
	return dst
}

func permuteBlocks(src []*Block, order []int) []*Block {
	dst := make([]*Block, len(src))
	for i, j := range order {
		dst[i] = src[j]
	}
	return dst
}

// refold refreshes every folded constant from the blocks' current
// parameters and effective trim state. Called by ReloadBlockParams (and so
// by Reset), keeping the op stream in sync with calibration.
func (p *program) refold(s *Simulator) {
	fs := s.nl.cfg.FullScale
	sat := s.nl.cfg.SatLevel
	for i, b := range p.blk {
		off, gf := s.effOff[b.ID], s.effGain[b.ID]
		switch p.kind[i] {
		case opConst:
			// gf·quantize(level) + off, exactly as the reference computes
			// per eval; quantization happens once here instead.
			raw := gf*quantize(b.Level, fs, s.nl.cfg.DACBits) + off
			p.craw[i] = raw
			p.cval[i] = softSat(raw, fs, sat)
		case opState, opInput:
			// No folded constants; integrators and inputs emit raw values.
		case opLinear:
			if b.Kind == KindMultiplier {
				// (gf·Gain)·x + off ≡ gf·Gain·x + off: Go evaluates the
				// reference's product left-to-right, so folding the two
				// leading factors preserves bit-identity.
				p.gain[i] = gf * b.Gain
			} else { // fanout branch
				p.gain[i] = gf
			}
			p.off[i] = off
		case opVarMul, opLUT:
			p.gain[i] = gf
			p.off[i] = off
		}
	}
	for i, b := range s.integrators {
		p.intOff[i], p.intGain[i] = s.effOff[b.ID], s.effGain[b.ID]
	}
	p.foldGen++
}

// stage computes integrator derivatives from the current net values into
// dst and, when tmp is non-nil, fuses the RK4 trial-state update
// tmp = state + c·dst into the same pass.
func (p *program) stage(s *Simulator, dst, tmp []float64, c float64) {
	nv := s.netVals
	k := s.k
	for i := range dst {
		in := 0.0
		if n := p.intNet[i]; n >= 0 {
			in = nv[n]
		}
		d := k * (p.intGain[i]*in + p.intOff[i])
		dst[i] = d
		if tmp != nil {
			tmp[i] = s.state[i] + c*d
		}
	}
}
