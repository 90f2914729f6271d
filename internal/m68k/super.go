package m68k

// Superinstruction tier: the second interpreter tier built on top of
// the execution table. The basic-block scanner splits the resolved
// program into straight-line runs, pre-sums each run's fixed cycle
// costs, and the compiler lowers every instruction into a pre-decoded
// micro-op (superOp) specialized for the forms the PASM workloads
// execute in their inner loops — memory/register moves, read-modify-
// write arithmetic, register MULU (including fused runs of identical
// multiplies, the paper's muls chains), and the DBcc/Bcc loop
// terminators. Everything else falls back to the instruction's
// exec-table handler, so the tier is a strict refinement: cycle
// counts, flags, memory traffic, refresh interference, device
// blocking/retry, trace callbacks and error messages are identical to
// the Step path, which the three-way differential tests prove.
//
// Data-dependent costs stay symbolic: MULU's 38+2*ones(source) time,
// DBcc/Bcc branch outcomes, wait states and DRAM refresh are all
// evaluated per execution against live machine state. Only the
// statically known parts (baseCycles, EA decode, dispatch) are fused
// at compile time.
//
// The tier is driven from CPU.Run (and the PASM lockstep executor via
// ExecSuperAt); CPU.Step is untouched. CPU.DisableSuperinstructions
// forces Run back onto the per-Step path for A/B testing.

// BasicBlock is one straight-line run found by the block scanner:
// control enters only at Start and leaves only from End-1 (a device
// block or error can suspend execution mid-block; the engine then
// re-enters at the suspended PC, which is why micro-ops are indexed
// per instruction rather than per block). FixedCycles pre-sums the
// data-independent static cycle costs (baseCycles) of the block.
type BasicBlock struct {
	Start, End  int
	FixedCycles int64
}

// Len returns the number of instructions in the block.
func (b BasicBlock) Len() int { return b.End - b.Start }

// scanBlocks partitions a program into basic blocks. Leaders are the
// entry point, every branch/jump/call target, every instruction after
// a control transfer or engine-visible instruction (HALT, BCAST,
// SETMASK stop CPU.Run), and the boundaries of declared SIMD
// broadcast blocks. The returned blocks tile [0, len(Instrs)) exactly
// — the fuzz target asserts this partition invariant.
func scanBlocks(p *Program) []BasicBlock {
	n := len(p.Instrs)
	if n == 0 {
		return nil
	}
	leader := make([]bool, n+1)
	leader[0] = true
	leader[n] = true
	mark := func(i int) {
		if i >= 0 && i <= n {
			leader[i] = true
		}
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		switch in.Op {
		case BCC, DBCC, JSR, JMP:
			if in.Dst.Mode == ModeLabel {
				mark(int(in.Dst.Val))
			}
			mark(i + 1)
		case RTS, HALT, BCAST, SETMASK:
			mark(i + 1)
		}
	}
	for _, b := range p.Blocks {
		mark(b.Start)
		mark(b.End)
	}
	var blocks []BasicBlock
	start := 0
	for i := 1; i <= n; i++ {
		if !leader[i] {
			continue
		}
		var fixed int64
		for j := start; j < i; j++ {
			fixed += baseCycles(&p.Instrs[j])
		}
		blocks = append(blocks, BasicBlock{Start: start, End: i, FixedCycles: fixed})
		start = i
	}
	return blocks
}

// BasicBlocks returns the scanner's partition of the program (built
// lazily with the superinstruction table and shared read-only).
func (p *Program) BasicBlocks() []BasicBlock {
	p.super()
	return p.sblocks
}

// BlockIndexOf returns the index (into BasicBlocks) of the basic
// block containing instruction pc, or -1 when pc is out of range.
func (p *Program) BlockIndexOf(pc int) int {
	p.super()
	if pc < 0 || pc >= len(p.blockOf) {
		return -1
	}
	return int(p.blockOf[pc])
}

// Micro-op kinds. skGeneric dispatches the instruction's exec-table
// handler; the rest are specialized straight-line forms that commit
// inline. Specialized ops perform every failure check (device window,
// bounds, alignment) before mutating any state and fall back to the
// generic handler on trouble, which reproduces the reference bail/
// retry/error behaviour exactly.
const (
	skGeneric uint8 = iota
	skMoveRR        // MOVE Dn/An/#imm -> Dn
	skMoveMR        // MOVE <mem> -> Dn
	skMoveRM        // MOVE Dn/An/#imm -> <mem>
	skMoveaR        // MOVEA Dn/An/#imm -> An
	skMoveaM        // MOVEA <mem> -> An
	skMoveq         // MOVEQ #imm -> Dn
	skLea           // LEA (An)/d(An)/$abs -> An
	skClrD          // CLR Dn
	skClrM          // CLR <mem>
	skAluRR         // ADD/SUB/AND/OR/EOR (+I/Q forms) Dn/#imm -> Dn
	skAluMR         // same, <mem> source -> Dn
	skAluM          // same, Dn/#imm source -> <mem> (read-modify-write)
	skCmpR          // CMP/CMPI Dn/An/#imm, Dn
	skCmpM          // CMP <mem>, Dn
	skAddaR         // ADDA/SUBA Dn/An/#imm -> An
	skAddaM         // ADDA/SUBA <mem> -> An
	skQuickA        // ADDQ/SUBQ #imm -> An
	skTstD          // TST Dn
	skTstM          // TST <mem>
	skMulu          // MULU Dn,Dn
	skMuluRun       // first/interior op of a fused run of identical MULUs
	skDBcc          // DBcc Dn,label
	skBcc           // Bcc label
	skJmp           // JMP label
	skNop           // NOP
)

// superOp is one instruction's pre-decoded micro-op. Field use is
// per-kind: reg is the primary (destination or counter) register,
// mreg doubles as the memory base register or the register source,
// imm as the immediate/quick value, disp as displacement or absolute
// address, inc as the post-increment/pre-decrement byte step, acc as
// the memory operand's bus-access count. fn/in always carry the
// exec-table fallback.
type superOp struct {
	kind    uint8
	size    Size
	cond    Cond
	op8     Op
	srcMode AddrMode
	memMode AddrMode
	reg     uint8
	mreg    uint8
	region  RegionID
	inc     int32
	disp    int32
	imm     uint32
	base    int64
	words   int64
	acc     int64
	target  int32
	runLen  int32
	loopEnd int32 // self-loop block: index of the terminating DBcc (0 = none)
	kern    bool  // self-loop block matches the element-kernel shape (runKernelLoop)
	fn      handler
	in      *Instr
}

// super returns the program's superinstruction table, building it on
// first use (like the execution table, it is immutable and shared by
// every CPU running the program).
func (p *Program) super() []superOp {
	p.supOnce.Do(func() {
		blocks := scanBlocks(p)
		p.sblocks = blocks
		p.blockOf = make([]int32, len(p.Instrs))
		for bi, b := range blocks {
			for i := b.Start; i < b.End; i++ {
				p.blockOf[i] = int32(bi)
			}
		}
		tab := p.table()
		sup := make([]superOp, len(p.Instrs))
		for i := range p.Instrs {
			sup[i] = compileOp(&p.Instrs[i], &tab[i])
		}
		// Fuse runs of identical register MULUs within a block (the
		// paper's artificial muls chains): the source register is not
		// written inside the run, so its data-dependent time is
		// computed once per execution of the run. Each member records
		// the run length remaining from itself, so execution may
		// resume mid-run (Run budget exhaustion) without special
		// cases.
		for _, b := range blocks {
			i := b.Start
			for i < b.End {
				if sup[i].kind != skMulu || sup[i].mreg == sup[i].reg {
					i++
					continue
				}
				j := i
				for j+1 < b.End && sameMulu(&sup[i], &sup[j+1]) {
					j++
				}
				if j > i {
					for k := i; k <= j; k++ {
						sup[k].kind = skMuluRun
						sup[k].runLen = int32(j - k + 1)
					}
				}
				i = j + 1
			}
		}
		// Mark self-loop blocks — a block whose terminating DBcc
		// targets its own start and whose body lowers entirely to
		// specialized micro-ops — for the loop superinstruction
		// executor (runLoop), which interprets whole iterations
		// without per-instruction dispatch.
		for _, b := range blocks {
			e := b.End - 1
			if b.Len() < 2 || sup[e].kind != skDBcc || int(sup[e].target) != b.Start {
				continue
			}
			ok := true
			for k := b.Start; k < e; k++ {
				if !loopKind(sup[k].kind) {
					ok = false
					break
				}
			}
			if ok {
				sup[b.Start].loopEnd = int32(e)
				sup[b.Start].kern = kernelShape(sup, b.Start, e)
			}
		}
		p.sup = sup
	})
	return p.sup
}

// loopKind reports whether a micro-op kind may appear in the body of a
// loop superinstruction: every kind the runLoop executor inlines.
func loopKind(k uint8) bool {
	switch k {
	case skMoveRR, skMoveMR, skMoveRM, skMoveaR, skMoveq, skLea,
		skClrD, skClrM, skAluRR, skAluMR, skAluM, skCmpR, skAddaR,
		skQuickA, skTstD, skMulu, skMuluRun, skNop:
		return true
	}
	return false
}

// kernelShape reports whether the self-loop block [s, e] (e = its
// DBRA) is the canonical element kernel every matmul variant compiles
// to:
//
//	move.w (aS)+, dP
//	mulu.w dR, dP
//	add.w  dP, (aD)+
//	mulu.w dR, dT ...   (optional muls chain, all to one register)
//	dbra   dC, <s>
//
// The shape gives runKernelLoop three loop invariants the generic
// executor cannot use: the multiplier register dR is never written
// inside the loop (its data-dependent MULU time is hoisted), the DBRA
// condition is F (no flag reads anywhere, so interior flag writes are
// dead and only the last writer per iteration is materialized), and
// every register the loop touches is distinct (locals cannot alias).
func kernelShape(sup []superOp, s, e int) bool {
	if e < s+3 {
		return false
	}
	m0, m1, m2, db := &sup[s], &sup[s+1], &sup[s+2], &sup[e]
	if m0.kind != skMoveMR || m0.memMode != ModePostInc || m0.size != Word {
		return false
	}
	if m1.kind != skMulu || m1.reg != m0.reg || m1.mreg == m0.reg {
		return false
	}
	if m2.kind != skAluM || m2.op8 != ADD || m2.size != Word ||
		m2.memMode != ModePostInc || m2.srcMode != ModeDataReg ||
		m2.reg != m0.reg || m2.mreg == m0.mreg {
		return false
	}
	if db.cond != CondF || db.reg == m0.reg || db.reg == m1.mreg {
		return false
	}
	if m1.mreg == db.reg { // multiplier must survive the counter update
		return false
	}
	for k := s; k <= e; k++ {
		if sup[k].region != m0.region {
			return false
		}
	}
	if s+3 < e { // muls chain: MULUs from the same source to one register
		t := sup[s+3].reg
		if t == m0.reg || t == m1.mreg || t == db.reg {
			return false
		}
		for k := s + 3; k < e; k++ {
			tk := &sup[k]
			if (tk.kind != skMulu && tk.kind != skMuluRun) ||
				tk.mreg != m1.mreg || tk.reg != t {
				return false
			}
		}
	}
	return true
}

// MuluRun describes a fused run of identical register MULUs: Len
// consecutive `MULU Src,Dst` instructions (Src never written inside
// the run), each costing Base static cycles plus the data-dependent
// multiply time of Src's low word, all charged to Region. The PASM
// SIMD executor batches such runs through the lockstep queue.
type MuluRun struct {
	Len    int
	Src    uint8
	Dst    uint8
	Base   int64
	Words  int
	Region RegionID
}

// MuluRunAt reports the fused MULU run extending from instruction idx
// (Len counts members from idx to the run's end). ok is false when
// idx is not part of a fused run.
func (p *Program) MuluRunAt(idx int) (MuluRun, bool) {
	sup := p.super()
	if idx < 0 || idx >= len(sup) || sup[idx].kind != skMuluRun {
		return MuluRun{}, false
	}
	op := &sup[idx]
	return MuluRun{
		Len: int(op.runLen), Src: op.mreg, Dst: op.reg,
		Base: op.base, Words: int(op.words), Region: op.region,
	}, true
}

// sameMulu reports whether b is another member of a's MULU run:
// identical register pair, accounting region and fetch length.
func sameMulu(a, b *superOp) bool {
	return b.kind == skMulu && b.mreg == a.mreg && b.reg == a.reg &&
		b.region == a.region && b.words == a.words && b.base == a.base
}

// setMem pre-decodes a memory operand into the micro-op's address
// fields. Returns false for operands that are not memory references.
func setMem(op *superOp, o Operand, sz Size) bool {
	op.acc = 1
	if sz == Long {
		op.acc = 2
	}
	switch o.Mode {
	case ModeIndirect:
		op.memMode, op.mreg = ModeIndirect, o.Reg
	case ModePostInc:
		op.memMode, op.mreg = ModePostInc, o.Reg
		op.inc = incBytes(o.Reg, sz)
	case ModePreDec:
		op.memMode, op.mreg = ModePreDec, o.Reg
		op.inc = incBytes(o.Reg, sz)
	case ModeDisp:
		op.memMode, op.mreg = ModeDisp, o.Reg
		op.disp = o.Val
	case ModeAbs:
		op.memMode, op.disp = ModeAbs, o.Val
	default:
		return false
	}
	return true
}

// regOrImm reports whether an operand is a register or immediate
// source the specialized ops can read without a bus access.
func regOrImm(o Operand) bool {
	switch o.Mode {
	case ModeDataReg, ModeAddrReg, ModeImm:
		return true
	}
	return false
}

// compileOp lowers one instruction to its micro-op. Unhandled forms
// keep skGeneric and execute through the exec-table handler.
func compileOp(in *Instr, e *execEntry) superOp {
	op := superOp{
		kind: skGeneric, size: in.Size, cond: in.Cond, op8: in.Op,
		region: in.Region, base: e.base, words: e.words, fn: e.fn, in: in,
	}
	setSrc := func(o Operand) {
		op.srcMode, op.mreg, op.imm = o.Mode, o.Reg, uint32(o.Val)
	}
	switch in.Op {
	case NOP:
		op.kind = skNop
	case MOVE:
		switch {
		case regOrImm(in.Src) && in.Dst.Mode == ModeDataReg:
			op.kind = skMoveRR
			setSrc(in.Src)
			op.reg = in.Dst.Reg
		case in.Src.IsMem() && in.Dst.Mode == ModeDataReg:
			if setMem(&op, in.Src, in.Size) {
				op.kind = skMoveMR
				op.reg = in.Dst.Reg
			}
		case regOrImm(in.Src) && in.Dst.IsMem():
			srcMode, srcReg, srcImm := in.Src.Mode, in.Src.Reg, uint32(in.Src.Val)
			if setMem(&op, in.Dst, in.Size) {
				op.kind = skMoveRM
				op.srcMode, op.reg, op.imm = srcMode, srcReg, srcImm
			}
		}
	case MOVEA:
		if regOrImm(in.Src) {
			op.kind = skMoveaR
			setSrc(in.Src)
			op.reg = in.Dst.Reg
		} else if setMem(&op, in.Src, in.Size) {
			op.kind = skMoveaM
			op.reg = in.Dst.Reg
		}
	case MOVEQ:
		op.kind = skMoveq
		op.imm = uint32(in.Src.Val)
		op.reg = in.Dst.Reg
	case LEA:
		switch in.Src.Mode {
		case ModeIndirect, ModeDisp, ModeAbs:
			if setMem(&op, in.Src, Long) {
				op.kind = skLea
				op.reg = in.Dst.Reg
			}
		}
	case CLR:
		if in.Dst.Mode == ModeDataReg {
			op.kind = skClrD
			op.reg = in.Dst.Reg
		} else if setMem(&op, in.Dst, in.Size) {
			op.kind = skClrM
		}
	case ADD, SUB, AND, OR, EOR, ADDI, SUBI, ANDI, ORI, EORI:
		switch {
		case regOrImm(in.Src) && in.Dst.Mode == ModeDataReg:
			op.kind = skAluRR
			setSrc(in.Src)
			op.reg = in.Dst.Reg
		case in.Src.IsMem() && in.Dst.Mode == ModeDataReg:
			if setMem(&op, in.Src, in.Size) {
				op.kind = skAluMR
				op.reg = in.Dst.Reg
			}
		case regOrImm(in.Src) && in.Dst.IsMem():
			srcMode, srcReg, srcImm := in.Src.Mode, in.Src.Reg, uint32(in.Src.Val)
			if setMem(&op, in.Dst, in.Size) {
				op.kind = skAluM
				op.srcMode, op.reg, op.imm = srcMode, srcReg, srcImm
			}
		}
	case ADDQ, SUBQ:
		if in.Dst.Mode == ModeAddrReg {
			op.kind = skQuickA
			op.imm = uint32(in.Src.Val)
			op.reg = in.Dst.Reg
		} else if in.Dst.Mode == ModeDataReg {
			op.kind = skAluRR
			setSrc(in.Src)
			op.reg = in.Dst.Reg
		} else if setMem(&op, in.Dst, in.Size) {
			op.kind = skAluM
			op.srcMode, op.imm = ModeImm, uint32(in.Src.Val)
		}
	case CMP, CMPI:
		if in.Dst.Mode == ModeDataReg {
			if regOrImm(in.Src) {
				op.kind = skCmpR
				setSrc(in.Src)
				op.reg = in.Dst.Reg
			} else if setMem(&op, in.Src, in.Size) {
				op.kind = skCmpM
				op.reg = in.Dst.Reg
			}
		}
	case ADDA, SUBA:
		if regOrImm(in.Src) {
			op.kind = skAddaR
			setSrc(in.Src)
			op.reg = in.Dst.Reg
		} else if setMem(&op, in.Src, in.Size) {
			op.kind = skAddaM
			op.reg = in.Dst.Reg
		}
	case TST:
		if in.Dst.Mode == ModeDataReg {
			op.kind = skTstD
			op.reg = in.Dst.Reg
		} else if in.Dst.IsMem() && setMem(&op, in.Dst, in.Size) {
			op.kind = skTstM
		}
	case MULU:
		if in.Src.Mode == ModeDataReg && in.Dst.Mode == ModeDataReg {
			op.kind = skMulu
			op.mreg = in.Src.Reg
			op.reg = in.Dst.Reg
		}
	case DBCC:
		if in.Dst.Mode == ModeLabel {
			op.kind = skDBcc
			op.reg = in.Src.Reg
			op.target = in.Dst.Val
		}
	case BCC:
		if in.Dst.Mode == ModeLabel {
			op.kind = skBcc
			op.target = in.Dst.Val
		}
	case JMP:
		if in.Dst.Mode == ModeLabel {
			op.kind = skJmp
			op.target = in.Dst.Val
		}
	}
	return op
}

// superAddr resolves a micro-op's pre-decoded memory operand to an
// address (the pre-decrement form addresses below the register, which
// is only written back on success).
func (c *CPU) superAddr(op *superOp) uint32 {
	switch op.memMode {
	case ModeIndirect, ModePostInc:
		return c.A[op.mreg]
	case ModePreDec:
		return c.A[op.mreg] - uint32(op.inc)
	case ModeDisp:
		return uint32(int64(c.A[op.mreg]) + int64(op.disp))
	default: // ModeAbs
		return uint32(op.disp)
	}
}

// superIncDec applies a post-increment/pre-decrement register update
// after the access is certain to have completed.
func (c *CPU) superIncDec(op *superOp) {
	switch op.memMode {
	case ModePostInc:
		c.A[op.mreg] += uint32(op.inc)
	case ModePreDec:
		c.A[op.mreg] -= uint32(op.inc)
	}
}

// superSrc reads a register/immediate source operand (masked to
// size), mirroring opRead's register arms. reg is passed explicitly
// because kinds with a memory destination keep their source register
// in op.reg (op.mreg holds the address base), while register-only
// kinds keep it in op.mreg.
func (c *CPU) superSrc(op *superOp, reg uint8) uint32 {
	switch op.srcMode {
	case ModeDataReg:
		return mask(c.D[reg], op.size)
	case ModeAddrReg:
		return mask(c.A[reg], op.size)
	default: // ModeImm
		return mask(op.imm, op.size)
	}
}

// scommit finalizes a specialized micro-op (no staged state to
// commit; specialized ops apply register updates only on success).
func (c *CPU) scommit(op *superOp, pc int, cycles int64, next int) Status {
	c.Clock += cycles
	c.Regions[op.region] += cycles
	c.InstrCount++
	c.PC = next
	if c.Trace != nil {
		c.Trace(op.in, pc, c.Clock, cycles)
	}
	return StatusOK
}

// sfallback dispatches the instruction's exec-table handler: the
// generic micro-op, and the escape hatch specialized ops take before
// mutating state when they meet a device address or a memory fault,
// so blocking, retries and error text match the Step path exactly.
func (c *CPU) sfallback(op *superOp, fetch int64, next int) Status {
	c.lastLoadWasDev = false
	return op.fn(c, op.in, op.base+fetch, fetch, next)
}

// execSuperOp executes one micro-op. pc is the instruction's index
// (for trace callbacks), fetch the already-charged fetch penalty,
// next the fall-through PC. It mirrors handler semantics exactly; see
// the package comment for the equivalence argument.
func (c *CPU) execSuperOp(op *superOp, pc int, fetch int64, next int) Status {
	cycles := op.base + fetch
	switch op.kind {
	case skNop:
		return c.scommit(op, pc, cycles, next)

	case skMoveRR:
		v := c.superSrc(op, op.mreg)
		c.N, c.Z, c.V, c.C = v&signBit(op.size) != 0, v == 0, false, false
		c.D[op.reg] = merge(c.D[op.reg], v, op.size)
		return c.scommit(op, pc, cycles, next)

	case skMoveMR:
		addr := c.superAddr(op)
		if addr >= DeviceBase {
			return c.sfallback(op, fetch, next)
		}
		v, err := c.Mem.Read(addr, op.size)
		if err != nil {
			return c.sfallback(op, fetch, next)
		}
		cycles += c.Mem.Penalty(c.Clock, op.acc)
		c.N, c.Z, c.V, c.C = v&signBit(op.size) != 0, v == 0, false, false
		c.D[op.reg] = merge(c.D[op.reg], v, op.size)
		c.superIncDec(op)
		return c.scommit(op, pc, cycles, next)

	case skMoveRM:
		v := c.superSrc(op, op.reg)
		addr := c.superAddr(op)
		if addr >= DeviceBase {
			return c.sfallback(op, fetch, next)
		}
		if err := c.Mem.Write(addr, op.size, v); err != nil {
			return c.sfallback(op, fetch, next)
		}
		cycles += c.Mem.Penalty(c.Clock, op.acc)
		c.N, c.Z, c.V, c.C = v&signBit(op.size) != 0, v == 0, false, false
		c.superIncDec(op)
		return c.scommit(op, pc, cycles, next)

	case skMoveaR:
		c.A[op.reg] = signExtTo32(c.superSrc(op, op.mreg), op.size)
		return c.scommit(op, pc, cycles, next)

	case skMoveaM:
		addr := c.superAddr(op)
		if addr >= DeviceBase {
			return c.sfallback(op, fetch, next)
		}
		v, err := c.Mem.Read(addr, op.size)
		if err != nil {
			return c.sfallback(op, fetch, next)
		}
		cycles += c.Mem.Penalty(c.Clock, op.acc)
		c.A[op.reg] = signExtTo32(v, op.size)
		c.superIncDec(op)
		return c.scommit(op, pc, cycles, next)

	case skMoveq:
		v := op.imm
		c.D[op.reg] = v
		c.N, c.Z, c.V, c.C = v&0x80000000 != 0, v == 0, false, false
		return c.scommit(op, pc, cycles, next)

	case skLea:
		c.A[op.reg] = c.superAddr(op)
		return c.scommit(op, pc, cycles, next)

	case skClrD:
		c.D[op.reg] = merge(c.D[op.reg], 0, op.size)
		c.N, c.Z, c.V, c.C = false, true, false, false
		return c.scommit(op, pc, cycles, next)

	case skClrM:
		addr := c.superAddr(op)
		if addr >= DeviceBase {
			return c.sfallback(op, fetch, next)
		}
		if err := c.Mem.Write(addr, op.size, 0); err != nil {
			return c.sfallback(op, fetch, next)
		}
		cycles += c.Mem.Penalty(c.Clock, op.acc)
		c.N, c.Z, c.V, c.C = false, true, false, false
		c.superIncDec(op)
		return c.scommit(op, pc, cycles, next)

	case skAluRR:
		src := c.superSrc(op, op.mreg)
		old := mask(c.D[op.reg], op.size)
		r, f := aluOp(op.op8, old, src, op.size)
		c.D[op.reg] = merge(c.D[op.reg], r, op.size)
		c.applyFlags(f)
		return c.scommit(op, pc, cycles, next)

	case skAluMR:
		addr := c.superAddr(op)
		if addr >= DeviceBase {
			return c.sfallback(op, fetch, next)
		}
		src, err := c.Mem.Read(addr, op.size)
		if err != nil {
			return c.sfallback(op, fetch, next)
		}
		cycles += c.Mem.Penalty(c.Clock, op.acc)
		old := mask(c.D[op.reg], op.size)
		r, f := aluOp(op.op8, old, src, op.size)
		c.D[op.reg] = merge(c.D[op.reg], r, op.size)
		c.applyFlags(f)
		c.superIncDec(op)
		return c.scommit(op, pc, cycles, next)

	case skAluM:
		src := c.superSrc(op, op.reg)
		addr := c.superAddr(op)
		if addr >= DeviceBase {
			return c.sfallback(op, fetch, next) // reference rejects device RMW
		}
		old, err := c.Mem.Read(addr, op.size)
		if err != nil {
			return c.sfallback(op, fetch, next)
		}
		r, f := aluOp(op.op8, old, src, op.size)
		if err := c.Mem.Write(addr, op.size, mask(r, op.size)); err != nil {
			return c.sfallback(op, fetch, next)
		}
		cycles += c.Mem.Penalty(c.Clock, 2*op.acc)
		c.applyFlags(f)
		c.superIncDec(op)
		return c.scommit(op, pc, cycles, next)

	case skCmpR:
		src := c.superSrc(op, op.mreg)
		dst := mask(c.D[op.reg], op.size)
		f := subFlags(dst, src, dst-src, op.size)
		f.setX = false
		c.applyFlags(f)
		return c.scommit(op, pc, cycles, next)

	case skCmpM:
		addr := c.superAddr(op)
		if addr >= DeviceBase {
			return c.sfallback(op, fetch, next)
		}
		src, err := c.Mem.Read(addr, op.size)
		if err != nil {
			return c.sfallback(op, fetch, next)
		}
		cycles += c.Mem.Penalty(c.Clock, op.acc)
		dst := mask(c.D[op.reg], op.size)
		f := subFlags(dst, src, dst-src, op.size)
		f.setX = false
		c.applyFlags(f)
		c.superIncDec(op)
		return c.scommit(op, pc, cycles, next)

	case skAddaR:
		s32 := signExtTo32(c.superSrc(op, op.mreg), op.size)
		if op.op8 == ADDA {
			c.A[op.reg] += s32
		} else {
			c.A[op.reg] -= s32
		}
		return c.scommit(op, pc, cycles, next)

	case skAddaM:
		addr := c.superAddr(op)
		if addr >= DeviceBase {
			return c.sfallback(op, fetch, next)
		}
		v, err := c.Mem.Read(addr, op.size)
		if err != nil {
			return c.sfallback(op, fetch, next)
		}
		cycles += c.Mem.Penalty(c.Clock, op.acc)
		s32 := signExtTo32(v, op.size)
		if op.op8 == ADDA {
			c.A[op.reg] += s32
		} else {
			c.A[op.reg] -= s32
		}
		c.superIncDec(op)
		return c.scommit(op, pc, cycles, next)

	case skQuickA:
		if op.op8 == ADDQ {
			c.A[op.reg] += op.imm
		} else {
			c.A[op.reg] -= op.imm
		}
		return c.scommit(op, pc, cycles, next)

	case skTstD:
		v := mask(c.D[op.reg], op.size)
		c.N, c.Z, c.V, c.C = v&signBit(op.size) != 0, v == 0, false, false
		return c.scommit(op, pc, cycles, next)

	case skTstM:
		addr := c.superAddr(op)
		if addr >= DeviceBase {
			return c.sfallback(op, fetch, next)
		}
		v, err := c.Mem.Read(addr, op.size)
		if err != nil {
			return c.sfallback(op, fetch, next)
		}
		cycles += c.Mem.Penalty(c.Clock, op.acc)
		c.N, c.Z, c.V, c.C = v&signBit(op.size) != 0, v == 0, false, false
		c.superIncDec(op)
		return c.scommit(op, pc, cycles, next)

	case skMulu, skMuluRun:
		src := mask(c.D[op.mreg], Word)
		if c.FixedMulCycles > 0 {
			cycles += c.FixedMulCycles
		} else {
			cycles += MuluCycles(uint16(src))
		}
		r := mask(c.D[op.reg], Word) * src
		c.D[op.reg] = r
		c.N, c.Z, c.V, c.C = r&0x80000000 != 0, r == 0, false, false
		return c.scommit(op, pc, cycles, next)

	case skDBcc:
		// Variant times rebuilt from the fetch penalty, mirroring
		// execDBcc (the static base is ignored).
		if c.condTrue(op.cond) {
			return c.scommit(op, pc, 12+fetch, next)
		}
		cnt := uint16(c.D[op.reg]) - 1
		c.D[op.reg] = merge(c.D[op.reg], uint32(cnt), Word)
		if cnt == 0xFFFF {
			return c.scommit(op, pc, 14+fetch, next)
		}
		return c.scommit(op, pc, 10+fetch, int(op.target))

	case skBcc:
		if c.condTrue(op.cond) {
			return c.scommit(op, pc, cycles, int(op.target))
		}
		if op.words == 2 {
			return c.scommit(op, pc, cycles+2, next)
		}
		return c.scommit(op, pc, cycles-2, next)

	case skJmp:
		return c.scommit(op, pc, cycles, int(op.target))

	default: // skGeneric
		return c.sfallback(op, fetch, next)
	}
}

// runSuper is the superinstruction execution engine behind CPU.Run:
// per-instruction dispatch through pre-decoded micro-ops, with fused
// runs of identical MULUs executed as one superinstruction. The fetch
// penalty is charged before each micro-op exactly as Step charges it
// (so a blocked instruction still advances the refresh phase), and
// the step budget counts executed instructions one-for-one with the
// Step path.
func (c *CPU) runSuper(maxSteps int64) Status {
	if c.Halted {
		return StatusHalted
	}
	if c.Err != nil {
		return StatusError
	}
	if c.sup == nil {
		c.sup = c.Prog.super()
	}
	sup := c.sup
	mem := c.Mem
	fetchMem := c.FetchFromMem
	var steps int64
	for steps < maxSteps {
		pc := c.PC
		if uint(pc) >= uint(len(sup)) {
			return c.Step() // out of range: identical error path
		}
		op := &sup[pc]
		if op.kind == skMuluRun && c.Trace == nil {
			// Fused run of identical MULUs: the source register is
			// invariant, so its data-dependent time is evaluated once;
			// per-instruction fetch penalties still walk the refresh
			// phase. Flags interior to the run are dead (each MULU
			// overwrites them; X is never touched), so only the final
			// NZVC are materialized.
			n := int64(op.runLen)
			if rem := maxSteps - steps; n > rem {
				n = rem
			}
			src := c.D[op.mreg] & 0xFFFF
			mt := c.FixedMulCycles
			if mt <= 0 {
				mt = MuluCycles(uint16(src))
			}
			per := op.base + mt
			clock := c.Clock
			d := c.D[op.reg]
			if fetchMem {
				for i := int64(0); i < n; i++ {
					clock += per + mem.Penalty(clock, op.words)
					d = (d & 0xFFFF) * src
				}
			} else {
				for i := int64(0); i < n; i++ {
					d = (d & 0xFFFF) * src
				}
				clock += per * n
			}
			c.Regions[op.region] += clock - c.Clock
			c.Clock = clock
			c.InstrCount += n
			c.PC = pc + int(n)
			c.D[op.reg] = d
			c.N, c.Z, c.V, c.C = d&0x80000000 != 0, d == 0, false, false
			steps += n
			continue
		}
		if op.loopEnd != 0 && c.Trace == nil {
			if op.kern {
				if n := c.runKernelLoop(sup, pc, int(op.loopEnd), maxSteps-steps); n > 0 {
					steps += n
					continue
				}
				// Partial iteration (budget, fault or device): fall
				// through to the per-member loop executor.
			}
			if n := c.runLoop(sup, pc, int(op.loopEnd), maxSteps-steps); n > 0 {
				steps += n
				continue
			}
			// The first member needs the slow path right now (device
			// address or fault): dispatch it below.
		}
		var fetch int64
		if fetchMem {
			fetch = mem.Penalty(c.Clock, op.words)
		}
		st := c.execSuperOp(op, pc, fetch, pc+1)
		steps++
		if st != StatusOK {
			return st
		}
	}
	return StatusOK
}

// memOK reports whether a direct data access is aligned and in bounds
// (the fast-path guard mirroring Memory.check; any failure bails to
// the slow path, which reproduces the exact error).
func memOK(n uint32, addr uint32, sz Size) bool {
	if sz != Byte && addr&1 != 0 {
		return false
	}
	end := addr + sz.Bytes()
	return end >= addr && end <= n
}

// memLoad reads big-endian data directly (caller has run memOK).
func memLoad(data []byte, addr uint32, sz Size) uint32 {
	switch sz {
	case Byte:
		return uint32(data[addr])
	case Word:
		return uint32(data[addr])<<8 | uint32(data[addr+1])
	default:
		return uint32(data[addr])<<24 | uint32(data[addr+1])<<16 |
			uint32(data[addr+2])<<8 | uint32(data[addr+3])
	}
}

// memStore writes big-endian data directly (caller has run memOK).
func memStore(data []byte, addr uint32, sz Size, val uint32) {
	switch sz {
	case Byte:
		data[addr] = byte(val)
	case Word:
		data[addr] = byte(val >> 8)
		data[addr+1] = byte(val)
	default:
		data[addr] = byte(val >> 24)
		data[addr+1] = byte(val >> 16)
		data[addr+2] = byte(val >> 8)
		data[addr+3] = byte(val)
	}
}

// runLoop is the loop superinstruction executor: it interprets a
// self-loop block (body of whitelisted micro-ops ending in a DBcc back
// to the block start) in a single tight loop with the memory model's
// wait-state/refresh arithmetic inlined and data accessed directly,
// eliminating per-instruction dispatch. It is entered only with the
// trace callback off; all other semantics — penalty call
// order (fetch then data, both at the instruction-start clock), refresh
// phase evolution, flag materialization, region charges, step budget —
// are identical to execSuperOp, which the differential tests verify.
//
// Any member that needs the slow path (device-window address, fault,
// or a fused run exceeding the remaining budget) makes runLoop flush
// its locals and return with c.PC at that member, before any of the
// member's state (including the refresh phase walked by its fetch
// penalty) has been touched; the caller re-dispatches it exactly as
// the reference path would have executed it. The return value is the
// number of instructions executed (0 = immediate bail: the caller must
// dispatch c.PC itself to guarantee progress).
func (c *CPU) runLoop(sup []superOp, start, end int, budget int64) int64 {
	mem := c.Mem
	data := mem.data
	msize := uint32(len(data))
	ws := mem.WaitStates
	rp := mem.RefreshPeriod
	rs := mem.RefreshStall
	nref := mem.nextRefresh
	clock := c.Clock
	fetchMem := c.FetchFromMem
	var steps, instrs int64
	pc := start

loop:
	for steps < budget {
		op := &sup[pc]
		var cyc int64
		switch op.kind {
		case skDBcc:
			var fetch int64
			if fetchMem {
				fetch = ws * op.words
				if rp > 0 && clock >= nref {
					fetch += rs
					nref = clock + rp
				}
			}
			instrs++
			steps++
			if c.condTrue(op.cond) {
				cyc = 12 + fetch
				clock += cyc
				c.Regions[op.region] += cyc
				pc = end + 1
				break loop
			}
			cnt := uint16(c.D[op.reg]) - 1
			c.D[op.reg] = merge(c.D[op.reg], uint32(cnt), Word)
			if cnt == 0xFFFF {
				cyc = 14 + fetch
				clock += cyc
				c.Regions[op.region] += cyc
				pc = end + 1
				break loop
			}
			cyc = 10 + fetch
			clock += cyc
			c.Regions[op.region] += cyc
			pc = start
			continue

		case skMuluRun:
			n := int64(op.runLen)
			if steps+n > budget {
				break loop // partial run: let the caller's fused path clamp it
			}
			src := c.D[op.mreg] & 0xFFFF
			mt := c.FixedMulCycles
			if mt <= 0 {
				mt = MuluCycles(uint16(src))
			}
			per := op.base + mt
			before := clock
			d := c.D[op.reg]
			if fetchMem {
				for i := int64(0); i < n; i++ {
					f := ws * op.words
					if rp > 0 && clock >= nref {
						f += rs
						nref = clock + rp
					}
					clock += per + f
					d = (d & 0xFFFF) * src
				}
			} else {
				for i := int64(0); i < n; i++ {
					d = (d & 0xFFFF) * src
				}
				clock += per * n
			}
			c.Regions[op.region] += clock - before
			c.D[op.reg] = d
			c.N, c.Z, c.V, c.C = d&0x80000000 != 0, d == 0, false, false
			instrs += n
			steps += n
			pc += int(n)
			continue

		case skMulu:
			src := c.D[op.mreg] & 0xFFFF
			var fetch int64
			if fetchMem {
				fetch = ws * op.words
				if rp > 0 && clock >= nref {
					fetch += rs
					nref = clock + rp
				}
			}
			cyc = op.base + fetch
			if c.FixedMulCycles > 0 {
				cyc += c.FixedMulCycles
			} else {
				cyc += MuluCycles(uint16(src))
			}
			r := (c.D[op.reg] & 0xFFFF) * src
			c.D[op.reg] = r
			c.N, c.Z, c.V, c.C = r&0x80000000 != 0, r == 0, false, false

		case skMoveMR:
			addr := c.superAddr(op)
			if addr >= DeviceBase || !memOK(msize, addr, op.size) {
				break loop
			}
			var fetch int64
			if fetchMem {
				fetch = ws * op.words
				if rp > 0 && clock >= nref {
					fetch += rs
					nref = clock + rp
				}
			}
			cyc = op.base + fetch + ws*op.acc
			if rp > 0 && clock >= nref {
				cyc += rs
				nref = clock + rp
			}
			v := memLoad(data, addr, op.size)
			c.N, c.Z, c.V, c.C = v&signBit(op.size) != 0, v == 0, false, false
			c.D[op.reg] = merge(c.D[op.reg], v, op.size)
			c.superIncDec(op)

		case skMoveRM:
			v := c.superSrc(op, op.reg)
			addr := c.superAddr(op)
			if addr >= DeviceBase || !memOK(msize, addr, op.size) {
				break loop
			}
			var fetch int64
			if fetchMem {
				fetch = ws * op.words
				if rp > 0 && clock >= nref {
					fetch += rs
					nref = clock + rp
				}
			}
			cyc = op.base + fetch + ws*op.acc
			if rp > 0 && clock >= nref {
				cyc += rs
				nref = clock + rp
			}
			memStore(data, addr, op.size, v)
			c.N, c.Z, c.V, c.C = v&signBit(op.size) != 0, v == 0, false, false
			c.superIncDec(op)

		case skClrM:
			addr := c.superAddr(op)
			if addr >= DeviceBase || !memOK(msize, addr, op.size) {
				break loop
			}
			var fetch int64
			if fetchMem {
				fetch = ws * op.words
				if rp > 0 && clock >= nref {
					fetch += rs
					nref = clock + rp
				}
			}
			cyc = op.base + fetch + ws*op.acc
			if rp > 0 && clock >= nref {
				cyc += rs
				nref = clock + rp
			}
			memStore(data, addr, op.size, 0)
			c.N, c.Z, c.V, c.C = false, true, false, false
			c.superIncDec(op)

		case skAluMR:
			addr := c.superAddr(op)
			if addr >= DeviceBase || !memOK(msize, addr, op.size) {
				break loop
			}
			var fetch int64
			if fetchMem {
				fetch = ws * op.words
				if rp > 0 && clock >= nref {
					fetch += rs
					nref = clock + rp
				}
			}
			cyc = op.base + fetch + ws*op.acc
			if rp > 0 && clock >= nref {
				cyc += rs
				nref = clock + rp
			}
			src := memLoad(data, addr, op.size)
			old := mask(c.D[op.reg], op.size)
			r, f := aluOp(op.op8, old, src, op.size)
			c.D[op.reg] = merge(c.D[op.reg], r, op.size)
			c.applyFlags(f)
			c.superIncDec(op)

		case skAluM:
			src := c.superSrc(op, op.reg)
			addr := c.superAddr(op)
			if addr >= DeviceBase || !memOK(msize, addr, op.size) {
				break loop
			}
			var fetch int64
			if fetchMem {
				fetch = ws * op.words
				if rp > 0 && clock >= nref {
					fetch += rs
					nref = clock + rp
				}
			}
			old := memLoad(data, addr, op.size)
			var rm uint32
			sb := signBit(op.size)
			switch op.op8 {
			case ADD, ADDI, ADDQ:
				// aluOp+addFlags inlined (operands arrive masked).
				rm = mask(old+src, op.size)
				c.N, c.Z = rm&sb != 0, rm == 0
				c.V = (old&sb == src&sb) && (rm&sb != old&sb)
				c.C = uint64(old)+uint64(src) > uint64(mask(^uint32(0), op.size))
				c.X = c.C
			case SUB, SUBI, SUBQ:
				rm = mask(old-src, op.size)
				c.N, c.Z = rm&sb != 0, rm == 0
				c.V = (old&sb != src&sb) && (rm&sb == src&sb)
				c.C = src > old
				c.X = c.C
			default:
				r, f := aluOp(op.op8, old, src, op.size)
				rm = mask(r, op.size)
				c.applyFlags(f)
			}
			memStore(data, addr, op.size, rm)
			cyc = op.base + fetch + ws*2*op.acc
			if rp > 0 && clock >= nref {
				cyc += rs
				nref = clock + rp
			}
			c.superIncDec(op)

		case skMoveRR:
			v := c.superSrc(op, op.mreg)
			var fetch int64
			if fetchMem {
				fetch = ws * op.words
				if rp > 0 && clock >= nref {
					fetch += rs
					nref = clock + rp
				}
			}
			cyc = op.base + fetch
			c.N, c.Z, c.V, c.C = v&signBit(op.size) != 0, v == 0, false, false
			c.D[op.reg] = merge(c.D[op.reg], v, op.size)

		case skAluRR:
			var fetch int64
			if fetchMem {
				fetch = ws * op.words
				if rp > 0 && clock >= nref {
					fetch += rs
					nref = clock + rp
				}
			}
			cyc = op.base + fetch
			src := c.superSrc(op, op.mreg)
			old := mask(c.D[op.reg], op.size)
			var r uint32
			sb := signBit(op.size)
			switch op.op8 {
			case ADD, ADDI, ADDQ:
				r = old + src
				rm := mask(r, op.size)
				c.N, c.Z = rm&sb != 0, rm == 0
				c.V = (old&sb == src&sb) && (rm&sb != old&sb)
				c.C = uint64(old)+uint64(src) > uint64(mask(^uint32(0), op.size))
				c.X = c.C
			case SUB, SUBI, SUBQ:
				r = old - src
				rm := mask(r, op.size)
				c.N, c.Z = rm&sb != 0, rm == 0
				c.V = (old&sb != src&sb) && (rm&sb == src&sb)
				c.C = src > old
				c.X = c.C
			default:
				var f flags
				r, f = aluOp(op.op8, old, src, op.size)
				c.applyFlags(f)
			}
			c.D[op.reg] = merge(c.D[op.reg], r, op.size)

		default:
			// The remaining whitelisted kinds are register-only and
			// rare inside hot loops; charge the fetch penalty here and
			// dispatch the shared micro-op executor (which cannot bail
			// for these kinds).
			var fetch int64
			if fetchMem {
				fetch = ws * op.words
				if rp > 0 && clock >= nref {
					fetch += rs
					nref = clock + rp
				}
			}
			// Flush clock state so the executor sees it, then resync.
			mem.nextRefresh = nref
			c.Clock = clock
			c.execSuperOp(op, pc, fetch, pc+1)
			clock = c.Clock
			nref = mem.nextRefresh
			instrs++ // execSuperOp bumped InstrCount; offset the flush delta
			c.InstrCount--
			steps++
			pc++
			continue
		}
		clock += cyc
		c.Regions[op.region] += cyc
		instrs++
		steps++
		pc++
	}

	mem.nextRefresh = nref
	c.Clock = clock
	c.InstrCount += instrs
	c.PC = pc
	return steps
}

// runKernelLoop executes whole iterations of a kernelShape block (see
// there for the shape and its invariants) with every loop-carried value
// in a local: the two walking pointers, the product register, the chain
// register, the counter, the clock/refresh pair, and the flags (only
// the iteration's last writers are materialized — the interior writes
// are dead because DBRA reads no flags). The multiplier's MULU time is
// computed once, outside the loop.
//
// An iteration runs only when both memory operands pre-check clean
// (non-device, aligned, in bounds) and the budget covers the full
// iteration; otherwise the executor flushes with c.PC still at the
// block start and the caller's generic paths (runLoop, then
// per-instruction dispatch) take over, so every bail, fault and
// partial-budget case goes through the reference machinery. Cycle
// arithmetic is member-by-member in program order, identical to
// execSuperOp's.
func (c *CPU) runKernelLoop(sup []superOp, start, end int, budget int64) int64 {
	m0, m1, m2, db := &sup[start], &sup[start+1], &sup[start+2], &sup[end]
	tail := sup[start+3 : end]
	perIter := int64(end - start + 1)

	mem := c.Mem
	data := mem.data
	msize := uint32(len(data))
	ws := mem.WaitStates
	rp := mem.RefreshPeriod
	rs := mem.RefreshStall
	nref := mem.nextRefresh
	clock := c.Clock
	clock0 := clock
	fetchMem := c.FetchFromMem

	src := c.D[m1.mreg] & 0xFFFF // loop-invariant multiplier
	mt := c.FixedMulCycles
	if mt <= 0 {
		mt = MuluCycles(uint16(src))
	}
	a0 := c.A[m0.mreg]
	a1 := c.A[m2.mreg]
	d0 := c.D[m0.reg]
	cnt := c.D[db.reg]
	var dch uint32
	if len(tail) > 0 {
		dch = c.D[tail[0].reg]
	}
	var nf, zf, vf, cf, xf bool
	var steps int64
	exit := false

	for steps+perIter <= budget {
		if a0 >= DeviceBase || a0&1 != 0 || a0+2 > msize ||
			a1 >= DeviceBase || a1&1 != 0 || a1+2 > msize {
			break // let the generic path run (and bail inside) this iteration
		}
		// move.w (a0)+, d0
		cyc := m0.base
		if fetchMem {
			cyc += ws * m0.words
			if rp > 0 && clock >= nref {
				cyc += rs
				nref = clock + rp
			}
		}
		cyc += ws // one data access
		if rp > 0 && clock >= nref {
			cyc += rs
			nref = clock + rp
		}
		d0 = d0&^0xFFFF | uint32(data[a0])<<8 | uint32(data[a0+1])
		a0 += uint32(m0.inc)
		clock += cyc
		// mulu.w dR, d0
		cyc = m1.base + mt
		if fetchMem {
			cyc += ws * m1.words
			if rp > 0 && clock >= nref {
				cyc += rs
				nref = clock + rp
			}
		}
		d0 = (d0 & 0xFFFF) * src
		clock += cyc
		// add.w d0, (a1)+
		cyc = m2.base
		if fetchMem {
			cyc += ws * m2.words
			if rp > 0 && clock >= nref {
				cyc += rs
				nref = clock + rp
			}
		}
		cyc += ws * 2 // read-modify-write: two data accesses
		if rp > 0 && clock >= nref {
			cyc += rs
			nref = clock + rp
		}
		s2 := d0 & 0xFFFF
		old := uint32(data[a1])<<8 | uint32(data[a1+1])
		rm := (old + s2) & 0xFFFF
		data[a1] = byte(rm >> 8)
		data[a1+1] = byte(rm)
		a1 += uint32(m2.inc)
		nf, zf = rm&0x8000 != 0, rm == 0
		vf = (old&0x8000 == s2&0x8000) && (rm&0x8000 != old&0x8000)
		cf = old+s2 > 0xFFFF
		xf = cf
		clock += cyc
		// muls chain (flags land on the final product below)
		for j := range tail {
			t := &tail[j]
			cyc = t.base + mt
			if fetchMem {
				cyc += ws * t.words
				if rp > 0 && clock >= nref {
					cyc += rs
					nref = clock + rp
				}
			}
			dch = (dch & 0xFFFF) * src
			clock += cyc
		}
		if len(tail) > 0 {
			nf, zf, vf, cf = dch&0x80000000 != 0, dch == 0, false, false
		}
		// dbra dC, <start>
		cyc = 10
		if fetchMem {
			cyc += ws * db.words
			if rp > 0 && clock >= nref {
				cyc += rs
				nref = clock + rp
			}
		}
		c16 := uint16(cnt) - 1
		cnt = cnt&^0xFFFF | uint32(c16)
		steps += perIter
		if c16 == 0xFFFF {
			clock += cyc + 4 // exit variant: 14 + fetch
			exit = true
			break
		}
		clock += cyc
	}

	mem.nextRefresh = nref
	c.Regions[m0.region] += clock - clock0
	c.Clock = clock
	c.A[m0.mreg] = a0
	c.A[m2.mreg] = a1
	c.D[m0.reg] = d0
	c.D[db.reg] = cnt
	if len(tail) > 0 {
		c.D[tail[0].reg] = dch
	}
	c.InstrCount += steps
	if steps > 0 {
		c.N, c.Z, c.V, c.C, c.X = nf, zf, vf, cf, xf
	}
	if exit {
		c.PC = end + 1
	} else {
		c.PC = start
	}
	return steps
}

// ExecSuperAt is ExecBroadcastAt through the superinstruction tier:
// one broadcast-delivered instruction, no fetch penalty, the PASM
// lockstep executor's fast path. Fused MULU runs execute a single
// member (broadcast instructions are released one at a time).
func (c *CPU) ExecSuperAt(idx int) Status {
	if c.Halted {
		return StatusHalted
	}
	if c.Err != nil {
		return StatusError
	}
	if c.sup == nil {
		c.sup = c.Prog.super()
	}
	// Trace callbacks carry the PE's own PC (which counts broadcasts),
	// exactly as the reference broadcast path's commit does.
	return c.execSuperOp(&c.sup[idx], c.PC, 0, c.PC+1)
}
