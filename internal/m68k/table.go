package m68k

// Execution-table fast path: every assembled instruction's dispatch
// function, static cycle cost (base time plus EA timing), and fetch
// word count are pre-resolved into a flat per-program table, so the
// interpreter's inner loop is an index, a function call, and a cycle
// add. The table is built once per Program (lazily, under a sync.Once,
// so concurrently executing CPUs of a partition can share it) and is
// read-only afterwards.
//
// baseCycles and resolveHandler remain the single source of truth: the
// table caches their results, and CPU.DisableExecTable forces the
// per-step recomputation path so tests can prove the two agree.

// handler executes one pre-decoded instruction. cycles is the
// instruction's static base time plus the fetch penalty; fetch is the
// penalty alone (DBcc rebuilds its variant times from it); next is the
// fall-through PC.
type handler func(c *CPU, in *Instr, cycles, fetch int64, next int) Status

// execEntry is one instruction's pre-resolved execution state.
type execEntry struct {
	fn    handler
	base  int64 // static cycles: table time + EA components
	words int64 // instruction length in words (fetch penalty accesses)
}

// table returns the program's execution table, building it on first
// use. Programs are immutable after assembly/decoding, so the table is
// computed once and shared by every CPU executing the program.
func (p *Program) table() []execEntry {
	p.tabOnce.Do(func() {
		tab := make([]execEntry, len(p.Instrs))
		for i := range p.Instrs {
			in := &p.Instrs[i]
			tab[i] = execEntry{
				fn:    resolveHandler(in),
				base:  baseCycles(in),
				words: int64(in.Words),
			}
		}
		p.tab = tab
	})
	return p.tab
}

// resolveHandler maps an instruction to its dispatch function. The
// resolution depends only on static instruction fields, so it can be
// cached; forms whose execution path is statically known (quick
// arithmetic on address registers, the SIMD-space jump) resolve to
// specialized handlers.
func resolveHandler(in *Instr) handler {
	switch in.Op {
	case NOP:
		return execNOP
	case HALT:
		return execHALT
	case MOVE:
		return execMOVE
	case MOVEA:
		return execMOVEA
	case MOVEQ:
		return execMOVEQ
	case LEA:
		return execLEA
	case CLR:
		return execCLR
	case ADD, SUB, AND, OR, EOR, ADDI, SUBI, ANDI, ORI, EORI:
		return execALU2
	case ADDQ, SUBQ:
		if in.Dst.Mode == ModeAddrReg {
			return execQuickAddr
		}
		return execALU2
	case CMP, CMPI:
		return execCMP
	case CMPA:
		return execCMPA
	case ADDA, SUBA:
		return execADDA
	case NOT, NEG:
		return execALU1
	case TST:
		return execTST
	case MULU:
		return execMULU
	case MULS:
		return execMULS
	case DIVU:
		return execDIVU
	case LSL, LSR, ASL, ASR, ROL, ROR:
		return execShift
	case SWAP:
		return execSWAP
	case EXG:
		return execEXG
	case EXT:
		return execEXT
	case BCC:
		return execBcc
	case DBCC:
		return execDBcc
	case JMP:
		if in.Dst.Mode == ModeAbs && uint32(in.Dst.Val) >= DeviceBase {
			return execJmpSIMD
		}
		return execJMP
	case JSR:
		return execJSR
	case RTS:
		return execRTS
	case BTST, BSET, BCLR, BCHG:
		return execBitOp
	case BCAST:
		return execBCAST
	case SETMASK:
		return execSETMASK
	}
	return execUnimplemented
}

// The handlers below are the former arms of the interpreter's exec
// switch. Each must be free of side effects until it is certain the
// instruction completes (device accesses may refuse, after which the
// engine retries the same instruction); staged flag and pending
// address-register updates implement that.

func execNOP(c *CPU, in *Instr, cycles, _ int64, next int) Status {
	return c.commit(in, cycles, next)
}

func execHALT(c *CPU, in *Instr, cycles, _ int64, next int) Status {
	c.Halted = true
	c.commit(in, cycles, next)
	return StatusHalted
}

func execMOVE(c *CPU, in *Instr, cycles, _ int64, next int) Status {
	sz := in.Size
	v, blocked, err := c.opRead(in.Src, sz, &cycles)
	if blocked || err != nil {
		return c.bail(in, blocked, err)
	}
	f := nzFlags(v, sz)
	blocked, err = c.opWrite(in.Dst, sz, v, &cycles)
	if blocked || err != nil {
		return c.bail(in, blocked, err)
	}
	c.applyFlags(f)
	return c.commit(in, cycles, next)
}

func execMOVEA(c *CPU, in *Instr, cycles, _ int64, next int) Status {
	v, blocked, err := c.opRead(in.Src, in.Size, &cycles)
	if blocked || err != nil {
		return c.bail(in, blocked, err)
	}
	c.A[in.Dst.Reg] = signExtTo32(v, in.Size)
	return c.commit(in, cycles, next)
}

func execMOVEQ(c *CPU, in *Instr, cycles, _ int64, next int) Status {
	v := uint32(in.Src.Val) // sign-extended by the assembler range check
	c.D[in.Dst.Reg] = v
	c.applyFlags(nzFlags(v, Long))
	return c.commit(in, cycles, next)
}

func execLEA(c *CPU, in *Instr, cycles, _ int64, next int) Status {
	c.A[in.Dst.Reg] = c.ea(in.Src, Long)
	c.npend = 0 // LEA computes the address only
	return c.commit(in, cycles, next)
}

func execCLR(c *CPU, in *Instr, cycles, _ int64, next int) Status {
	blocked, err := c.opWrite(in.Dst, in.Size, 0, &cycles)
	if blocked || err != nil {
		return c.bail(in, blocked, err)
	}
	c.applyFlags(flags{z: true})
	return c.commit(in, cycles, next)
}

func execALU2(c *CPU, in *Instr, cycles, _ int64, next int) Status {
	return c.alu2(in, cycles, next)
}

// execQuickAddr is ADDQ/SUBQ to an address register: the quick forms
// act on all 32 bits and do not affect flags.
func execQuickAddr(c *CPU, in *Instr, cycles, _ int64, next int) Status {
	d := uint32(in.Src.Val)
	if in.Op == ADDQ {
		c.A[in.Dst.Reg] += d
	} else {
		c.A[in.Dst.Reg] -= d
	}
	return c.commit(in, cycles, next)
}

func execCMP(c *CPU, in *Instr, cycles, _ int64, next int) Status {
	sz := in.Size
	src, blocked, err := c.opRead(in.Src, sz, &cycles)
	if blocked || err != nil {
		return c.bail(in, blocked, err)
	}
	dst, blocked, err := c.opRead(in.Dst, sz, &cycles)
	if blocked || err != nil {
		return c.bail(in, blocked, err)
	}
	r := dst - src
	f := subFlags(dst, src, r, sz)
	f.setX = false // CMP does not touch X
	c.applyFlags(f)
	return c.commit(in, cycles, next)
}

func execCMPA(c *CPU, in *Instr, cycles, _ int64, next int) Status {
	src, blocked, err := c.opRead(in.Src, in.Size, &cycles)
	if blocked || err != nil {
		return c.bail(in, blocked, err)
	}
	s32 := signExtTo32(src, in.Size)
	d32 := c.A[in.Dst.Reg]
	r := d32 - s32
	f := subFlags(d32, s32, r, Long)
	f.setX = false
	c.applyFlags(f)
	return c.commit(in, cycles, next)
}

func execADDA(c *CPU, in *Instr, cycles, _ int64, next int) Status {
	src, blocked, err := c.opRead(in.Src, in.Size, &cycles)
	if blocked || err != nil {
		return c.bail(in, blocked, err)
	}
	s32 := signExtTo32(src, in.Size)
	if in.Op == ADDA {
		c.A[in.Dst.Reg] += s32
	} else {
		c.A[in.Dst.Reg] -= s32
	}
	return c.commit(in, cycles, next)
}

func execALU1(c *CPU, in *Instr, cycles, _ int64, next int) Status {
	return c.alu1(in, cycles, next)
}

func execTST(c *CPU, in *Instr, cycles, _ int64, next int) Status {
	v, blocked, err := c.opRead(in.Dst, in.Size, &cycles)
	if blocked || err != nil {
		return c.bail(in, blocked, err)
	}
	c.applyFlags(nzFlags(v, in.Size))
	return c.commit(in, cycles, next)
}

func execMULU(c *CPU, in *Instr, cycles, _ int64, next int) Status {
	src, blocked, err := c.opRead(in.Src, Word, &cycles)
	if blocked || err != nil {
		return c.bail(in, blocked, err)
	}
	if c.FixedMulCycles > 0 {
		cycles += c.FixedMulCycles
	} else {
		cycles += MuluCycles(uint16(src))
	}
	r := mask(c.D[in.Dst.Reg], Word) * src
	c.D[in.Dst.Reg] = r
	c.applyFlags(nzFlags(r, Long))
	return c.commit(in, cycles, next)
}

func execMULS(c *CPU, in *Instr, cycles, _ int64, next int) Status {
	src, blocked, err := c.opRead(in.Src, Word, &cycles)
	if blocked || err != nil {
		return c.bail(in, blocked, err)
	}
	cycles += MulsCycles(uint16(src))
	r := uint32(int32(int16(src)) * int32(int16(c.D[in.Dst.Reg])))
	c.D[in.Dst.Reg] = r
	c.applyFlags(nzFlags(r, Long))
	return c.commit(in, cycles, next)
}

func execDIVU(c *CPU, in *Instr, cycles, _ int64, next int) Status {
	src, blocked, err := c.opRead(in.Src, Word, &cycles)
	if blocked || err != nil {
		return c.bail(in, blocked, err)
	}
	if src == 0 {
		return c.errf(in, "divide by zero")
	}
	dividend := c.D[in.Dst.Reg]
	q := dividend / src
	if q > 0xFFFF {
		// Overflow: destination unchanged, V set.
		cycles += 10
		c.applyFlags(flags{v: true, n: c.N, z: c.Z})
		return c.commit(in, cycles, next)
	}
	cycles += DivuCycles(uint16(q))
	rem := dividend % src
	c.D[in.Dst.Reg] = rem<<16 | q
	c.applyFlags(nzFlags(q, Word))
	return c.commit(in, cycles, next)
}

func execShift(c *CPU, in *Instr, cycles, _ int64, next int) Status {
	return c.shift(in, cycles, next)
}

func execSWAP(c *CPU, in *Instr, cycles, _ int64, next int) Status {
	v := c.D[in.Dst.Reg]
	v = v>>16 | v<<16
	c.D[in.Dst.Reg] = v
	c.applyFlags(nzFlags(v, Long))
	return c.commit(in, cycles, next)
}

func execEXG(c *CPU, in *Instr, cycles, _ int64, next int) Status {
	a := c.regPtr(in.Src)
	b := c.regPtr(in.Dst)
	*a, *b = *b, *a
	return c.commit(in, cycles, next)
}

func execEXT(c *CPU, in *Instr, cycles, _ int64, next int) Status {
	v := c.D[in.Dst.Reg]
	if in.Size == Word {
		v = merge(v, uint32(int32(int8(v)))&0xFFFF, Word)
		c.applyFlags(nzFlags(v, Word))
	} else {
		v = uint32(int32(int16(v)))
		c.applyFlags(nzFlags(v, Long))
	}
	c.D[in.Dst.Reg] = v
	return c.commit(in, cycles, next)
}

func execBcc(c *CPU, in *Instr, cycles, _ int64, next int) Status {
	if in.Dst.Mode != ModeLabel {
		return c.errf(in, "branch target must be a label")
	}
	if c.condTrue(in.Cond) {
		return c.commit(in, cycles, int(in.Dst.Val)) // taken: 10 either form
	}
	if in.Words == 2 {
		return c.commit(in, cycles+2, next) // word form not-taken: 12
	}
	return c.commit(in, cycles-2, next) // byte form not-taken: 8
}

func execDBcc(c *CPU, in *Instr, _, fetch int64, next int) Status {
	if in.Dst.Mode != ModeLabel {
		return c.errf(in, "branch target must be a label")
	}
	if c.condTrue(in.Cond) {
		return c.commit(in, 12+fetch, next)
	}
	cnt := uint16(c.D[in.Src.Reg]) - 1
	c.D[in.Src.Reg] = merge(c.D[in.Src.Reg], uint32(cnt), Word)
	if cnt == 0xFFFF {
		return c.commit(in, 14+fetch, next)
	}
	return c.commit(in, 10+fetch, int(in.Dst.Val))
}

// execJmpSIMD is a jump into the SIMD instruction space: the PASM
// MIMD-to-SIMD mode switch (paper Section 3). The PE starts requesting
// broadcast instructions; the executor takes over.
func execJmpSIMD(c *CPU, in *Instr, cycles, _ int64, _ int) Status {
	c.commit(in, cycles, c.PC)
	return StatusSIMDJump
}

func execJMP(c *CPU, in *Instr, cycles, _ int64, _ int) Status {
	if in.Dst.Mode != ModeLabel {
		return c.errf(in, "jump target must be a label")
	}
	return c.commit(in, cycles, int(in.Dst.Val))
}

func execJSR(c *CPU, in *Instr, cycles, _ int64, next int) Status {
	if in.Dst.Mode != ModeLabel {
		return c.errf(in, "call target must be a label")
	}
	sp := c.A[7] - 4
	if err := c.Mem.Write(sp, Long, uint32(next)); err != nil {
		return c.errf(in, "stack push: %v", err)
	}
	cycles += c.Mem.Penalty(c.Clock, 2)
	c.A[7] = sp
	return c.commit(in, cycles, int(in.Dst.Val))
}

func execRTS(c *CPU, in *Instr, cycles, _ int64, _ int) Status {
	v, err := c.Mem.Read(c.A[7], Long)
	if err != nil {
		return c.errf(in, "stack pop: %v", err)
	}
	cycles += c.Mem.Penalty(c.Clock, 2)
	c.A[7] += 4
	return c.commit(in, cycles, int(v))
}

func execBitOp(c *CPU, in *Instr, cycles, _ int64, next int) Status {
	return c.bitOp(in, cycles, next)
}

func execBCAST(c *CPU, in *Instr, cycles, _ int64, next int) Status {
	c.LastBcast = BlockRange{Start: int(in.Src.Val), End: int(in.Dst.Val)}
	c.commit(in, cycles, next)
	return StatusBcast
}

func execSETMASK(c *CPU, in *Instr, cycles, _ int64, next int) Status {
	v, blocked, err := c.opRead(in.Src, Word, &cycles)
	if blocked || err != nil {
		return c.bail(in, blocked, err)
	}
	c.LastMask = v
	c.commit(in, cycles, next)
	return StatusSetMask
}

func execUnimplemented(c *CPU, in *Instr, _, _ int64, _ int) Status {
	return c.errf(in, "unimplemented operation")
}
