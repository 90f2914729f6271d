package m68k

// exec executes one instruction through the dynamic reference path:
// the dispatch function and static cycle cost are recomputed from the
// instruction instead of read from the program's execution table. The
// table path in Step/ExecBroadcastAt caches exactly these two results,
// and the equivalence tests run both paths against each other.
func (c *CPU) exec(in *Instr, fetchPenalty int64) Status {
	c.lastLoadWasDev = false
	return resolveHandler(in)(c, in, baseCycles(in)+fetchPenalty, fetchPenalty, c.PC+1)
}

// bail aborts a partially evaluated instruction, either blocked on a
// device (retryable, no state changed) or with a program error.
func (c *CPU) bail(in *Instr, blocked bool, err error) Status {
	c.npend = 0
	if err != nil {
		return c.errf(in, "%v", err)
	}
	return StatusBlocked
}

// regPtr returns the storage cell for a register operand (EXG).
func (c *CPU) regPtr(o Operand) *uint32 {
	if o.Mode == ModeAddrReg {
		return &c.A[o.Reg]
	}
	return &c.D[o.Reg]
}

// alu2 executes the two-operand ALU forms (ADD/SUB/AND/OR/EOR and
// their immediate and quick variants) to either a data register or a
// memory destination (read-modify-write). Device destinations are
// rejected: an RMW bus cycle against a transfer register is not
// meaningful hardware behaviour.
func (c *CPU) alu2(in *Instr, cycles int64, next int) Status {
	sz := in.Size
	src, blocked, err := c.opRead(in.Src, sz, &cycles)
	if blocked || err != nil {
		return c.bail(in, blocked, err)
	}
	if !in.Dst.IsMem() {
		old := mask(c.D[in.Dst.Reg], sz)
		r, f := aluOp(in.Op, old, src, sz)
		c.D[in.Dst.Reg] = merge(c.D[in.Dst.Reg], r, sz)
		c.applyFlags(f)
		return c.commit(in, cycles, next)
	}
	addr := c.ea(in.Dst, sz)
	if addr >= DeviceBase {
		return c.errf(in, "read-modify-write on device register $%X", addr)
	}
	old, err := c.Mem.Read(addr, sz)
	if err != nil {
		return c.errf(in, "%v", err)
	}
	r, f := aluOp(in.Op, old, src, sz)
	if err := c.Mem.Write(addr, sz, mask(r, sz)); err != nil {
		return c.errf(in, "%v", err)
	}
	acc := int64(2)
	if sz == Long {
		acc = 4
	}
	cycles += c.Mem.Penalty(c.Clock, acc)
	c.applyFlags(f)
	return c.commit(in, cycles, next)
}

// aluOp computes a two-operand ALU result and its flags.
func aluOp(op Op, dst, src uint32, sz Size) (uint32, flags) {
	switch op {
	case ADD, ADDI, ADDQ:
		r := dst + src
		return r, addFlags(dst, src, r, sz)
	case SUB, SUBI, SUBQ:
		r := dst - src
		return r, subFlags(dst, src, r, sz)
	case AND, ANDI:
		r := dst & src
		return r, nzFlags(r, sz)
	case OR, ORI:
		r := dst | src
		return r, nzFlags(r, sz)
	default: // EOR, EORI
		r := dst ^ src
		return r, nzFlags(r, sz)
	}
}

// alu1 executes NOT and NEG (register or memory destination).
func (c *CPU) alu1(in *Instr, cycles int64, next int) Status {
	sz := in.Size
	compute := func(v uint32) (uint32, flags) {
		if in.Op == NOT {
			r := ^v
			return r, nzFlags(r, sz)
		}
		r := -v
		f := subFlags(0, v, r, sz)
		return r, f
	}
	if !in.Dst.IsMem() {
		r, f := compute(mask(c.D[in.Dst.Reg], sz))
		c.D[in.Dst.Reg] = merge(c.D[in.Dst.Reg], r, sz)
		c.applyFlags(f)
		return c.commit(in, cycles, next)
	}
	addr := c.ea(in.Dst, sz)
	if addr >= DeviceBase {
		return c.errf(in, "read-modify-write on device register $%X", addr)
	}
	v, err := c.Mem.Read(addr, sz)
	if err != nil {
		return c.errf(in, "%v", err)
	}
	r, f := compute(v)
	if err := c.Mem.Write(addr, sz, mask(r, sz)); err != nil {
		return c.errf(in, "%v", err)
	}
	acc := int64(2)
	if sz == Long {
		acc = 4
	}
	cycles += c.Mem.Penalty(c.Clock, acc)
	c.applyFlags(f)
	return c.commit(in, cycles, next)
}

// bitOp executes BTST/BSET/BCLR/BCHG: bit numbers are taken modulo 32
// for data-register operands and modulo 8 for memory (byte) operands,
// per the 68000. Z is set from the *tested* (pre-modification) bit.
func (c *CPU) bitOp(in *Instr, cycles int64, next int) Status {
	var bitNum uint32
	if in.Src.Mode == ModeImm {
		bitNum = uint32(in.Src.Val)
	} else {
		bitNum = c.D[in.Src.Reg]
	}
	modify := func(v uint32, bit uint32) uint32 {
		switch in.Op {
		case BSET:
			return v | 1<<bit
		case BCLR:
			return v &^ (1 << bit)
		case BCHG:
			return v ^ 1<<bit
		}
		return v // BTST
	}
	if !in.Dst.IsMem() {
		bit := bitNum % 32
		v := c.D[in.Dst.Reg]
		c.Z = v&(1<<bit) == 0
		c.D[in.Dst.Reg] = modify(v, bit)
		return c.commit(in, cycles, next)
	}
	bit := bitNum % 8
	addr := c.ea(in.Dst, Byte)
	if addr >= DeviceBase {
		return c.errf(in, "bit operation on device register $%X", addr)
	}
	v, err := c.Mem.Read(addr, Byte)
	if err != nil {
		return c.errf(in, "%v", err)
	}
	c.Z = v&(1<<bit) == 0
	acc := int64(1)
	if in.Op != BTST {
		if err := c.Mem.Write(addr, Byte, modify(v, bit)); err != nil {
			return c.errf(in, "%v", err)
		}
		acc = 2
	}
	cycles += c.Mem.Penalty(c.Clock, acc)
	return c.commit(in, cycles, next)
}

// shift executes the register shift and rotate instructions.
func (c *CPU) shift(in *Instr, cycles int64, next int) Status {
	sz := in.Size
	var count uint32
	if in.Src.Mode == ModeImm {
		count = uint32(in.Src.Val)
	} else {
		count = c.D[in.Src.Reg] & 63
		cycles += 2 * int64(count)
	}
	bitsN := sz.Bytes() * 8
	v := mask(c.D[in.Dst.Reg], sz)
	var r uint32
	f := flags{}
	switch in.Op {
	case LSL, ASL:
		r = v
		for i := uint32(0); i < count; i++ {
			out := r & signBit(sz)
			nr := mask(r<<1, sz)
			f.cc = out != 0
			f.setX, f.x = true, f.cc
			if in.Op == ASL && (nr&signBit(sz) != 0) != (r&signBit(sz) != 0) {
				f.v = true
			}
			r = nr
		}
	case LSR:
		r = v
		for i := uint32(0); i < count; i++ {
			f.cc = r&1 != 0
			f.setX, f.x = true, f.cc
			r >>= 1
		}
	case ASR:
		r = v
		sb := signBit(sz)
		for i := uint32(0); i < count; i++ {
			f.cc = r&1 != 0
			f.setX, f.x = true, f.cc
			r = r>>1 | r&sb
		}
	case ROL:
		r = v
		for i := uint32(0); i < count; i++ {
			out := r & signBit(sz) >> (bitsN - 1)
			r = mask(r<<1|out, sz)
			f.cc = out != 0
		}
	case ROR:
		r = v
		for i := uint32(0); i < count; i++ {
			out := r & 1
			r = r>>1 | out<<(bitsN-1)
			f.cc = out != 0
		}
	}
	if count == 0 {
		r = v
	}
	nz := nzFlags(r, sz)
	f.n, f.z = nz.n, nz.z
	c.D[in.Dst.Reg] = merge(c.D[in.Dst.Reg], r, sz)
	c.applyFlags(f)
	return c.commit(in, cycles, next)
}
