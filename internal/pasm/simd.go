package pasm

import (
	"fmt"

	"repro/internal/fetchunit"
	"repro/internal/m68k"
	"repro/internal/obs"
)

// RunSIMD executes an MC program in SIMD mode.
//
// Every MC of the partition runs the same program from its own memory:
// control flow (loops, pointer bookkeeping) executes on the MC CPU,
// and each BCAST instruction hands a block of data-processing
// instructions to the Fetch Unit, whose controller streams it word by
// word into the finite queue. Each PE of the group requests the next
// instruction when it finishes its current one; the Fetch Unit
// releases an instruction only when it is fully enqueued AND every
// enabled PE of the group has requested it — per-instruction lockstep,
// which is exactly the paper's "SIMD mode charges the worst case of
// every instruction" behaviour (T_SIMD = sum of per-instruction
// maxima).
//
// The MC timeline and the PE timelines are tracked independently and
// coupled only through the queue (ready times, controller-busy stalls,
// queue-full back-pressure), so MC control flow overlaps PE
// computation exactly as on the prototype; with the queue non-empty
// the PEs never see control flow at all.
func (vm *VM) RunSIMD(prog *m68k.Program) (RunResult, error) {
	if len(prog.Instrs) == 0 {
		return RunResult{}, fmt.Errorf("pasm: empty program")
	}
	vm.net.reset()
	vm.bar = newBarrier(vm.P)

	type group struct {
		mc     *m68k.CPU
		halted bool
	}
	groups := make([]group, vm.Q)
	for g := range groups {
		vm.MCs[g].Queue.Reset()
		vm.MCs[g].Mask = fetchunit.AllEnabled(len(vm.MCs[g].PEs))
		mc := m68k.NewCPU(prog, vm.MCs[g].Mem)
		mc.FetchFromMem = true
		mc.DisableExecTable = vm.Cfg.DisableExecTable
		mc.DisableSuperinstructions = vm.Cfg.DisableSuperinstructions
		mc.A[7] = vm.MCs[g].Mem.Size() - 4
		if vm.TraceHook != nil {
			vm.TraceHook(fmt.Sprintf("MC%d", g), mc)
		}
		groups[g].mc = mc
	}
	pes := make([]*m68k.CPU, vm.P)
	for i, pe := range vm.PEs {
		cpu := m68k.NewCPU(prog, pe.Mem)
		cpu.FetchFromMem = false // instructions arrive from the queue
		cpu.FixedMulCycles = vm.Cfg.FixedMulCycles
		cpu.DisableExecTable = vm.Cfg.DisableExecTable
		cpu.DisableSuperinstructions = vm.Cfg.DisableSuperinstructions
		pe.dev.bar = vm.bar
		cpu.Dev = pe.dev
		if vm.TraceHook != nil {
			vm.TraceHook(fmt.Sprintf("PE%d", i), cpu)
		}
		pes[i] = cpu
	}
	obsOn := vm.wireObsPEs(pes)
	mcUnits := make([]int, vm.Q)
	for g := range groups {
		mcUnits[g] = vm.wireObsMC(g, groups[g].mc)
	}

	// The batch fast path below replays a fused MULU run through the
	// lockstep queue with O(1) arithmetic per instruction; it engages
	// only when the superinstruction tier is active and nothing is
	// observing individual instructions.
	batchTier := !vm.Cfg.DisableExecTable && !vm.Cfg.DisableSuperinstructions && vm.Obs == nil
	batchCost := make([]int64, vm.P)

	var mcSteps int64
	var mcStall, peStarve int64
	type issue struct {
		blk   m68k.BlockRange
		ready bool
	}
	issues := make([]issue, vm.Q)
	for {
		// Advance every live MC to its next BCAST (or halt).
		for g := range issues {
			issues[g] = issue{}
		}
		anyLive := false
		for g := range groups {
			if groups[g].halted {
				continue
			}
			mc := groups[g].mc
			for {
				st := mc.Step()
				mcSteps++
				if mcSteps > vm.Cfg.MaxSteps {
					return RunResult{}, fmt.Errorf("pasm: MC exceeded %d steps (runaway control program?)", vm.Cfg.MaxSteps)
				}
				switch st {
				case m68k.StatusOK:
					continue
				case m68k.StatusSetMask:
					// The MC wrote the Fetch Unit mask register:
					// subsequent broadcasts reach only the enabled PEs
					// of this group (disabled PEs wait, not
					// participating in instruction release).
					vm.MCs[g].Mask = fetchunit.Mask(mc.LastMask)
					continue
				case m68k.StatusBcast:
					// The Fetch Unit controller must be free before the
					// MC's control-word write completes.
					if free := vm.MCs[g].Queue.CtrlFree(); free > mc.Clock {
						stall := free - mc.Clock
						mc.Clock = free
						mc.Regions[m68k.RegionControl] += stall
						mcStall += stall
					}
					issues[g] = issue{blk: mc.LastBcast, ready: true}
				case m68k.StatusHalted:
					groups[g].halted = true
				case m68k.StatusBlocked:
					return RunResult{}, fmt.Errorf("pasm: MC %d blocked on a device access at pc %d", g, mc.PC)
				default:
					return RunResult{}, fmt.Errorf("pasm: MC %d error: %w", g, mc.Err)
				}
				break
			}
			if issues[g].ready {
				anyLive = true
			}
		}
		if !anyLive {
			break // all MCs halted
		}
		// All groups execute the same program; their BCAST sequences
		// must agree.
		var blk m68k.BlockRange
		first := true
		for g := range groups {
			if !issues[g].ready {
				return RunResult{}, fmt.Errorf("pasm: MC %d halted while others broadcast", g)
			}
			if first {
				blk = issues[g].blk
				first = false
			} else if issues[g].blk != blk {
				return RunResult{}, fmt.Errorf("pasm: MCs diverged: block [%d,%d) vs [%d,%d)",
					blk.Start, blk.End, issues[g].blk.Start, issues[g].blk.End)
			}
		}
		if blk.Len() == 0 {
			return RunResult{}, fmt.Errorf("pasm: empty broadcast block")
		}
		// Stream the block: per instruction, per group: enqueue,
		// release at max(ready, all enabled requests), execute on each
		// enabled PE.
		for idx := blk.Start; idx < blk.End; idx++ {
			if batchTier {
				if run, ok := prog.MuluRunAt(idx); ok {
					n := run.Len
					if idx+n > blk.End {
						n = blk.End - idx
					}
					if n > 1 && peBatchable(pes) && vm.masksAllEnabled() {
						for g := range groups {
							if err := vm.lockstepMuluRun(g, groups[g].mc.Clock, pes, run, n, batchCost, &peStarve); err != nil {
								return RunResult{}, err
							}
						}
						idx += n - 1
						continue
					}
				}
			}
			in := &prog.Instrs[idx]
			if !broadcastable(in) {
				return RunResult{}, fmt.Errorf("pasm: %s at instruction %d is not valid inside a broadcast block", in.Op, idx)
			}
			for g := range groups {
				mcg := vm.MCs[g]
				ready, err := mcg.Queue.Enqueue(groups[g].mc.Clock, int(in.Words))
				if err != nil {
					return RunResult{}, fmt.Errorf("pasm: group %d: %w", g, err)
				}
				var maxReq int64 = -1
				for k, pe := range mcg.PEs {
					if mcg.Mask.Enabled(k) && pes[pe.Index].Clock > maxReq {
						maxReq = pes[pe.Index].Clock
					}
				}
				release := ready
				if maxReq > release {
					release = maxReq
				} else if maxReq >= 0 {
					// PEs requested before the word was in the queue:
					// they starve on the controller/MC.
					peStarve += ready - maxReq
				}
				if err := vm.execLockstep(mcg, pes, in, idx, release); err != nil {
					return RunResult{}, err
				}
				if err := mcg.Queue.Consume(int(in.Words), release); err != nil {
					return RunResult{}, fmt.Errorf("pasm: group %d: %w", g, err)
				}
			}
			if in.Op == m68k.JMP {
				// The asynchronous section runs every PE of the
				// partition; a disabled PE never took the jump and
				// has no valid MIMD program counter.
				for g := range groups {
					if vm.MCs[g].Mask != fetchunit.AllEnabled(len(vm.MCs[g].PEs)) {
						return RunResult{}, fmt.Errorf("pasm: mixed-mode switch with disabled PEs (group %d mask %#x) is not supported", g, vm.MCs[g].Mask)
					}
				}
				// Mixed mode: every PE just took the broadcast jump
				// into its own program. Run the asynchronous section
				// (own-memory fetches, full device semantics) until
				// every PE jumps back into the SIMD space, then
				// continue the lockstep stream — the PEs' park times
				// become their next request times, so the rejoin is
				// the implicit Fetch Unit barrier.
				for _, cpu := range pes {
					cpu.FetchFromMem = true
				}
				vm.emitModeSwitch(pes, true)
				if err := vm.runDES(pes, true); err != nil {
					return RunResult{}, err
				}
				vm.emitModeSwitch(pes, false)
				for _, cpu := range pes {
					cpu.FetchFromMem = false
				}
			}
		}
	}

	res := RunResult{PEClocks: make([]int64, vm.P)}
	var critical *m68k.CPU
	for i, cpu := range pes {
		res.PEClocks[i] = cpu.Clock
		if cpu.Clock > res.Cycles {
			res.Cycles = cpu.Clock
			critical = cpu
		}
		res.Instrs += cpu.InstrCount
	}
	if critical != nil {
		res.Regions = critical.Regions
	}
	for g := range groups {
		res.MCInstrs += groups[g].mc.InstrCount
		if occ := vm.MCs[g].Queue.MaxOccupancy; occ > res.QueueMaxOccupancy {
			res.QueueMaxOccupancy = occ
		}
		res.QueueStallCycles += vm.MCs[g].Queue.StallCycles
	}
	res.MCStallCycles = mcStall
	res.PEStarveCycles = peStarve
	res.BarrierRounds = vm.bar.rounds
	res.NetTransfers = vm.net.transfers
	res.NetReconfigs = vm.net.reconfigs
	if obsOn {
		vm.finishObsPEs(pes)
		for g := range groups {
			vm.Obs.Finish(mcUnits[g], groups[g].mc.Clock, groups[g].mc.InstrCount)
		}
	}
	return res, nil
}

// execLockstep runs one released broadcast instruction on every
// enabled PE of a group, retrying PEs that block on a device until the
// whole group completes (a barrier read inside a broadcast block
// resolves this way; anything else that stays blocked is a program
// structure error).
func (vm *VM) execLockstep(mcg *MC, pes []*m68k.CPU, in *m68k.Instr, idx int, release int64) error {
	var blocked []int
	for k, pe := range mcg.PEs {
		if !mcg.Mask.Enabled(k) {
			continue
		}
		cpu := pes[pe.Index]
		// Lockstep wait: the PE requested at its clock; the release
		// time is charged to the instruction's region.
		if wait := release - cpu.Clock; wait > 0 {
			cpu.Regions[in.Region] += wait
			cpu.Clock = release
			if vm.Obs != nil {
				vm.Obs.Emit(vm.obsPE[pe.Index], obs.Event{
					Kind: obs.KindLockstepWait, Clock: release, Dur: wait,
				})
			}
		}
		switch st := cpu.ExecBroadcastAt(idx); st {
		case m68k.StatusOK, m68k.StatusHalted:
		case m68k.StatusBlocked:
			blocked = append(blocked, pe.Index)
		default:
			return fmt.Errorf("pasm: PE %d error in broadcast: %w", pe.Index, cpu.Err)
		}
	}
	// Retry blocked PEs; each full pass must make progress.
	for pass := 0; len(blocked) > 0; pass++ {
		if pass > vm.P+1 {
			return fmt.Errorf("pasm: PEs %v deadlocked in broadcast instruction %q", blocked, in)
		}
		var still []int
		for _, pi := range blocked {
			switch st := pes[pi].ExecBroadcastAt(idx); st {
			case m68k.StatusOK, m68k.StatusHalted:
			case m68k.StatusBlocked:
				still = append(still, pi)
			default:
				return fmt.Errorf("pasm: PE %d error in broadcast retry: %w", pi, pes[pi].Err)
			}
		}
		if len(still) == len(blocked) {
			return fmt.Errorf("pasm: PEs %v stuck in broadcast instruction %q (no progress)", still, in)
		}
		blocked = still
	}
	return nil
}

// peBatchable reports whether every PE can take the MULU-run batch
// path: live (a PE halted in a mixed-mode section skips broadcast
// instructions, which the batch cannot model) and untraced (the batch
// skips per-instruction trace callbacks).
func peBatchable(pes []*m68k.CPU) bool {
	for _, cpu := range pes {
		if cpu.Halted || cpu.Err != nil || cpu.Trace != nil {
			return false
		}
	}
	return true
}

// masksAllEnabled reports whether every group's Fetch Unit mask
// enables all its PEs (the batch path's lockstep arithmetic assumes
// every PE participates in every release).
func (vm *VM) masksAllEnabled() bool {
	for g := range vm.MCs {
		if vm.MCs[g].Mask != fetchunit.AllEnabled(len(vm.MCs[g].PEs)) {
			return false
		}
	}
	return true
}

// lockstepMuluRun streams a fused run of n identical MULUs through
// group g's Fetch Unit queue with O(1) arithmetic per instruction
// instead of executing each member on each PE.
//
// The equivalence argument: during block streaming the MC clock is
// fixed (the MC has already run ahead to its next BCAST), so every
// Enqueue sees the same issue time as the reference path. Each PE's
// per-member cost (static base + the data-dependent multiply time of
// the invariant source register) is a constant c_p, so after the
// first release every enabled PE requests at release+c_p and the next
// release is max(ready, release+max_p(c_p)) — no per-PE scan needed.
// Enqueue/Consume still run once per member, so all queue state
// (controller-free time, occupancy high-water mark, full-queue
// stalls) evolves identically. Interior flag writes are dead (every
// member overwrites NZVC; X is never touched), so only the final
// product, flags, clocks and region charges are materialized — the
// exact values the reference path leaves behind.
func (vm *VM) lockstepMuluRun(g int, mcClock int64, pes []*m68k.CPU, run m68k.MuluRun, n int, cost []int64, peStarve *int64) error {
	mcg := vm.MCs[g]
	var cmax int64 = -1
	for _, pe := range mcg.PEs {
		cpu := pes[pe.Index]
		mt := cpu.FixedMulCycles
		if mt <= 0 {
			mt = m68k.MuluCycles(uint16(cpu.D[run.Src]))
		}
		c := run.Base + mt
		cost[pe.Index] = c
		if c > cmax {
			cmax = c
		}
	}
	var release int64
	for i := 0; i < n; i++ {
		ready, err := mcg.Queue.Enqueue(mcClock, run.Words)
		if err != nil {
			return fmt.Errorf("pasm: group %d: %w", g, err)
		}
		var maxReq int64 = -1
		if i == 0 {
			for _, pe := range mcg.PEs {
				if clk := pes[pe.Index].Clock; clk > maxReq {
					maxReq = clk
				}
			}
		} else {
			maxReq = release + cmax
		}
		r := ready
		if maxReq > r {
			r = maxReq
		} else if maxReq >= 0 {
			*peStarve += ready - maxReq
		}
		release = r
		if err := mcg.Queue.Consume(run.Words, release); err != nil {
			return fmt.Errorf("pasm: group %d: %w", g, err)
		}
	}
	for _, pe := range mcg.PEs {
		cpu := pes[pe.Index]
		final := release + cost[pe.Index]
		cpu.Regions[run.Region] += final - cpu.Clock
		cpu.Clock = final
		cpu.InstrCount += int64(n)
		cpu.PC += n
		src := cpu.D[run.Src] & 0xFFFF
		d := cpu.D[run.Dst]
		for i := 0; i < n; i++ {
			d = (d & 0xFFFF) * src
		}
		cpu.D[run.Dst] = d
		cpu.N, cpu.Z, cpu.V, cpu.C = d&0x80000000 != 0, d == 0, false, false
	}
	return nil
}

// broadcastable reports whether an operation may appear in a broadcast
// block: PEs have no program counter of their own in SIMD mode, so
// control flow cannot be broadcast.
func broadcastable(in *m68k.Instr) bool {
	switch in.Op {
	case m68k.BCC, m68k.DBCC, m68k.JSR, m68k.RTS,
		m68k.BCAST, m68k.SETMASK, m68k.HALT:
		return false
	case m68k.JMP:
		// A broadcast jump to a PE program label is the SIMD-to-MIMD
		// mode switch (paper Section 3): the PEs leave the lockstep
		// stream and execute asynchronously from their own memories
		// until they jump back into the SIMD space. Other jumps have
		// no meaning in a block.
		return in.Dst.Mode == m68k.ModeLabel
	}
	return true
}
