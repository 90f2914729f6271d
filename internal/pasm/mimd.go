package pasm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/m68k"
)

// procState is one PE's scheduling state in the MIMD engine.
type procState uint8

const (
	stRun  procState = iota // executing pure computation
	stAtOp                  // stopped at a device operation, eligible to perform it
	stWait                  // device refused; waiting for an enabling event
	stHalt                  // HALT executed
	stPark                  // jumped into the SIMD space (mixed-mode rejoin)
)

// RunMIMD executes the same program asynchronously on every PE of the
// partition: the paper's MIMD mode (and, when the program reads the
// SIMD space for barrier synchronization, the hybrid S/MIMD mode; with
// P=1 it is the serial SISD mode). The MCs only start the PE programs,
// which is a constant the measurements exclude.
func (vm *VM) RunMIMD(prog *m68k.Program) (RunResult, error) {
	if len(prog.Instrs) == 0 {
		return RunResult{}, fmt.Errorf("pasm: empty program")
	}
	vm.net.reset()
	vm.bar = newBarrier(vm.P)

	cpus := make([]*m68k.CPU, vm.P)
	for i, pe := range vm.PEs {
		cpu := m68k.NewCPU(prog, pe.Mem)
		cpu.FetchFromMem = true
		cpu.FixedMulCycles = vm.Cfg.FixedMulCycles
		cpu.DisableExecTable = vm.Cfg.DisableExecTable
		cpu.DisableSuperinstructions = vm.Cfg.DisableSuperinstructions
		cpu.A[7] = pe.Mem.Size() - 4
		pe.dev.bar = vm.bar
		cpu.Dev = pe.dev
		if vm.TraceHook != nil {
			vm.TraceHook(fmt.Sprintf("PE%d", i), cpu)
		}
		cpus[i] = cpu
	}
	vm.wireObsPEs(cpus)

	if err := vm.runDES(cpus, false); err != nil {
		return RunResult{}, err
	}

	res := RunResult{PEClocks: make([]int64, vm.P)}
	var critical *m68k.CPU
	for i, cpu := range cpus {
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
	res.BarrierRounds = vm.bar.rounds
	res.NetTransfers = vm.net.transfers
	res.NetReconfigs = vm.net.reconfigs
	vm.finishObsPEs(cpus)
	return res, nil
}

// runDES is the conservative discrete-event engine shared by the MIMD
// mode and the mixed-mode MIMD sections of SIMD programs.
//
// Each PE runs its pure computation freely (PEs share no memory), but
// device operations — network transfer registers, status polls,
// barrier reads — are performed in global timestamp order: CPUs are
// advanced with their device bus disarmed so they stop just before the
// operation, and the operation with the smallest clock is performed
// first. Wait times are charged by the devices themselves from
// timestamps (data arrival, register-free, barrier release), so the
// blocked instruction's accounting region absorbs the wait — exactly
// the attribution the paper's Figures 8-10 break out.
//
// With stopOnJump, a PE that jumps into the SIMD instruction space
// (the MIMD-to-SIMD mode switch of paper Section 3) parks, and the
// engine returns once every PE has parked or halted; otherwise such a
// jump is an error and only HALT terminates a PE.
func (vm *VM) runDES(cpus []*m68k.CPU, stopOnJump bool) error {
	active := -1
	state := make([]procState, len(cpus))
	for _, pe := range vm.PEs {
		pe.dev.armed = &active
	}
	defer func() {
		for _, pe := range vm.PEs {
			pe.dev.armed = nil
		}
	}()

	terminal := func(s procState) bool { return s == stHalt || s == stPark }
	classify := func(i int, st m68k.Status) error {
		switch st {
		case m68k.StatusOK:
			state[i] = stRun
		case m68k.StatusBlocked:
			state[i] = stAtOp
		case m68k.StatusHalted:
			state[i] = stHalt
		case m68k.StatusSIMDJump:
			if !stopOnJump {
				return fmt.Errorf("pasm: PE %d jumped into the SIMD space outside mixed-mode execution", i)
			}
			state[i] = stPark
		case m68k.StatusBcast, m68k.StatusSetMask:
			return fmt.Errorf("pasm: PE %d executed an MC-only instruction in MIMD mode", i)
		default:
			return fmt.Errorf("pasm: PE %d: %w", i, cpus[i].Err)
		}
		return nil
	}

	// advance executes one PE's computation segment to its next device
	// operation (or halt/park/error) within what is left of the PE's
	// own step budget, reporting overrun when the budget ran out first.
	advance := func(cpu *m68k.CPU) (m68k.Status, bool) {
		left := vm.Cfg.MaxSteps - cpu.InstrCount
		if left <= 0 {
			return m68k.StatusOK, true
		}
		st := cpu.Run(left)
		return st, st == m68k.StatusOK
	}
	var runIdx []int
	sts := make([]m68k.Status, len(cpus))
	overrun := make([]bool, len(cpus))
	for {
		// Phase 1: advance every running PE to its next device
		// operation (devices disarmed: active == -1 matches no PE).
		// The segments are independent — PEs share no memory and a
		// disarmed device bus refuses access before touching any
		// shared network or barrier state — so they may execute on
		// separate host goroutines. All engine state (state[],
		// overrun, classification order) is updated serially after the
		// join, in PE index order, keeping the simulation
		// byte-identical to serial execution.
		runIdx = runIdx[:0]
		for i := range cpus {
			if state[i] == stRun {
				runIdx = append(runIdx, i)
			}
		}
		if w := vm.Cfg.HostWorkers; w > 1 && len(runIdx) > 1 {
			if w > len(runIdx) {
				w = len(runIdx)
			}
			var next int64 = -1
			var wg sync.WaitGroup
			for j := 0; j < w; j++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						k := int(atomic.AddInt64(&next, 1))
						if k >= len(runIdx) {
							return
						}
						sts[k], overrun[k] = advance(cpus[runIdx[k]])
					}
				}()
			}
			wg.Wait()
		} else {
			for k, i := range runIdx {
				sts[k], overrun[k] = advance(cpus[i])
			}
		}
		live := false
		for k, i := range runIdx {
			if overrun[k] {
				return fmt.Errorf("pasm: MIMD run exceeded %d steps", vm.Cfg.MaxSteps)
			}
			if err := classify(i, sts[k]); err != nil {
				return err
			}
		}
		for i := range cpus {
			if !terminal(state[i]) {
				live = true
				break
			}
		}
		if !live {
			return nil // every PE halted or parked
		}
		// Phase 2: perform the globally earliest pending device op.
		pick := -1
		for i := range cpus {
			if state[i] == stAtOp && (pick == -1 || cpus[i].Clock < cpus[pick].Clock) {
				pick = i
			}
		}
		if pick == -1 {
			waiters := []int{}
			for i := range cpus {
				if state[i] == stWait {
					waiters = append(waiters, i)
				}
			}
			return fmt.Errorf("pasm: deadlock: PEs %v waiting with no pending events", waiters)
		}
		active = pick
		st := cpus[pick].Step()
		active = -1
		if st == m68k.StatusBlocked {
			state[pick] = stWait
			continue
		}
		if err := classify(pick, st); err != nil {
			return err
		}
		// A completed device operation may enable any waiter.
		for i := range state {
			if state[i] == stWait {
				state[i] = stAtOp
			}
		}
	}
}
