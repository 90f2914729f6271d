package pasm

import (
	"fmt"

	"repro/internal/fetchunit"
	"repro/internal/m68k"
	"repro/internal/obs"
)

// Config holds the machine parameters of the simulated prototype. The
// defaults follow the PASM prototype description in Section 3 of the
// paper; every parameter the evaluation is sensitive to is exposed so
// that the ablation benchmarks can vary it.
type Config struct {
	// NumPEs is the machine's total PE count (prototype: 16).
	NumPEs int
	// PEsPerMC is the number of PEs per Micro Controller (prototype:
	// N/Q = 16/4 = 4).
	PEsPerMC int
	// PEMemBytes is each PE's main-memory size.
	PEMemBytes uint32
	// MCMemBytes is each MC's memory size.
	MCMemBytes uint32

	// QueueDepthWords is the Fetch Unit queue capacity in instruction
	// words. Finite depth is what bounds the MC's run-ahead.
	QueueDepthWords int
	// QueueWordCycles is the Fetch Unit controller's time to move one
	// word from Fetch Unit RAM into the queue.
	QueueWordCycles int64

	// DRAMWaitStates is the extra cycles per PE main-memory access;
	// the Fetch Unit queue (static RAM) has none, which is the paper's
	// "one less wait state" SIMD fetch advantage.
	DRAMWaitStates int64
	// RefreshPeriod/RefreshStall model DRAM refresh interference
	// (cycles between charged collisions, and the stall per collision).
	RefreshPeriod int64
	RefreshStall  int64

	// NetLatency is the circuit traversal time from a transmit-register
	// store to receive-register availability.
	NetLatency int64
	// NetAccessExtra is the extra bus time per transfer-register access.
	NetAccessExtra int64
	// NetSetupCycles is the cost of a run-time circuit establishment
	// through the network control register (path set-up is "a time
	// consuming operation" on the circuit-switched prototype).
	NetSetupCycles int64
	// BarrierExtra is the mode-switching overhead charged per barrier
	// read in S/MIMD mode (jump into and out of the SIMD space).
	BarrierExtra int64

	// FixedMulCycles, when positive, replaces the data-dependent MULU
	// time with a constant (ablation: removes the non-deterministic
	// instruction times under study). Zero means faithful behaviour.
	FixedMulCycles int64

	// Interpreter-tier selection. Both false (the default) runs the
	// fastest configuration, superinstruction dispatch.
	// DisableSuperinstructions drops to per-Step exec-table dispatch,
	// DisableExecTable to the dynamic reference interpreter. Simulated
	// results are identical for every combination — these are
	// host-side A/B verification knobs only.
	DisableExecTable         bool
	DisableSuperinstructions bool

	// ClockHz converts cycles to seconds (prototype: 8 MHz MC68000s).
	ClockHz float64

	// MaxSteps bounds per-CPU instruction counts as a runaway guard.
	MaxSteps int64

	// HostWorkers is the number of host goroutines used to advance PEs
	// between synchronization points in MIMD execution. This is host
	// parallelism only — the simulated timeline is byte-identical for
	// any value. 0 or 1 means serial.
	HostWorkers int

	// Obs, when non-nil, receives the run's event stream and metrics
	// (see package obs). Host-side observability only: everything it
	// records is derived from simulated quantities and a nil recorder
	// costs one pointer test per hook, so attaching it never changes
	// simulated results.
	Obs *obs.Recorder

	// Net, when non-nil, supplies the machine's circuit-switched
	// network instead of a private Extra-Stage Cube — the partitioned-
	// machine path, where a VM's circuits live in its partition's
	// subcube view of the shared physical network (internal/partition).
	// Its Size must equal max(NumPEs, 2), the size a standalone VM's
	// private network would have, so establishment outcomes — and
	// therefore cycle counts — are identical either way. NewVM releases
	// any circuits the view still holds, giving every VM the fresh
	// network a standalone machine starts with.
	Net Net
}

// DefaultConfig returns the prototype-like configuration used by all
// experiments unless a parameter is being ablated.
func DefaultConfig() Config {
	return Config{
		NumPEs:          16,
		PEsPerMC:        4,
		PEMemBytes:      1 << 20,
		MCMemBytes:      1 << 16,
		QueueDepthWords: 128,
		QueueWordCycles: 2,
		DRAMWaitStates:  1,
		RefreshPeriod:   256,
		RefreshStall:    2,
		NetLatency:      4,
		NetAccessExtra:  2,
		NetSetupCycles:  64,
		BarrierExtra:    4,
		ClockHz:         8e6,
		MaxSteps:        1 << 40,
	}
}

// Validate checks configuration consistency.
func (c Config) Validate() error {
	switch {
	case c.NumPEs < 1 || c.NumPEs&(c.NumPEs-1) != 0:
		return fmt.Errorf("pasm: NumPEs %d must be a power of two", c.NumPEs)
	case c.PEsPerMC < 1 || c.NumPEs%c.PEsPerMC != 0:
		return fmt.Errorf("pasm: PEsPerMC %d must divide NumPEs %d", c.PEsPerMC, c.NumPEs)
	case c.QueueDepthWords < 4:
		return fmt.Errorf("pasm: queue depth %d too small to hold one instruction", c.QueueDepthWords)
	case c.QueueWordCycles < 1:
		return fmt.Errorf("pasm: QueueWordCycles %d < 1", c.QueueWordCycles)
	case c.PEMemBytes < 4096:
		return fmt.Errorf("pasm: PE memory %d bytes too small", c.PEMemBytes)
	case c.ClockHz <= 0:
		return fmt.Errorf("pasm: ClockHz must be positive")
	case c.MaxSteps < 1:
		return fmt.Errorf("pasm: MaxSteps must be positive")
	case c.HostWorkers < 0:
		return fmt.Errorf("pasm: HostWorkers %d < 0", c.HostWorkers)
	}
	return nil
}

// PE is one processing element: a processor/memory pair. The CPU is
// created per run (each RunSIMD/RunMIMD call starts from reset state);
// the memory persists across runs so hosts can load data once and
// inspect results after.
type PE struct {
	Index int
	Mem   *m68k.Memory
	dev   *deviceBus
}

// MC is one Micro Controller: processor (created per run), memory, and
// Fetch Unit.
type MC struct {
	Index int
	Mem   *m68k.Memory
	Queue *fetchunit.Queue
	Mask  fetchunit.Mask
	// PEs are the group members this MC controls.
	PEs []*PE
}

// VM is a virtual machine: a partition of p PEs controlled by
// ceil(p/PEsPerMC) MCs, with its own network circuits. It can run SIMD
// programs (RunSIMD), asynchronous MIMD programs (RunMIMD), and MIMD
// programs with barrier synchronization — the paper's S/MIMD mode —
// which are simply MIMD programs that read from the SIMD space.
type VM struct {
	Cfg Config
	P   int // PEs in this partition
	Q   int // MCs in this partition
	// Base is the partition's first physical PE number when allocated
	// from a System (0 for stand-alone VMs, -1 after release).
	Base int

	PEs []*PE
	MCs []*MC
	net *netState
	bar *barrier

	// TraceHook, when non-nil, is called for every CPU a run creates
	// ("PE0".."PEn", "MC0"..), so callers can attach tracers before
	// execution starts.
	TraceHook func(unit string, cpu *m68k.CPU)

	// Obs, when non-nil, records the event stream and metrics of every
	// run (copied from Config.Obs by NewVM; assignable directly).
	Obs *obs.Recorder
	// obsPE maps PE index to its recorder unit id for the current run.
	obsPE []int
}

// NewVM builds a partition of p PEs.
func NewVM(cfg Config, p int) (*VM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if p < 1 || p > cfg.NumPEs || p&(p-1) != 0 {
		return nil, fmt.Errorf("pasm: partition size %d invalid for a %d-PE machine", p, cfg.NumPEs)
	}
	q := (p + cfg.PEsPerMC - 1) / cfg.PEsPerMC
	// The partition maps onto the machine-sized Extra-Stage Cube (the
	// prototype has one 16-line network shared by all partitions);
	// PE i of the partition uses network line i. A Config.Net (a
	// partition's subcube view of a larger shared network) replaces
	// the private network; the subcube isomorphism keeps results
	// identical.
	var net *netState
	if cfg.Net != nil {
		if got, want := cfg.Net.Size(), maxInt(cfg.NumPEs, 2); got != want {
			return nil, fmt.Errorf("pasm: injected network has %d lines, a %d-PE machine needs %d", got, cfg.NumPEs, want)
		}
		cfg.Net.ReleaseAll() // a new VM starts with no circuits
		net = netStateOn(cfg.Net, cfg.NetLatency, cfg.NetAccessExtra, cfg.NetSetupCycles)
	} else {
		var err error
		net, err = newNetState(maxInt(cfg.NumPEs, 2), cfg.NetLatency, cfg.NetAccessExtra, cfg.NetSetupCycles)
		if err != nil {
			return nil, err
		}
	}
	vm := &VM{Cfg: cfg, P: p, Q: q, net: net, bar: newBarrier(p), Obs: cfg.Obs}
	for i := 0; i < p; i++ {
		mem := m68k.NewMemory(cfg.PEMemBytes)
		mem.WaitStates = cfg.DRAMWaitStates
		mem.RefreshPeriod = cfg.RefreshPeriod
		mem.RefreshStall = cfg.RefreshStall
		pe := &PE{Index: i, Mem: mem}
		pe.dev = &deviceBus{pe: i, net: net, bar: vm.bar, barX: cfg.BarrierExtra}
		vm.PEs = append(vm.PEs, pe)
	}
	for g := 0; g < q; g++ {
		mem := m68k.NewMemory(cfg.MCMemBytes)
		mem.WaitStates = cfg.DRAMWaitStates
		mem.RefreshPeriod = cfg.RefreshPeriod
		mem.RefreshStall = cfg.RefreshStall
		queue, err := fetchunit.NewQueue(cfg.QueueDepthWords, cfg.QueueWordCycles)
		if err != nil {
			return nil, err
		}
		mc := &MC{Index: g, Mem: mem, Queue: queue}
		lo := g * cfg.PEsPerMC
		hi := minInt(lo+cfg.PEsPerMC, p)
		mc.PEs = vm.PEs[lo:hi]
		mc.Mask = fetchunit.AllEnabled(len(mc.PEs))
		vm.MCs = append(vm.MCs, mc)
	}
	return vm, nil
}

// EstablishShift sets up the static circuit permutation
// PE i -> PE (i-1) mod p used by the matrix-multiplication algorithm.
func (vm *VM) EstablishShift() error {
	perm := make([]int, vm.net.nw.Size())
	for i := range perm {
		perm[i] = -1
	}
	if vm.P == 1 {
		return vm.net.Establish(perm) // single PE: no circuits
	}
	for i := 0; i < vm.P; i++ {
		perm[i] = (i - 1 + vm.P) % vm.P
	}
	return vm.net.Establish(perm)
}

// EstablishPermutation sets up an arbitrary circuit permutation
// (perm[src] = dst, -1 to skip).
func (vm *VM) EstablishPermutation(perm []int) error {
	full := make([]int, vm.net.nw.Size())
	for i := range full {
		full[i] = -1
	}
	copy(full, perm)
	return vm.net.Establish(full)
}

// FailNetworkBox marks an interchange box of this partition's
// Extra-Stage Cube faulty. Call before establishing circuits: later
// Establish calls route around the fault via the extra stage (the
// ESC's single-fault tolerance).
func (vm *VM) FailNetworkBox(stage, box int) error {
	return vm.net.nw.FailBox(stage, box)
}

// NetTransfers returns completed byte deliveries in the last run.
func (vm *VM) NetTransfers() int64 { return vm.net.transfers }

// NetReconfigs returns run-time circuit establishments in the last run.
func (vm *VM) NetReconfigs() int64 { return vm.net.reconfigs }

// BarrierRounds returns completed barrier rounds in the last run.
func (vm *VM) BarrierRounds() int { return vm.bar.rounds }

// RunResult reports a completed run.
type RunResult struct {
	// Cycles is the virtual machine's completion time: the latest PE
	// clock (the MCs' own completion is control overhead that the
	// paper's timings subsume into it).
	Cycles int64
	// PEClocks are the per-PE completion times.
	PEClocks []int64
	// Regions is the execution-time component breakdown of the
	// critical-path (latest) PE, including time spent waiting at
	// lockstep releases, barriers and network registers, attributed to
	// the waiting instruction's region.
	Regions [m68k.NumRegions]int64
	// Instrs is the total instructions executed by all PEs.
	Instrs int64
	// MCInstrs is the total instructions executed by all MCs
	// (SIMD mode only).
	MCInstrs int64
	// QueueMaxOccupancy is the deepest any Fetch Unit queue got, in
	// words (SIMD mode only).
	QueueMaxOccupancy int
	// PEStarveCycles is the total time PEs spent waiting for the
	// Fetch Unit to finish enqueuing an instruction (all groups).
	// Near zero means control flow was completely hidden — the
	// mechanism behind the paper's superlinear SIMD speed-up.
	PEStarveCycles int64
	// MCStallCycles is the total MC time lost waiting for the Fetch
	// Unit controller before a BCAST, and QueueStallCycles the
	// controller time lost to a full queue (back-pressure).
	MCStallCycles    int64
	QueueStallCycles int64
	// BarrierRounds counts completed barrier synchronizations.
	BarrierRounds int
	// NetTransfers counts delivered network bytes.
	NetTransfers int64
	// NetReconfigs counts run-time circuit establishments.
	NetReconfigs int64
}

// Seconds converts the run's cycle count to seconds at the configured
// clock rate.
func (r RunResult) Seconds(cfg Config) float64 {
	return float64(r.Cycles) / cfg.ClockHz
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
