package partition

import (
	"fmt"
	"sync"

	"repro/internal/escube"
	"repro/internal/pasm"
)

// Machine is a partitionable PASM machine: a pool of cfg.NumPEs
// processing elements and ONE physical Extra-Stage Cube, carved into
// subcube partitions by a buddy allocator. Acquire leases a
// partition; the lease's virtual machines route through a subcube
// view of the shared network, so co-resident jobs run concurrently
// with cycle counts identical to standalone machines of their size.
//
// Safe for concurrent use.
type Machine struct {
	cfg pasm.Config
	nw  *escube.Network

	// netMu serializes circuit mutations across all partition views
	// of the shared network (escube.Subcube's Locker).
	netMu sync.Mutex

	mu       sync.Mutex
	buddy    *Buddy
	leases   map[int]*Lease
	busyPEs  int
	peakBusy int
	acquired int64
	released int64
}

// New builds a machine of cfg.NumPEs processing elements (a power of
// two, MinBlock..MaxPEs). cfg is the template every lease's virtual
// machines inherit (clock, memory, queue and network timing
// parameters); cfg.Net must be nil — the machine owns the physical
// network.
func New(cfg pasm.Config) (*Machine, error) {
	if cfg.Net != nil {
		return nil, fmt.Errorf("partition: template config must not inject a network")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	buddy, err := NewBuddy(cfg.NumPEs)
	if err != nil {
		return nil, err
	}
	nw, err := escube.New(cfg.NumPEs)
	if err != nil {
		return nil, err
	}
	return &Machine{
		cfg:    cfg,
		nw:     nw,
		buddy:  buddy,
		leases: map[int]*Lease{},
	}, nil
}

// Config returns the machine's template configuration.
func (m *Machine) Config() pasm.Config { return m.cfg }

// PEs returns the machine size.
func (m *Machine) PEs() int { return m.cfg.NumPEs }

// FreePEs returns the unallocated PE count.
func (m *Machine) FreePEs() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.buddy.FreePEs()
}

// LargestFree returns the size of the largest free block (0 when the
// machine is full). A partition of pes PEs can be allocated right now
// iff pes <= LargestFree(): the partition dispatcher's fit probe, read
// once per pick so every queued job is tested against the same free
// state.
func (m *Machine) LargestFree() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.buddy.LargestFree()
}

// Lease is an allocated partition: a block of PEs and the subcube
// view of the machine's network its virtual machines route through.
type Lease struct {
	m *Machine
	// Base is the partition's first physical PE.
	Base int
	// PEs is the requested partition size (1..machine size; a 1-PE
	// partition still reserves a 2-PE block, see MinBlock).
	PEs int

	view     *escube.Subcube
	released bool
}

// Acquire leases a partition of pes PEs (a power of two up to the
// machine size) at the lowest free aligned base. The lease must be
// returned with Release.
func (m *Machine) Acquire(pes int) (*Lease, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	base, err := m.buddy.Alloc(pes)
	if err != nil {
		return nil, err
	}
	view, err := m.nw.Subcube(base, blockFor(pes), &m.netMu)
	if err != nil {
		// Unreachable: buddy blocks are aligned subcubes by
		// construction.
		m.buddy.Free(base)
		return nil, err
	}
	l := &Lease{m: m, Base: base, PEs: pes, view: view}
	m.leases[base] = l
	m.busyPEs += blockFor(pes)
	if m.busyPEs > m.peakBusy {
		m.peakBusy = m.busyPEs
	}
	m.acquired++
	return l, nil
}

// Release tears down the partition's circuits and returns its PEs to
// the pool. Releasing twice is an error.
func (l *Lease) Release() error {
	m := l.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if l.released {
		return fmt.Errorf("partition: lease at PE %d released twice", l.Base)
	}
	l.view.ReleaseAll()
	if err := m.buddy.Free(l.Base); err != nil {
		return err
	}
	l.released = true
	delete(m.leases, l.Base)
	m.busyPEs -= blockFor(l.PEs)
	m.released++
	return nil
}

// Config derives the pasm.Config for a virtual machine on this
// partition from a base configuration: the machine shrinks to the
// partition's size, the MC group size clamps to fit, and the network
// is the partition's subcube view. pasm.NewVM validates the rest.
func (l *Lease) Config(base pasm.Config) pasm.Config {
	base.NumPEs = l.PEs
	if base.PEsPerMC > l.PEs {
		base.PEsPerMC = l.PEs
	}
	base.Net = l.view
	return base
}

// NewVM builds a virtual machine of the partition's full size using
// the machine's template configuration.
func (l *Lease) NewVM() (*pasm.VM, error) {
	vm, err := pasm.NewVM(l.Config(l.m.cfg), l.PEs)
	if err != nil {
		return nil, err
	}
	vm.Base = l.Base
	return vm, nil
}

// Job is one unit of work for RunJobs: a partition size and a
// function to execute on the allocated virtual machine.
type Job struct {
	// Name identifies the job in results.
	Name string
	// PEs is the partition size.
	PEs int
	// Run executes the job on its partition (loading memories,
	// establishing circuits, and calling RunSIMD/RunMIMD as needed).
	Run func(vm *pasm.VM) (pasm.RunResult, error)
}

// JobResult pairs a job with its outcome.
type JobResult struct {
	Name   string
	Base   int // PE block the job ran on
	Result pasm.RunResult
	Err    error
}

// RunJobs allocates a partition per job and runs all jobs
// concurrently, one goroutine per partition — independent virtual
// machines executing simultaneously, as on the real system. It fails
// fast at allocation time if the jobs cannot coexist; individual job
// errors are reported per job.
func (m *Machine) RunJobs(jobs []Job) ([]JobResult, error) {
	leases := make([]*Lease, len(jobs))
	for i, job := range jobs {
		l, err := m.Acquire(job.PEs)
		if err != nil {
			for _, held := range leases[:i] {
				held.Release()
			}
			return nil, fmt.Errorf("partition: job %q: %w", job.Name, err)
		}
		leases[i] = l
	}
	results := make([]JobResult, len(jobs))
	var wg sync.WaitGroup
	for i, job := range jobs {
		wg.Add(1)
		go func(i int, job Job, l *Lease) {
			defer wg.Done()
			vm, err := l.NewVM()
			if err != nil {
				results[i] = JobResult{Name: job.Name, Base: l.Base, Err: err}
				return
			}
			res, err := job.Run(vm)
			results[i] = JobResult{Name: job.Name, Base: l.Base, Result: res, Err: err}
		}(i, job, leases[i])
	}
	wg.Wait()
	for _, l := range leases {
		if err := l.Release(); err != nil {
			return results, err
		}
	}
	return results, nil
}

// Metrics returns the machine's occupancy and fragmentation state as
// a flat metric map, every key prefixed (e.g. "partition/").
func (m *Machine) Metrics(prefix string) map[string]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	allocs, frees, splits, coalesces, failed := m.buddy.Counters()
	total := float64(m.buddy.Total())
	out := map[string]float64{
		prefix + "pes_total":          total,
		prefix + "pes_busy":           float64(m.busyPEs),
		prefix + "pes_free":           float64(m.buddy.FreePEs()),
		prefix + "pes_busy_peak":      float64(m.peakBusy),
		prefix + "occupancy_pct":      100 * float64(m.busyPEs) / total,
		prefix + "largest_free_block": float64(m.buddy.LargestFree()),
		prefix + "fragmentation_pct":  100 * m.buddy.Fragmentation(),
		prefix + "leases_active":      float64(len(m.leases)),
		prefix + "leases_total":       float64(m.acquired),
		prefix + "releases_total":     float64(m.released),
		prefix + "alloc_failed_total": float64(failed),
		prefix + "buddy_allocs":       float64(allocs),
		prefix + "buddy_frees":        float64(frees),
		prefix + "buddy_splits":       float64(splits),
		prefix + "buddy_coalesces":    float64(coalesces),
	}
	return out
}
