package partition

import (
	"errors"
	"testing"

	"repro/internal/m68k"
	"repro/internal/pasm"
)

func newTestMachine(t *testing.T, pes int) *Machine {
	t.Helper()
	cfg := pasm.DefaultConfig()
	cfg.NumPEs = pes
	cfg.PEMemBytes = 1 << 16
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMachineAcquireAlignment(t *testing.T) {
	m := newTestMachine(t, 16)
	l8, err := m.Acquire(8)
	if err != nil {
		t.Fatal(err)
	}
	if l8.Base != 0 {
		t.Errorf("first 8-PE partition at base %d, want 0", l8.Base)
	}
	l4, err := m.Acquire(4)
	if err != nil {
		t.Fatal(err)
	}
	if l4.Base != 8 {
		t.Errorf("4-PE partition at base %d, want 8", l4.Base)
	}
	l2, err := m.Acquire(2)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Base != 12 {
		t.Errorf("2-PE partition at base %d, want 12", l2.Base)
	}
	if m.FreePEs() != 2 || m.LargestFree() != 2 {
		t.Errorf("FreePEs = %d, LargestFree = %d, want 2, 2", m.FreePEs(), m.LargestFree())
	}
	// A 4-PE partition needs an aligned subcube: only 14..15 remain.
	if _, err := m.Acquire(4); err == nil {
		t.Error("unaligned/unavailable partition accepted")
	}
	if err := l4.Release(); err != nil {
		t.Fatal(err)
	}
	if m.FreePEs() != 6 || m.LargestFree() != 4 {
		t.Errorf("after release: FreePEs = %d, LargestFree = %d, want 6, 4", m.FreePEs(), m.LargestFree())
	}
	// Now 8..11 is free and aligned again.
	if _, err := m.Acquire(4); err != nil {
		t.Errorf("re-acquisition failed: %v", err)
	}
}

func TestMachineReleaseValidation(t *testing.T) {
	m := newTestMachine(t, 16)
	l, err := m.Acquire(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Release(); err != nil {
		t.Fatal(err)
	}
	if err := l.Release(); err == nil {
		t.Error("double release accepted")
	}
}

func TestMachineSizeValidation(t *testing.T) {
	m := newTestMachine(t, 16)
	for _, bad := range []int{0, 3, 32, -4} {
		if _, err := m.Acquire(bad); err == nil {
			t.Errorf("Acquire(%d) accepted", bad)
		}
	}
	cfg := pasm.DefaultConfig()
	cfg.Net = &escubeStub{}
	if _, err := New(cfg); err == nil {
		t.Error("template with an injected network accepted")
	}
}

// escubeStub satisfies pasm.Net for the template-validation test.
type escubeStub struct{}

func (*escubeStub) Size() int                        { return 16 }
func (*escubeStub) Establish(src, dst int) error     { return nil }
func (*escubeStub) EstablishPermutation([]int) error { return nil }
func (*escubeStub) Release(int)                      {}
func (*escubeStub) ReleaseAll()                      {}
func (*escubeStub) DestOf(int) int                   { return -1 }
func (*escubeStub) FailBox(int, int) error           { return nil }

func TestRunJobsConcurrently(t *testing.T) {
	m := newTestMachine(t, 16)
	mkJob := func(name string, pes int, value uint16) Job {
		return Job{
			Name: name,
			PEs:  pes,
			Run: func(vm *pasm.VM) (pasm.RunResult, error) {
				prog := m68k.MustAssemble(`
					move.w  $100, d0
					mulu.w  d0, d0
					move.w  d0, $102
					halt
				`)
				for _, pe := range vm.PEs {
					if err := pe.Mem.WriteWords(0x100, []uint16{value}); err != nil {
						return pasm.RunResult{}, err
					}
				}
				if err := vm.EstablishShift(); err != nil {
					return pasm.RunResult{}, err
				}
				res, err := vm.RunMIMD(prog)
				if err != nil {
					return pasm.RunResult{}, err
				}
				for _, pe := range vm.PEs {
					v, _ := pe.Mem.Read(0x102, m68k.Word)
					if v != uint32(value)*uint32(value)&0xFFFF {
						return pasm.RunResult{}, errors.New("wrong result")
					}
				}
				return res, nil
			},
		}
	}
	jobs := []Job{
		mkJob("alpha", 8, 11),
		mkJob("beta", 4, 22),
		mkJob("gamma", 2, 33),
		mkJob("delta", 2, 44),
	}
	results, err := m.RunJobs(jobs)
	if err != nil {
		t.Fatal(err)
	}
	bases := map[int]bool{}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("job %s: %v", r.Name, r.Err)
		}
		if r.Result.Cycles == 0 {
			t.Errorf("job %s: no cycles", r.Name)
		}
		if bases[r.Base] {
			t.Errorf("job %s shares base %d", r.Name, r.Base)
		}
		bases[r.Base] = true
	}
	if m.FreePEs() != 16 {
		t.Errorf("PEs leaked: %d free", m.FreePEs())
	}
	metrics := m.Metrics("partition/")
	if metrics["partition/leases_total"] != 4 || metrics["partition/releases_total"] != 4 {
		t.Errorf("lease counters: %+v", metrics)
	}
	if metrics["partition/pes_busy_peak"] != 16 {
		t.Errorf("peak busy = %v, want 16", metrics["partition/pes_busy_peak"])
	}
	if metrics["partition/occupancy_pct"] != 0 {
		t.Errorf("occupancy after drain = %v, want 0", metrics["partition/occupancy_pct"])
	}
}

func TestRunJobsOverallocation(t *testing.T) {
	m := newTestMachine(t, 16)
	jobs := []Job{
		{Name: "a", PEs: 16, Run: func(vm *pasm.VM) (pasm.RunResult, error) { return pasm.RunResult{}, nil }},
		{Name: "b", PEs: 2, Run: func(vm *pasm.VM) (pasm.RunResult, error) { return pasm.RunResult{}, nil }},
	}
	if _, err := m.RunJobs(jobs); err == nil {
		t.Error("over-allocation accepted")
	}
	if m.FreePEs() != 16 {
		t.Errorf("failed RunJobs leaked PEs: %d free", m.FreePEs())
	}
}

func TestLeaseConfigClamps(t *testing.T) {
	m := newTestMachine(t, 64)
	l, err := m.Acquire(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := l.Config(m.Config())
	if cfg.NumPEs != 2 {
		t.Errorf("NumPEs = %d, want 2", cfg.NumPEs)
	}
	if cfg.PEsPerMC != 2 {
		t.Errorf("PEsPerMC = %d, want clamped to 2", cfg.PEsPerMC)
	}
	if cfg.Net == nil || cfg.Net.Size() != 2 {
		t.Errorf("Net view missing or wrong size")
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("derived config invalid: %v", err)
	}
	// A 1-PE partition still carries a 2-line view — the standalone
	// 1-PE machine's network size.
	one, err := m.Acquire(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := one.Config(m.Config()); got.Net.Size() != 2 || got.NumPEs != 1 {
		t.Errorf("1-PE lease: NumPEs=%d view=%d", got.NumPEs, got.Net.Size())
	}
	vm, err := one.NewVM()
	if err != nil {
		t.Fatal(err)
	}
	if vm.P != 1 || vm.Base != one.Base {
		t.Errorf("vm.P=%d Base=%d", vm.P, vm.Base)
	}
}
