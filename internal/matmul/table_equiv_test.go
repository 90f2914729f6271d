package matmul

import (
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/pasm"
)

// tier selects one of the three interpreter configurations under
// differential test: the dynamic reference path, the pre-resolved
// execution table, and the superinstruction tier.
type tier int

const (
	tierReference tier = iota
	tierTable
	tierSuper
)

var allTiers = []tier{tierReference, tierTable, tierSuper}

func (tr tier) String() string {
	switch tr {
	case tierReference:
		return "reference"
	case tierTable:
		return "table"
	default:
		return "super"
	}
}

// apply configures cfg for the tier the same way cmd/pasmbench's
// -interp flag does.
func (tr tier) apply(cfg *pasm.Config) {
	switch tr {
	case tierReference:
		cfg.DisableExecTable = true
	case tierTable:
		cfg.DisableSuperinstructions = true
	}
}

// executeWith runs one spec end to end on the given interpreter tier
// with a full observability recorder attached. workers > 1 advances
// MIMD-section PEs on parallel host goroutines.
func executeWith(t *testing.T, spec Spec, a, b Matrix, tr tier, workers int) (pasm.RunResult, Matrix, *obs.Recorder) {
	t.Helper()
	prog, l, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pasm.DefaultConfig()
	if need := l.MemBytes(); cfg.PEMemBytes < need {
		cfg.PEMemBytes = need
	}
	tr.apply(&cfg)
	cfg.HostWorkers = workers
	cfg.Obs = obs.New(obs.Config{Events: obs.AllKinds, Metrics: true})
	vm, err := pasm.NewVM(cfg, l.P)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.EstablishShift(); err != nil {
		t.Fatal(err)
	}
	if err := Load(vm, l, a, b); err != nil {
		t.Fatal(err)
	}
	var res pasm.RunResult
	switch spec.Mode {
	case SIMD, Mixed:
		res, err = vm.RunSIMD(prog)
	default:
		res, err = vm.RunMIMD(prog)
	}
	if err != nil {
		t.Fatalf("%v run: %v", spec.Mode, err)
	}
	c, err := ReadC(vm, l)
	if err != nil {
		t.Fatal(err)
	}
	return res, c, cfg.Obs
}

// diffObs requires two recorders to have captured the same simulated
// run: identical merged event streams (every field, in order) and
// identical flattened metrics. Any divergence means the two
// interpreter paths disagree about what the machine did, not just
// about the final answer.
func diffObs(t *testing.T, label string, ref, got *obs.Recorder) {
	t.Helper()
	re, ge := ref.Merged(), got.Merged()
	if len(re) != len(ge) {
		t.Errorf("%s: event counts differ: reference %d vs %d", label, len(re), len(ge))
		return
	}
	for i := range re {
		if re[i] != ge[i] {
			t.Errorf("%s: event %d differs: reference %+v vs %+v", label, i, re[i], ge[i])
			return
		}
	}
	rm, gm := ref.Metrics().Flatten(""), got.Metrics().Flatten("")
	if !reflect.DeepEqual(rm, gm) {
		t.Errorf("%s: metrics differ:\nreference: %v\ngot:       %v", label, rm, gm)
	}
}

// diffResults requires two run results to describe the same simulated
// execution.
func diffResults(t *testing.T, label string, ref, got pasm.RunResult) {
	t.Helper()
	if !reflect.DeepEqual(ref, got) {
		t.Errorf("%s: run results differ:\nreference: %+v\ngot:       %+v", label, ref, got)
	}
}

// TestInterpreterTierEquivalenceAllPrograms runs all generated
// matrix-multiplication programs through the 3-way interpreter matrix
// — dynamic reference, exec table, superinstructions — and requires
// identical cycle counts, per-PE clocks, region breakdowns,
// instruction counts, results, and (event for event) identical
// observability streams. The super tier additionally runs with
// parallel host workers, so `go test -race` exercises the DES
// engine's per-PE isolation.
func TestInterpreterTierEquivalenceAllPrograms(t *testing.T) {
	const n, p = 8, 4
	a := Identity(n)
	b := Random(n, 0xC0FFEE)
	for _, mode := range []Mode{Serial, SIMD, MIMD, SMIMD} {
		spec := Spec{N: n, P: p, Muls: 2, Mode: mode}
		resRef, cRef, obsRef := executeWith(t, spec, a, b, tierReference, 1)
		want := Reference(a, b)
		if !Equal(cRef, want) {
			t.Errorf("%v: reference result is wrong", mode)
		}
		for _, tr := range []tier{tierTable, tierSuper} {
			workers := 1
			if tr == tierSuper {
				workers = 4
			}
			res, c, rec := executeWith(t, spec, a, b, tr, workers)
			label := mode.String() + "/" + tr.String()
			diffResults(t, label, resRef, res)
			diffObs(t, label, obsRef, rec)
			if !Equal(c, cRef) {
				t.Errorf("%s: result matrices differ", label)
			}
		}
	}
}

// TestVMReuseIdentity reruns the same MIMD program on one VM and
// requires every rerun to be indistinguishable from a run on a fresh
// VM: nothing a run leaves in the VM may change the next one.
func TestVMReuseIdentity(t *testing.T) {
	const n, p = 16, 4
	a := Identity(n)
	b := Random(n, 0xFACE)
	spec := Spec{N: n, P: p, Muls: 4, Mode: MIMD}
	prog, l, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pasm.DefaultConfig()
	if need := l.MemBytes(); cfg.PEMemBytes < need {
		cfg.PEMemBytes = need
	}
	newVM := func() *pasm.VM {
		vm, err := pasm.NewVM(cfg, l.P)
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.EstablishShift(); err != nil {
			t.Fatal(err)
		}
		return vm
	}
	run := func(vm *pasm.VM) pasm.RunResult {
		if err := Load(vm, l, a, b); err != nil {
			t.Fatal(err)
		}
		res, err := vm.RunMIMD(prog)
		if err != nil {
			t.Fatal(err)
		}
		c, err := ReadC(vm, l)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(c, Reference(a, b)) {
			t.Fatal("wrong product")
		}
		return res
	}
	fresh := run(newVM())
	vm := newVM()
	for i := 0; i < 3; i++ {
		if got := run(vm); !reflect.DeepEqual(got, fresh) {
			t.Errorf("run %d on a reused VM diverged from a fresh VM:\nfresh: %+v\ngot:   %+v", i, fresh, got)
		}
	}
}
