package smoothing

import (
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/pasm"
)

// tier selects one of the three interpreter configurations under
// differential test (see cmd/pasmbench's -interp flag).
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

func (tr tier) apply(cfg *pasm.Config) {
	switch tr {
	case tierReference:
		cfg.DisableExecTable = true
	case tierTable:
		cfg.DisableSuperinstructions = true
	}
}

// executeWith runs one smoothing configuration end to end on the
// given interpreter tier with a full observability recorder attached.
// workers > 1 advances MIMD-section PEs on parallel host goroutines.
func executeWith(t *testing.T, spec Spec, img Image, tr tier, workers int) (pasm.RunResult, Image, *obs.Recorder) {
	t.Helper()
	prog, l, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
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
	if err := Load(vm, l, img); err != nil {
		t.Fatal(err)
	}
	var res pasm.RunResult
	if spec.Mode == SIMD {
		res, err = vm.RunSIMD(prog)
	} else {
		res, err = vm.RunMIMD(prog)
	}
	if err != nil {
		t.Fatalf("%v run: %v", spec.Mode, err)
	}
	out, err := ReadOut(vm, l)
	if err != nil {
		t.Fatal(err)
	}
	return res, out, cfg.Obs
}

// TestInterpreterTierEquivalenceSmoothing runs every smoothing
// program variant through the 3-way interpreter matrix — dynamic
// reference, exec table, superinstructions — and requires identical
// run results, identical output images, and event-for-event identical
// observability streams. The super tier runs with parallel host
// workers so `go test -race` exercises the DES engine's per-PE
// isolation.
func TestInterpreterTierEquivalenceSmoothing(t *testing.T) {
	const h, w, p = 8, 16, 4
	img := RandomImage(h, w, 0xFACE)
	want := Reference(img)
	for _, mode := range []Mode{Serial, SIMD, MIMD, SMIMD} {
		spec := Spec{H: h, W: w, P: p, Mode: mode}
		var resRef pasm.RunResult
		var outRef Image
		var obsRef *obs.Recorder
		for _, tr := range allTiers {
			workers := 1
			if tr == tierSuper {
				workers = 4
			}
			res, out, rec := executeWith(t, spec, img, tr, workers)
			if !Equal(out, want) {
				t.Errorf("%v/%v: output is wrong", mode, tr)
			}
			if tr == tierReference {
				resRef, outRef, obsRef = res, out, rec
				continue
			}
			label := mode.String() + "/" + tr.String()
			if !reflect.DeepEqual(res, resRef) {
				t.Errorf("%s: run results differ:\nreference: %+v\ngot:       %+v", label, resRef, res)
			}
			if !Equal(out, outRef) {
				t.Errorf("%s: output images differ between interpreter tiers", label)
			}
			re, ge := obsRef.Merged(), rec.Merged()
			if len(re) != len(ge) {
				t.Errorf("%s: event counts differ: reference %d vs %d", label, len(re), len(ge))
				continue
			}
			for i := range re {
				if re[i] != ge[i] {
					t.Errorf("%s: event %d differs: reference %+v vs %+v", label, i, re[i], ge[i])
					break
				}
			}
			rm, gm := obsRef.Metrics().Flatten(""), rec.Metrics().Flatten("")
			if !reflect.DeepEqual(rm, gm) {
				t.Errorf("%s: metrics differ:\nreference: %v\ngot:       %v", label, rm, gm)
			}
		}
	}
}
