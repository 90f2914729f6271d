package partition

import (
	"reflect"
	"testing"
)

func TestSimulateBackfill(t *testing.T) {
	// A 16-PE machine: the 16-PE job occupies the whole machine; two
	// 4-PE jobs queued behind it share the machine afterwards.
	jobs := []SimJob{
		{Name: "big", PEs: 16, Cycles: 100, Arrival: 0},
		{Name: "a", PEs: 4, Cycles: 50, Arrival: 10},
		{Name: "b", PEs: 4, Cycles: 50, Arrival: 10},
	}
	res, err := Simulate(16, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].Start != 0 || res.Jobs[0].Finish != 100 {
		t.Errorf("big: %+v", res.Jobs[0])
	}
	// Both 4-PE jobs start the instant the big one finishes, on
	// disjoint subcubes, and overlap fully.
	for _, i := range []int{1, 2} {
		if res.Jobs[i].Start != 100 || res.Jobs[i].Finish != 150 {
			t.Errorf("job %d: %+v", i, res.Jobs[i])
		}
		if res.Jobs[i].Wait != 90 {
			t.Errorf("job %d wait = %d, want 90", i, res.Jobs[i].Wait)
		}
	}
	if res.Jobs[1].Base == res.Jobs[2].Base {
		t.Error("co-resident jobs share a base")
	}
	if res.Makespan != 150 {
		t.Errorf("makespan = %d, want 150", res.Makespan)
	}
	if res.MaxWait != 90 || res.MeanWait != 60 {
		t.Errorf("waits: max=%d mean=%v", res.MaxWait, res.MeanWait)
	}
	// Useful work: 16*100 + 2*4*50 = 2000 PE-cycles over 16*150.
	if res.BusyPECycles != 2000 {
		t.Errorf("busy = %d", res.BusyPECycles)
	}
	if want := 2000.0 / (16 * 150); res.Utilization != want {
		t.Errorf("utilization = %v, want %v", res.Utilization, want)
	}
	// Serial baseline: 100 + 50 + 50.
	if s := SerialMakespan(jobs); s != 200 {
		t.Errorf("serial makespan = %d, want 200", s)
	}
}

func TestSimulateFragmentationStall(t *testing.T) {
	// Four 4-PE jobs fill the machine; the two short ones free
	// non-adjacent subcubes (4..7 and 12..15), so at t=10 the machine
	// has 8 free PEs in two 4-blocks — fragmented — and the queued
	// 8-PE job must wait for the long holders to finish.
	jobs := []SimJob{
		{Name: "longA", PEs: 4, Cycles: 100, Arrival: 0},
		{Name: "short1", PEs: 4, Cycles: 10, Arrival: 0},
		{Name: "longB", PEs: 4, Cycles: 100, Arrival: 0},
		{Name: "short2", PEs: 4, Cycles: 10, Arrival: 0},
		{Name: "big", PEs: 8, Cycles: 20, Arrival: 5},
	}
	res, err := Simulate(16, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[4].Start != 100 {
		t.Errorf("big started at %d, want 100 (after the long holders)", res.Jobs[4].Start)
	}
	// While big waited, the free pool was two scattered 4-blocks:
	// fragmentation 1 - 4/8.
	if res.PeakFragmentation != 0.5 {
		t.Errorf("peak fragmentation = %v, want 0.5", res.PeakFragmentation)
	}
	if res.Makespan != 120 {
		t.Errorf("makespan = %d, want 120", res.Makespan)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	jobs := []SimJob{
		{Name: "a", PEs: 8, Cycles: 70, Arrival: 0},
		{Name: "b", PEs: 8, Cycles: 30, Arrival: 0},
		{Name: "c", PEs: 4, Cycles: 90, Arrival: 20},
		{Name: "d", PEs: 16, Cycles: 40, Arrival: 25},
		{Name: "e", PEs: 2, Cycles: 15, Arrival: 25},
	}
	first, err := Simulate(16, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := Simulate(16, jobs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d diverged:\n%+v\n%+v", i, first, again)
		}
	}
}

func TestSimulateErrors(t *testing.T) {
	if _, err := Simulate(16, []SimJob{{Name: "x", PEs: 3, Cycles: 1}}); err == nil {
		t.Error("non-power-of-two job size accepted")
	}
	if _, err := Simulate(16, []SimJob{{Name: "x", PEs: 32, Cycles: 1}}); err == nil {
		t.Error("oversize job accepted")
	}
	if _, err := Simulate(16, []SimJob{{Name: "x", PEs: 4, Cycles: -1}}); err == nil {
		t.Error("negative cycles accepted")
	}
	if _, err := Simulate(3, nil); err == nil {
		t.Error("non-power-of-two machine accepted")
	}
	res, err := Simulate(16, nil)
	if err != nil || res.Makespan != 0 {
		t.Errorf("empty job set: %+v, %v", res, err)
	}
}
