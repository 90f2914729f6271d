package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestPartitionSweepShape: the co-scheduling sweep on the prototype
// machine builds the two size classes that fit 16 PEs, beats (or ties)
// the serial whole-machine baseline first-fit, and renders the
// first-fit row.
func TestPartitionSweepShape(t *testing.T) {
	res, err := PartitionSweep(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.MachinePEs != 16 {
		t.Fatalf("machine = %d PEs, want the 16-PE prototype", res.MachinePEs)
	}
	if len(res.Classes) != 2 || res.Classes[0].PEs != 4 || res.Classes[1].PEs != 16 {
		t.Fatalf("classes = %+v, want the 4- and 16-PE classes", res.Classes)
	}
	for _, c := range res.Classes {
		if c.Cycles <= 0 {
			t.Errorf("class p=%d measured %d cycles", c.PEs, c.Cycles)
		}
	}
	row := res.FirstFit
	if row.Makespan <= 0 || row.Makespan > res.SerialMakespan {
		t.Errorf("makespan %d outside (0, serial %d]", row.Makespan, res.SerialMakespan)
	}
	if row.Speedup < 1 {
		t.Errorf("speedup %.2f < 1 (co-scheduling can never lose to serial)", row.Speedup)
	}
	if row.UtilizationPct <= 0 || row.UtilizationPct > 100 {
		t.Errorf("utilization %.1f%%", row.UtilizationPct)
	}
	out := res.Render()
	for _, want := range []string{"firstfit", "serial whole-machine baseline"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	sum := res.Summary()
	for _, key := range []string{"machine/pes", "serial/makespan", "cell/p=4/cycles",
		"policy/firstfit/makespan", "policy/firstfit/speedup", "policy/firstfit/peak_frag_pct"} {
		if _, ok := sum[key]; !ok {
			t.Errorf("summary missing %q", key)
		}
	}
}

// TestPartitionSweepScalesWithMachine: pes=64 admits the 64-PE class
// and changes the schedule, which is why pes is part of the cache key.
func TestPartitionSweepScalesWithMachine(t *testing.T) {
	if testing.Short() {
		t.Skip("64-PE class simulates an n=64 cell")
	}
	opts := quickOpts()
	applyPEs(&opts.Config, 64)
	res, err := PartitionSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.MachinePEs != 64 || len(res.Classes) != 3 || res.Classes[2].PEs != 64 {
		t.Fatalf("machine=%d classes=%+v, want the 64-PE class present", res.MachinePEs, res.Classes)
	}
	if _, ok := res.Summary()["cell/p=64/cycles"]; !ok {
		t.Error("summary missing the 64-PE class")
	}
}

// TestPartitionSweepDeterministic: the report is byte-identical for
// any host parallelism (the schedule is a discrete-event simulation on
// the simulated clock, not host goroutine timing).
func TestPartitionSweepDeterministic(t *testing.T) {
	spec := Spec{Exps: []string{"ext-partition"}, Seed: 1988}
	marshal := func(parallelism int) []byte {
		t.Helper()
		opts := DefaultOptions()
		opts.Parallelism = parallelism
		rep, err := RunSpec(spec, RunConfig{Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		buf, err := rep.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	if a, b := marshal(1), marshal(4); !bytes.Equal(a, b) {
		t.Errorf("ext-partition report depends on host parallelism:\n%s\nvs\n%s", a, b)
	}
}
