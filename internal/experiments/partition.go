package experiments

import (
	"fmt"

	"repro/internal/matmul"
	"repro/internal/partition"
	"repro/internal/stats"
)

// PartitionClass is one job size class of the co-scheduling sweep:
// the partition size, the cell measured for it, and how many copies
// the storm submits.
type PartitionClass struct {
	PEs    int
	N      int // matmul problem size of the class's cell
	Count  int
	Cycles int64 // measured standalone run time (= partitioned run time)
}

// PartitionRow is the first-fit schedule's outcome on the storm.
type PartitionRow struct {
	Makespan       int64
	Speedup        float64 // serial whole-machine baseline / makespan
	UtilizationPct float64
	MeanWait       float64
	MaxWait        int64
	PeakFragPct    float64
}

// PartitionResult is the partitioned co-scheduling sweep: a mixed-size
// job storm packed onto the machine first-fit (pasmd's partition
// dispatcher order), against the serial whole-machine baseline. Job
// durations come from real cell simulations; the subcube isomorphism
// (which the partition package's differential tests enforce) makes
// them placement-independent, so the discrete-event schedule is exact
// and fully deterministic.
type PartitionResult struct {
	MachinePEs     int
	Classes        []PartitionClass
	SerialMakespan int64
	FirstFit       PartitionRow
	// Obs is the aggregated observability metrics of the measurement
	// cells (Options.Observe).
	Obs ObsMetrics
}

// PartitionSweep measures one cell per size class, builds the storm,
// and schedules it first-fit.
func PartitionSweep(opts Options) (*PartitionResult, error) {
	cfg := opts.Config
	r := newRunner(opts)

	// Size classes scale with the machine: a quarter-machine class is
	// always present; the larger classes join as the machine grows.
	classes := []PartitionClass{{PEs: 4, N: 16, Count: 6}}
	if cfg.NumPEs >= 16 {
		classes = append(classes, PartitionClass{PEs: 16, N: 32, Count: 4})
	}
	if cfg.NumPEs >= 64 {
		classes = append(classes, PartitionClass{PEs: 64, N: 64, Count: 2})
	}

	// Measure each class's cell once, standalone (cells fan out across
	// the host workers like any sweep).
	err := forEachCell(opts.workers(), len(classes), func(i int) error {
		res, err := r.exec(matmul.Spec{N: classes[i].N, P: classes[i].PEs, Muls: 1, Mode: matmul.SIMD})
		if err != nil {
			return fmt.Errorf("experiments: partition class p=%d: %w", classes[i].PEs, err)
		}
		classes[i].Cycles = res.Cycles
		return nil
	})
	if err != nil {
		return nil, err
	}

	// The storm interleaves the classes round-robin (small, mid,
	// large, small, ...) with a stagger of a quarter of the shortest
	// cell, so the queue always holds a size mix.
	shortest := classes[0].Cycles
	for _, c := range classes {
		if c.Cycles < shortest {
			shortest = c.Cycles
		}
	}
	var jobs []partition.SimJob
	remaining := make([]int, len(classes))
	for i, c := range classes {
		remaining[i] = c.Count
	}
	for more := true; more; {
		more = false
		for i, c := range classes {
			if remaining[i] == 0 {
				continue
			}
			remaining[i]--
			more = more || remaining[i] > 0
			jobs = append(jobs, partition.SimJob{
				Name:    fmt.Sprintf("p%d-%d", c.PEs, c.Count-remaining[i]),
				PEs:     c.PEs,
				Cycles:  c.Cycles,
				Arrival: int64(len(jobs)) * (shortest / 4),
			})
		}
	}

	out := &PartitionResult{
		MachinePEs:     cfg.NumPEs,
		Classes:        classes,
		SerialMakespan: partition.SerialMakespan(jobs),
		Obs:            r.obs.metrics(),
	}
	sim, err := partition.Simulate(cfg.NumPEs, jobs)
	if err != nil {
		return nil, fmt.Errorf("experiments: partition schedule: %w", err)
	}
	out.FirstFit = PartitionRow{
		Makespan:       sim.Makespan,
		Speedup:        stats.Speedup(out.SerialMakespan, sim.Makespan),
		UtilizationPct: 100 * sim.Utilization,
		MeanWait:       sim.MeanWait,
		MaxWait:        sim.MaxWait,
		PeakFragPct:    100 * sim.PeakFragmentation,
	}
	return out, nil
}

// Render prints the sweep.
func (r *PartitionResult) Render() string {
	var t table
	t.title(fmt.Sprintf("Extension: partitioned co-scheduling on a %d-PE machine", r.MachinePEs))
	t.row("job storm:")
	for _, c := range r.Classes {
		t.row(fmt.Sprintf("  %d jobs of %d PEs (matmul simd n=%d, %d cycles each)",
			c.Count, c.PEs, c.N, c.Cycles))
	}
	t.row(fmt.Sprintf("serial whole-machine baseline: %d cycles", r.SerialMakespan))
	t.row("")
	t.row(fmt.Sprintf("%-10s", "policy"), fmt.Sprintf("%10s", "makespan"),
		fmt.Sprintf("%8s", "speedup"), fmt.Sprintf("%7s", "util%"),
		fmt.Sprintf("%10s", "mean wait"), fmt.Sprintf("%10s", "max wait"),
		fmt.Sprintf("%9s", "peakfrag%"))
	row := r.FirstFit
	t.row(fmt.Sprintf("%-10s", "firstfit"), fmt.Sprintf("%10d", row.Makespan),
		fmt.Sprintf("%8.2f", row.Speedup), fmt.Sprintf("%7.1f", row.UtilizationPct),
		fmt.Sprintf("%10.1f", row.MeanWait), fmt.Sprintf("%10d", row.MaxWait),
		fmt.Sprintf("%9.1f", row.PeakFragPct))
	return t.String()
}

// Summary flattens the sweep: per-class cell cycles, the serial
// baseline, and the first-fit schedule's quality.
func (r *PartitionResult) Summary() map[string]float64 {
	m := map[string]float64{
		"machine/pes":     float64(r.MachinePEs),
		"serial/makespan": float64(r.SerialMakespan),
	}
	for _, c := range r.Classes {
		m[fmt.Sprintf("cell/p=%d/cycles", c.PEs)] = float64(c.Cycles)
		m[fmt.Sprintf("cell/p=%d/jobs", c.PEs)] = float64(c.Count)
	}
	row := r.FirstFit
	m["policy/firstfit/makespan"] = float64(row.Makespan)
	m["policy/firstfit/speedup"] = row.Speedup
	m["policy/firstfit/utilization_pct"] = row.UtilizationPct
	m["policy/firstfit/mean_wait"] = row.MeanWait
	m["policy/firstfit/max_wait"] = float64(row.MaxWait)
	m["policy/firstfit/peak_frag_pct"] = row.PeakFragPct
	r.Obs.into(m)
	return m
}
