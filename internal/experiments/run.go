package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/pasm"
)

// SchemaV2 is the report schema identifier (cmd/pasmbench -json v2).
const SchemaV2 = "pasmbench/v2"

// SchemaV21 extends v2 with the active interpreter tier and the
// segment-cache totals in the observe section. Every v2 field is
// intact; v2 consumers that tolerate unknown fields read v2.1
// documents unchanged.
const SchemaV21 = "pasmbench/v2.1"

// SchemaV22 extends v2.1 with the simulated machine size ("pes").
// Results depend on it (ext-workloads and ext-partition scale with
// the machine; cells are bounded by it), so consumers that cache or
// byte-compare reports must treat it as part of the identity — the
// service's fill validation rejects documents whose pes disagrees
// with the key's spec.
const SchemaV22 = "pasmbench/v2.2"

// SchemaV23 drops the segment-cache totals (interp.memo_hits and
// interp.memo_misses) from v2.2: the MIMD segment cache is gone, so
// the interp block carries only the tier. Every other v2.2 field is
// intact.
const SchemaV23 = "pasmbench/v2.3"

// Result is what every experiment produces: a rendered table. Concrete
// results usually also implement Summarizer and sometimes Plotter.
type Result interface{ Render() string }

// Plotter is implemented by results that can render ASCII charts.
type Plotter interface{ Plot() string }

// Summarizer exposes an experiment's simulated metrics for reports.
type Summarizer interface {
	Summary() map[string]float64
}

// ReportExperiment is one experiment's entry in a Report. HostSeconds
// is host wall-clock and therefore non-deterministic; deterministic
// reports (RunConfig.Timings false — the pasmd service path) omit it.
type ReportExperiment struct {
	Name        string             `json:"name"`
	HostSeconds float64            `json:"host_seconds,omitempty"`
	Summary     map[string]float64 `json:"summary,omitempty"`
}

// InterpInfo is the report's interpreter provenance: which tier
// simulated the spec. The simulated numbers are identical for every
// tier (the differential tests enforce it), so this records
// provenance, not semantics.
type InterpInfo struct {
	Tier string `json:"tier"`

	// Deprecated: MemoHits and MemoMisses are always zero and never
	// serialized; the segment cache they counted no longer exists.
	MemoHits, MemoMisses int64 `json:"-"`
}

// Report is the machine-readable result of running a Spec: the
// pasmbench -json v2.3 document. All summary values are simulated
// quantities; with Timings disabled the whole document is a pure
// function of (Spec, CodeVersion, interpreter tier), which is what
// lets the service cache it and the remote CLI byte-compare it
// against a local run.
type Report struct {
	Schema      string             `json:"schema"`
	Full        bool               `json:"full"`
	PEs         int                `json:"pes"`
	Seed        uint32             `json:"seed"`
	Parallel    int                `json:"parallel,omitempty"`
	Observe     bool               `json:"observe"`
	Interp      *InterpInfo        `json:"interp,omitempty"`
	HostSeconds float64            `json:"host_seconds,omitempty"`
	Experiments []ReportExperiment `json:"experiments"`
}

// Marshal renders the report exactly as cmd/pasmbench writes it
// (indented JSON plus a trailing newline). Every producer must go
// through this so the service path and the in-process path emit
// identical bytes.
func (r *Report) Marshal() ([]byte, error) {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// RunHook observes each experiment as it completes, in report order
// (cmd/pasmbench uses it to print the rendered tables). hostSeconds is
// zero when timings are disabled.
type RunHook func(name string, res Result, hostSeconds float64)

// RunConfig carries the execution parameters that are NOT part of the
// spec — everything here is forbidden from changing the result bytes
// except Timings, which only toggles the non-deterministic host
// wall-clock fields.
type RunConfig struct {
	// Options supplies the machine config and host parallelism. Its
	// Full, Seed, and Observe fields are overwritten from the spec.
	Options Options
	// Timings records host wall-clock and the parallelism level in the
	// report. Leave false for deterministic (cacheable, byte-comparable)
	// output.
	Timings bool
	// Hook, when non-nil, sees each result as it completes.
	Hook RunHook
}

// OptionsFor maps a spec onto execution options: the spec supplies
// everything result-affecting (Full, Seed, Observe), the caller
// supplies the host parallelism. This is the one place the CLI tools
// and the service translate a spec into engine options.
func OptionsFor(spec Spec, parallelism int) (Options, error) {
	n, err := spec.Normalize()
	if err != nil {
		return Options{}, err
	}
	opts := DefaultOptions()
	opts.Full = n.Full
	opts.Seed = n.Seed
	opts.Observe = n.Observe
	opts.Parallelism = parallelism
	applyPEs(&opts.Config, n.PEs)
	return opts, nil
}

// applyPEs resizes a machine config to the spec's machine size,
// clamping the MC group size for machines smaller than a group (the
// same clamp a partition lease applies).
func applyPEs(cfg *pasm.Config, pes int) {
	cfg.NumPEs = pes
	if cfg.PEsPerMC > pes {
		cfg.PEsPerMC = pes
	}
}

// runnersByName maps every named experiment to its runner.
var runnersByName = map[string]func(Options) (Result, error){
	"table1": func(o Options) (Result, error) { return Table1(o) },
	"fig6":   func(o Options) (Result, error) { return Fig6(o) },
	"fig7":   func(o Options) (Result, error) { return Fig7(o) },
	"fig8":   func(o Options) (Result, error) { return Breakdown(o, 1) },
	"fig9":   func(o Options) (Result, error) { return Breakdown(o, 14) },
	"fig10":  func(o Options) (Result, error) { return Breakdown(o, 30) },
	"fig11":  func(o Options) (Result, error) { return Fig11(o) },
	"fig12":  func(o Options) (Result, error) { return Fig12(o) },
	// Extensions beyond the paper (see DESIGN.md §6):
	"ext-crossover": func(o Options) (Result, error) { return CrossoverVsP(o) },
	"ext-model":     func(o Options) (Result, error) { return ModelValidation(o) },
	"ext-fault":     func(o Options) (Result, error) { return FaultTolerance(o) },
	"ext-workloads": func(o Options) (Result, error) { return Workloads(o) },
	"ext-mixed":     func(o Options) (Result, error) { return MixedMode(o) },
	"ext-partition": func(o Options) (Result, error) { return PartitionSweep(o) },
}

// RunSpec executes a spec and assembles its v2 report: every named
// sweep in order, then the custom cells (as one "custom" experiment).
// The report's simulated content is identical for any
// Options.Parallelism; only the Timings-gated fields vary run to run.
func RunSpec(spec Spec, rc RunConfig) (*Report, error) {
	return RunSpecContext(context.Background(), spec, rc)
}

// RunSpecContext is RunSpec under a cancelable context: a spec whose
// deadline expires or whose submitter goes away stops between
// experiments instead of simulating to completion (the serving path's
// per-job deadline reaches here). Cancellation surfaces as ctx.Err()
// wrapped with the experiment about to be abandoned; a report is never
// partially returned.
func RunSpecContext(ctx context.Context, spec Spec, rc RunConfig) (*Report, error) {
	n, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	// The spec overrides every result-affecting option (OptionsFor's
	// mapping); the caller's Options contribute config and parallelism.
	opts := rc.Options
	opts.Full = n.Full
	opts.Seed = n.Seed
	opts.Observe = n.Observe
	applyPEs(&opts.Config, n.PEs)
	if opts.InterpTier == "" {
		opts.InterpTier = "super"
	}

	report := &Report{
		Schema:  SchemaV23,
		Full:    n.Full,
		PEs:     n.PEs,
		Seed:    n.Seed,
		Observe: n.Observe,
	}
	if rc.Timings {
		report.Parallel = opts.Parallelism
	}
	suiteStart := time.Now()
	run := func(name string, f func(Options) (Result, error)) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		start := time.Now()
		res, err := f(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		entry := ReportExperiment{Name: name}
		if rc.Timings {
			entry.HostSeconds = time.Since(start).Seconds()
		}
		if s, ok := res.(Summarizer); ok {
			entry.Summary = s.Summary()
		}
		report.Experiments = append(report.Experiments, entry)
		if rc.Hook != nil {
			rc.Hook(name, res, entry.HostSeconds)
		}
		return nil
	}
	for _, name := range n.Exps {
		if err := run(name, runnersByName[name]); err != nil {
			return nil, err
		}
	}
	if len(n.Cells) > 0 {
		err := run("custom", func(o Options) (Result, error) { return Custom(o, n.Cells) })
		if err != nil {
			return nil, err
		}
	}
	report.Interp = &InterpInfo{Tier: opts.InterpTier}
	if rc.Timings {
		report.HostSeconds = time.Since(suiteStart).Seconds()
	}
	return report, nil
}
