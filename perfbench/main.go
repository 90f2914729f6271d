// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks every output it can against a
// digest, and prints one JSON line of metrics last on standard output.
//
// Usage (normally through perfbench/run.sh, which builds this command
// and pasmd from the checkout first):
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads (see README.md for why each exists):
//
//	paper-suite  closed loop of in-process RunSpec passes over the
//	             paper set (16 PEs, quick sizes, Parallelism 1)
//	serve-mixed  open loop over HTTP against pasmd's worker pool; its
//	             traced run adds a partition-mode phase
//
// With --trace 0 the last line carries the end-to-end metrics; with
// --trace 1 the run records spans around each call into a layer and the
// last line carries the per-layer metrics instead. The line before it
// is a report with each metric's median, quartiles and sample count.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// metric is one reported number with its unit and, where the run has
// several samples of it, their spread.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	summary
	// Note says how the value was formed (which percentile, which
	// samples), or why the workload does not exercise the layer.
	Note string `json:"note,omitempty"`
}

// outcome is what one workload run produced.
type outcome struct {
	attempted int
	failed    int // failed or refused operations
	wrong     int // operations whose output bytes did not match
	metrics   []metric
	flags     []string           // warnings, such as a generator that fell behind
	info      map[string]any     // further numbers for the report line
	selfMS    map[string]float64 // per-span-name self time, traced runs
}

func (o *outcome) add(name, unit string, value float64, s summary, note string) {
	o.metrics = append(o.metrics, metric{Name: name, Unit: unit, Value: value, summary: s, Note: note})
}

// one records a value formed once from n operations, such as a ratio
// or a peak, which has no spread of its own.
func (o *outcome) one(name, unit string, value float64, n int, note string) {
	o.add(name, unit, value, summary{Median: value, Q1: value, Q3: value, N: n}, note)
}

// absent records a per-layer metric the workload does not exercise.
// It reads 0 so that every traced run reports every per-layer name.
func (o *outcome) absent(name, unit, why string) {
	o.add(name, unit, 0, summary{}, "absent: "+why)
}

type runConfig struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	pasmd    string
	out      string
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"paper-suite": runSuite,
	"serve-mixed": func(c runConfig) (*outcome, error) { return runServe(c, mixedWorkload) },
}

func main() {
	os.Exit(run())
}

func run() int {
	var c runConfig
	var trace int
	flag.StringVar(&c.workload, "workload", "", "workload name: paper-suite or serve-mixed")
	flag.Int64Var(&c.seed, "seed", 1, "seed for the workload's inputs")
	flag.IntVar(&c.seconds, "seconds", 50, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.StringVar(&c.pasmd, "pasmd", ".bench_build/pasmd", "pasmd binary for the serve workloads")
	flag.StringVar(&c.out, "out", ".bench_build", "directory for logs and span files")
	setupProbe := flag.Bool("setup-probe", false, "internal: one paper-suite set-up, then exit")
	writeDigests := flag.Bool("write-digests", false, "regenerate paper_digests.json in the current directory, then exit")
	flag.Parse()

	var err error
	switch {
	case *setupProbe:
		err = suiteSetup()
	case *writeDigests:
		err = writeDigestFile("paper_digests.json")
	default:
		err = measure(c, trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func measure(c runConfig, trace int) error {
	runWorkload, ok := workloads[c.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", c.workload)
	}
	if c.seconds < 1 {
		return fmt.Errorf("--seconds %d must be at least 1", c.seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace %d must be 0 or 1", trace)
	}
	c.traced = trace == 1
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return err
	}
	o, err := runWorkload(c)
	if err != nil {
		return err
	}
	if o.attempted < 1 {
		return fmt.Errorf("%s: no operation attempted", c.workload)
	}
	defs := endToEnd
	if c.traced {
		defs = perLayer()
	}
	if err := o.check(defs); err != nil {
		return fmt.Errorf("%s: %w", c.workload, err)
	}
	report := map[string]any{
		"workload":    c.workload,
		"seed":        c.seed,
		"seconds":     c.seconds,
		"trace":       trace,
		"attempted":   o.attempted,
		"failed":      o.failed,
		"wrong_bytes": o.wrong,
		"error_ratio": float64(o.failed+o.wrong) / float64(o.attempted),
		"metrics":     o.metrics,
	}
	if len(o.flags) > 0 {
		report["flags"] = o.flags
	}
	for k, v := range o.info {
		report[k] = v
	}
	if o.selfMS != nil {
		report["self_ms"] = o.selfMS
	}
	line, err := json.Marshal(report)
	if err != nil {
		return err
	}
	fmt.Println(string(line))

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	final := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.wrong == 0, o.attempted, o.failed + o.wrong, map[string]value{}}
	for _, m := range o.metrics {
		final.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err = json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// spanFile names a traced run's span dump inside the output directory.
func spanFile(c runConfig) string {
	return filepath.Join(c.out, fmt.Sprintf("spans-%s-seed%d.json", c.workload, c.seed))
}

// resetHWM restarts a process's peak-RSS counter (Linux clear_refs
// code 5), so that the next vmHWM reads the peak since this call.
func resetHWM(pid string) error {
	return os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0)
}

// vmHWM reads a process's peak resident set size in MB from
// /proc/<pid>/status ("self" for this process).
func vmHWM(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
