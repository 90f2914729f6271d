package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	"repro/internal/experiments"
	"repro/internal/matmul"
	"repro/internal/pasm"
)

// paper_digests.json maps each pass seed in the pool to the digest of
// that pass's simulated results (see simDigest), recorded from the
// commit that added the benchmark (regenerate with -write-digests). A
// change that only speeds up the simulator must leave every digest
// unchanged.
//
//go:embed paper_digests.json
var digestJSON []byte

// digestPool is how many pass seeds paper_digests.json holds; a run's
// passes draw distinct seeds from it.
const digestPool = 128

// passSpec is one paper-suite pass: the paper set at 16 PEs and quick
// sizes.
func passSpec(seed uint32) experiments.Spec {
	return experiments.Spec{Exps: []string{"all"}, Seed: seed}
}

// warmSpec is the set-up's warm-up: the cheapest paper table plus one
// matmul breakdown, so interpreter, assembler and engine code paths
// have all run once before the first timed pass.
var warmSpec = experiments.Spec{Exps: []string{"table1", "fig8"}}

// runSpec runs a spec at Parallelism 1 with host timings off, as
// pasmbench -parallel 1 does.
func runSpec(spec experiments.Spec, hook experiments.RunHook) (*experiments.Report, error) {
	opts, err := experiments.OptionsFor(spec, 1)
	if err != nil {
		return nil, err
	}
	return experiments.RunSpec(spec, experiments.RunConfig{Options: opts, Hook: hook})
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// simulated is the part of a report that a simulator-only change must
// leave identical: the machine and run settings and every experiment's
// simulated summary. The schema name and the interpreter block (tier,
// memo counters) are bookkeeping such a change may alter, and host
// timings are off, so none of them is digested.
type simulated struct {
	Full        bool                  `json:"full"`
	PEs         int                   `json:"pes"`
	Seed        uint32                `json:"seed"`
	Observe     bool                  `json:"observe"`
	Experiments []simulatedExperiment `json:"experiments"`
}

type simulatedExperiment struct {
	Name    string             `json:"name"`
	Summary map[string]float64 `json:"summary"`
}

// simDigest is the SHA-256 of a report's simulated content.
func simDigest(rep *experiments.Report) (string, error) {
	sim := simulated{Full: rep.Full, PEs: rep.PEs, Seed: rep.Seed, Observe: rep.Observe}
	for _, e := range rep.Experiments {
		sim.Experiments = append(sim.Experiments, simulatedExperiment{e.Name, e.Summary})
	}
	data, err := json.Marshal(sim)
	if err != nil {
		return "", err
	}
	return digest(data), nil
}

// resultDigest is simDigest of a report as served, in its JSON bytes.
func resultDigest(data []byte) (string, error) {
	var rep experiments.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return "", fmt.Errorf("parsing a served report: %w", err)
	}
	return simDigest(&rep)
}

// suiteSetup is one paper-suite set-up: construct and warm up, in a
// fresh process so that one-time initialisation is paid every time.
func suiteSetup() error {
	_, err := runSpec(warmSpec, nil)
	return err
}

// writeDigestFile records the digests of passes with seeds
// 1..digestPool. The simulated results do not depend on host
// parallelism, so it uses every CPU.
func writeDigestFile(path string) error {
	out := map[string]string{}
	for seed := 1; seed <= digestPool; seed++ {
		spec := passSpec(uint32(seed))
		opts, err := experiments.OptionsFor(spec, runtime.NumCPU())
		if err != nil {
			return err
		}
		rep, err := experiments.RunSpec(spec, experiments.RunConfig{Options: opts})
		if err != nil {
			return err
		}
		if out[strconv.Itoa(seed)], err = simDigest(rep); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// passSeeds orders the digest pool for one benchmark seed: pass i uses
// pool[(start + i*step) mod len], distinct for every pass of a run up
// to the pool size, so no pass can reuse a result of an earlier one.
func passSeeds(benchSeed int64) ([]uint32, map[uint32]string, error) {
	var raw map[string]string
	if err := json.Unmarshal(digestJSON, &raw); err != nil {
		return nil, nil, fmt.Errorf("paper_digests.json: %w", err)
	}
	want := map[uint32]string{}
	var pool []uint32
	for k, v := range raw {
		s, err := strconv.ParseUint(k, 10, 32)
		if err != nil {
			return nil, nil, fmt.Errorf("paper_digests.json: seed %q: %w", k, err)
		}
		want[uint32(s)] = v
		pool = append(pool, uint32(s))
	}
	if len(pool) == 0 {
		return nil, nil, fmt.Errorf("paper_digests.json is empty")
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i] < pool[j] })
	n := uint64(len(pool))
	h := splitmix(uint64(benchSeed))
	start, step := h%n, (splitmix(h)%n)|1
	for gcd(step, n) != 1 {
		step += 2
	}
	order := make([]uint32, n)
	for i := uint64(0); i < n; i++ {
		order[i] = pool[(start+i*step)%n]
	}
	return order, want, nil
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// setupRuns is how many times each workload sets up per run; setup_s
// is their median.
const setupRuns = 7

// pass is one timed paper-suite pass.
type pass struct {
	ms        float64
	rssMB     float64 // peak RSS during the pass
	traced    bool
	allocMB   float64
	gcs       float64
	memoHits  int64
	memoMiss  int64
	crossover float64
}

func runSuite(c runConfig) (*outcome, error) {
	order, want, err := passSeeds(c.seed)
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var setups []float64
	for i := 0; i < setupRuns && !c.traced; i++ {
		cmd := exec.Command(self, "-setup-probe")
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("paper-suite set-up probe: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	if err := suiteSetup(); err != nil {
		return nil, err
	}

	var rec *recorder
	if c.traced {
		rec = newRecorder()
	}
	o := &outcome{info: map[string]any{}}
	var passes []pass
	var probes []probeRound
	budget := time.Duration(c.seconds) * time.Second
	begin := time.Now()
	// A run alternates traced and untraced passes when tracing, and
	// adds one round of layer probes after every pair.
	for i := 0; ; i++ {
		kind := "pass"
		if c.traced && i%3 == 2 {
			kind = "probe"
		}
		if i > 0 && time.Since(begin)+expected(kind, passes, probes) > budget {
			break
		}
		if kind == "probe" {
			round, err := runProbeRound(rec, 1_000_000+i)
			if err != nil {
				return nil, err
			}
			o.wrong += round.wrong
			probes = append(probes, round)
			continue
		}
		seed := order[len(passes)%len(order)]
		p, got, err := runPass(seed, rec, i, c.traced && i%3 == 0)
		o.attempted++
		if err != nil {
			fmt.Fprintf(os.Stderr, "pass seed %d: %v\n", seed, err)
			o.failed++
			continue
		}
		if got != want[seed] {
			fmt.Fprintf(os.Stderr, "pass seed %d: simulated-results digest %s, want %s\n", seed, got, want[seed])
			o.wrong++
		}
		passes = append(passes, p)
	}
	if len(passes) == 0 {
		return nil, fmt.Errorf("paper-suite: no pass completed")
	}

	var ms, rss []float64
	for _, p := range passes {
		ms = append(ms, p.ms)
		rss = append(rss, p.rssMB)
	}
	passSum := summarize(ms)
	o.info["suite_s"] = summary{Median: passSum.Median / 1e3, Q1: passSum.Q1 / 1e3, Q3: passSum.Q3 / 1e3, N: passSum.N}
	if !c.traced {
		ss, rs := summarize(setups), summarize(rss)
		o.add("setup_s", "s", ss.Median, ss, "median of fresh-process set-ups (construct + warm-up)")
		o.add("lat_p50_ms", "ms", passSum.Median, passSum, "median paper-set pass, i.e. suite_s in ms")
		v, pct := tail(ms)
		o.add("lat_p95_ms", "ms", v, passSum, fmt.Sprintf("percentile %g of %d passes (too few for a tail: median)", pct, len(ms)))
		ok := len(passes) - o.wrong
		o.one("slo_ok_ratio", "ratio", float64(ok)/float64(o.attempted), o.attempted,
			"passes with correct report bytes (no SLO on a pass)")
		o.add("rss_peak_mb", "MB", mean(rss), rs, "mean over passes of the benchmark process's peak RSS during the pass")
		return o, nil
	}
	suiteLayers(o, passes, probes)
	o.selfMS = selfTimes(rec.all())
	o.fillAbsent(append(append([]metricDef{}, serveLayers...), partitionLayerDefs...),
		"paper-suite has no service, HTTP or partition layer")
	return o, rec.write(spanFile(c))
}

// expected is the time the next item of a kind is expected to take,
// so the run stops starting items it cannot finish inside its budget.
func expected(kind string, passes []pass, probes []probeRound) time.Duration {
	var xs []float64
	if kind == "probe" {
		for _, p := range probes {
			xs = append(xs, p.ms)
		}
	} else {
		for _, p := range passes {
			xs = append(xs, p.ms)
		}
	}
	return time.Duration(summarize(xs).Median * float64(time.Millisecond))
}

// runPass runs one pass, measures its allocation and GC counts and
// returns the digest of its simulated results. A traced pass records a
// span around RunSpec and one per experiment.
func runPass(seed uint32, rec *recorder, op int, traced bool) (pass, string, error) {
	if !traced {
		rec = nil
	}
	root := rec.begin("pass", 0, op)
	call := rec.begin("experiments.RunSpec", root, op)
	// Each pass starts from a collected heap with its free pages
	// returned, as a fresh pasmbench process would, so its peak RSS
	// does not depend on what earlier passes left resident.
	debug.FreeOSMemory()
	if err := resetHWM("self"); err != nil {
		return pass{}, "", err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	last := rec.now()
	hook := func(name string, _ experiments.Result, _ float64) {
		now := rec.now()
		rec.record("experiments."+name, call, op, last, now)
		last = now
	}
	rep, err := runSpec(passSpec(seed), hook)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	rec.end(call)
	rec.end(root)
	if err != nil {
		return pass{}, "", err
	}
	rss, err := vmHWM("self")
	if err != nil {
		return pass{}, "", err
	}
	sum, err := simDigest(rep)
	if err != nil {
		return pass{}, "", err
	}
	p := pass{
		ms:       float64(elapsed.Microseconds()) / 1e3,
		rssMB:    rss,
		traced:   traced,
		allocMB:  float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20),
		gcs:      float64(ms1.NumGC - ms0.NumGC),
		memoHits: rep.Interp.MemoHits,
		memoMiss: rep.Interp.MemoMisses,
	}
	for _, e := range rep.Experiments {
		if e.Name == "fig7" {
			p.crossover = e.Summary["crossover_muls"]
		}
	}
	return p, sum, nil
}

// probeCell is one matmul cell the layer probes drive step by step.
type probeCell struct {
	spec matmul.Spec
	seed uint32
}

// probeCells are the cells of Fig. 6 (quick sizes, p=8) and Fig. 7
// (n=64, p=4), the figures whose engines ROADMAP items 2 and 3 change.
func probeCells() []probeCell {
	var cells []probeCell
	for _, n := range []int{8, 16, 32, 64} {
		for _, mode := range []matmul.Mode{matmul.Serial, matmul.SIMD, matmul.MIMD, matmul.SMIMD} {
			cells = append(cells, probeCell{matmul.Spec{N: n, P: 8, Muls: 1, Mode: mode}, 1988})
		}
	}
	for _, m := range []int{1, 5, 10, 13, 14, 15, 20, 25, 30} {
		for _, mode := range []matmul.Mode{matmul.SIMD, matmul.SMIMD} {
			cells = append(cells, probeCell{matmul.Spec{N: 64, P: 4, Muls: m, Mode: mode}, 1988})
		}
	}
	return cells
}

// customCells go through experiments.Custom one at a time.
var customCells = []experiments.CellSpec{
	{N: 16, P: 8, Muls: 1, Mode: "sisd"},
	{N: 16, P: 8, Muls: 1, Mode: "simd"},
	{N: 16, P: 8, Muls: 1, Mode: "mimd"},
	{N: 16, P: 8, Muls: 1, Mode: "smimd"},
}

// probeRound is one pass over the probe cells.
type probeRound struct {
	ms      float64
	wrong   int
	instrs  map[matmul.Mode]int64
	runSec  map[matmul.Mode]float64
	buildMS []float64 // Build + Load, per cell
	cellMS  []float64 // one experiments.Custom cell
}

// runProbeRound times the calls matmul.Execute makes, one layer at a
// time, and then experiments.Custom on single cells.
func runProbeRound(rec *recorder, op int) (probeRound, error) {
	round := probeRound{instrs: map[matmul.Mode]int64{}, runSec: map[matmul.Mode]float64{}}
	root := rec.begin("probe", 0, op)
	start := time.Now()
	for _, pc := range probeCells() {
		a, b := matmul.Identity(pc.spec.N), matmul.Random(pc.spec.N, pc.seed)
		cfg := pasm.DefaultConfig()
		t0 := time.Now()
		id := rec.begin("matmul.Build", root, op)
		prog, l, err := matmul.Build(pc.spec)
		rec.end(id)
		if err != nil {
			return round, err
		}
		buildDur := time.Since(t0)
		if need := l.MemBytes(); cfg.PEMemBytes < need {
			cfg.PEMemBytes = need
		}
		id = rec.begin("pasm.NewVM", root, op)
		vm, err := pasm.NewVM(cfg, l.P)
		rec.end(id)
		if err != nil {
			return round, err
		}
		if err := vm.EstablishShift(); err != nil {
			return round, err
		}
		t0 = time.Now()
		id = rec.begin("matmul.Load", root, op)
		err = matmul.Load(vm, l, a, b)
		rec.end(id)
		if err != nil {
			return round, err
		}
		buildDur += time.Since(t0)
		var res pasm.RunResult
		t0 = time.Now()
		if pc.spec.Mode == matmul.SIMD {
			id = rec.begin("pasm.RunSIMD", root, op)
			res, err = vm.RunSIMD(prog)
		} else {
			id = rec.begin("pasm.RunMIMD", root, op)
			res, err = vm.RunMIMD(prog)
		}
		rec.end(id)
		if err != nil {
			return round, err
		}
		round.runSec[pc.spec.Mode] += time.Since(t0).Seconds()
		round.instrs[pc.spec.Mode] += res.Instrs
		round.buildMS = append(round.buildMS, float64(buildDur.Microseconds())/1e3)
		got, err := matmul.ReadC(vm, l)
		if err != nil {
			return round, err
		}
		if !matmul.Equal(got, b) {
			fmt.Fprintf(os.Stderr, "probe %v n=%d: wrong product\n", pc.spec.Mode, pc.spec.N)
			round.wrong++
		}
	}
	opts := experiments.DefaultOptions()
	opts.Parallelism = 1
	for _, cell := range customCells {
		t0 := time.Now()
		id := rec.begin("experiments.Custom", root, op)
		_, err := experiments.Custom(opts, []experiments.CellSpec{cell})
		rec.end(id)
		if err != nil {
			return round, err
		}
		round.cellMS = append(round.cellMS, float64(time.Since(t0).Microseconds())/1e3)
	}
	rec.end(root)
	round.ms = float64(time.Since(start).Microseconds()) / 1e3
	return round, nil
}

// suiteLayers turns a traced paper-suite run into per-layer metrics.
func suiteLayers(o *outcome, passes []pass, probes []probeRound) {
	instrs := map[matmul.Mode]int64{}
	secs := map[matmul.Mode]float64{}
	var build, cell []float64
	for _, round := range probes {
		for m, n := range round.instrs {
			instrs[m] += n
			secs[m] += round.runSec[m]
		}
		build = append(build, round.buildMS...)
		cell = append(cell, round.cellMS...)
	}
	mips := func(m matmul.Mode) float64 {
		if secs[m] == 0 {
			return 0
		}
		return float64(instrs[m]) / secs[m] / 1e6
	}
	note := fmt.Sprintf("%d probe rounds over the fig6/fig7 cells", len(probes))
	o.one("m68k.sisd_mips", "MIPS", mips(matmul.Serial), len(probes), note+", SISD cells")
	o.one("pasm.simd_mips", "MIPS", mips(matmul.SIMD), len(probes), note+", VM.RunSIMD")
	o.one("pasm.mimd_mips", "MIPS", mips(matmul.MIMD), len(probes), note+", VM.RunMIMD")
	o.one("pasm.smimd_mips", "MIPS", mips(matmul.SMIMD), len(probes), note+", VM.RunMIMD on S/MIMD cells")

	var hits, misses int64
	var alloc, gcs, crossover, traced, untraced []float64
	for _, p := range passes {
		hits += p.memoHits
		misses += p.memoMiss
		alloc = append(alloc, p.allocMB)
		gcs = append(gcs, p.gcs)
		crossover = append(crossover, p.crossover)
		if p.traced {
			traced = append(traced, p.ms)
		} else {
			untraced = append(untraced, p.ms)
		}
	}
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	o.one("pasm.memo_hit_ratio", "ratio", ratio, len(passes), "memo hits / (hits + misses) over all passes")
	bs, cs := summarize(build), summarize(cell)
	o.add("matmul.build_ms", "ms", bs.Median, bs, "matmul.Build + Load per probe cell")
	o.add("experiments.cell_ms", "ms", cs.Median, cs, "one experiments.Custom cell (fig6 n=16)")
	as, gs := summarize(alloc), summarize(gcs)
	o.add("experiments.pass_alloc_mb", "MB", as.Median, as, "runtime.MemStats TotalAlloc delta per pass")
	o.add("experiments.pass_gc_count", "count", gs.Median, gs, "runtime.MemStats NumGC delta per pass")
	ts, us := summarize(traced), summarize(untraced)
	overhead := 0.0
	if us.Median > 0 {
		overhead = ts.Median / us.Median
	}
	o.one("trace.overhead_ratio", "ratio", overhead, ts.N+us.N,
		fmt.Sprintf("median traced pass %.1f ms / untraced %.1f ms", ts.Median, us.Median))
	xs := summarize(crossover)
	o.add("sim.fig7_crossover_muls", "muls", xs.Median, xs, "simulated Fig. 7 crossover; the paper reports about 14")
}
