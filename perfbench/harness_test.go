package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/service"
	"repro/internal/workload"
)

func trace(t *testing.T, w serveWorkload, seed int64) []byte {
	t.Helper()
	tr, err := workload.Generate(workload.GenConfig{Name: w.name, Seed: seed, Duration: 20 * time.Second, Cohorts: w.cohorts})
	if err != nil {
		t.Fatal(err)
	}
	data, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSameSeedSameTrace(t *testing.T) {
	for _, w := range []serveWorkload{mixedWorkload, partitionedWorkload} {
		a, b := trace(t, w, 7), trace(t, w, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different traces", w.name)
		}
		if bytes.Equal(a, trace(t, w, 8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same trace", w.name)
		}
	}
}

func TestPassSeedsDistinctAndRepeatable(t *testing.T) {
	a, want, err := passSeeds(42)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := passSeeds(42)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("seed 42 gave two pass orders")
	}
	seen := map[uint32]bool{}
	for _, s := range a {
		if seen[s] {
			t.Fatalf("pass seed %d used twice in one run", s)
		}
		seen[s] = true
		if want[s] == "" {
			t.Fatalf("pass seed %d has no digest", s)
		}
	}
	if len(a) != len(want) {
		t.Fatalf("order covers %d of %d pool seeds", len(a), len(want))
	}
}

func TestDigestCoversOnlySimulatedResults(t *testing.T) {
	rep := func() *experiments.Report {
		return &experiments.Report{Schema: "pasmbench/v2.2", PEs: 16, Seed: 3,
			Interp: &experiments.InterpInfo{Tier: "super", MemoHits: 5, MemoMisses: 900},
			Experiments: []experiments.ReportExperiment{
				{Name: "fig7", Summary: map[string]float64{"crossover_muls": 14, "cycles": 123456}}}}
	}
	sum := func(r *experiments.Report) string {
		t.Helper()
		d, err := simDigest(r)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	base := sum(rep())

	bookkeeping := rep()
	bookkeeping.Schema = "pasmbench/v3"
	bookkeeping.Interp = nil
	if got := sum(bookkeeping); got != base {
		t.Error("changing the schema and dropping the interp block changed the digest")
	}
	bookkeeping.Interp = &experiments.InterpInfo{Tier: "reference"}
	if got := sum(bookkeeping); got != base {
		t.Error("changing the interpreter tier and memo counters changed the digest")
	}

	simulated := rep()
	simulated.Experiments[0].Summary["cycles"]++
	if got := sum(simulated); got == base {
		t.Error("changing a simulated cycle count left the digest unchanged")
	}
	machine := rep()
	machine.PEs = 32
	if got := sum(machine); got == base {
		t.Error("changing the machine size left the digest unchanged")
	}

	data, err := rep().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	served, err := resultDigest(data)
	if err != nil {
		t.Fatal(err)
	}
	if served != base {
		t.Error("a report's served bytes digest differently from the report")
	}
}

func TestDetectionLagSkipsCacheHits(t *testing.T) {
	fin := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	status := func(id string) service.JobStatus {
		return service.JobStatus{ID: id, Finished: fin.Format(time.RFC3339Nano)}
	}
	results := []*served{
		// The last wait was sent before the job finished: no turn wait.
		{status: status("a"), waitSent: fin.Add(-time.Millisecond), seen: fin.Add(1500 * time.Microsecond)},
		// It went out 2 ms after the job finished.
		{status: status("b"), waitSent: fin.Add(2 * time.Millisecond), seen: fin.Add(2500 * time.Microsecond)},
		{status: status("c"), seen: fin.Add(4 * time.Millisecond), cached: true},
		{err: errRefused{429}},
	}
	lag, turn, err := detectionLag(results)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(lag) != "[1.5 2.5]" || fmt.Sprint(turn) != "[0 2]" {
		t.Fatalf("lag %v turn %v, want [1.5 2.5] and [0 2]", lag, turn)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for n := 1; n <= 600; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i) // unsorted on purpose
		}
		v, pct := tail(xs)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		switch {
		case pct > 50 && beyond < minBeyond:
			t.Fatalf("n=%d: percentile %g leaves %d samples beyond", n, pct, beyond)
		case n >= 200 && pct != 95:
			t.Fatalf("n=%d: percentile %g, want 95", n, pct)
		case n <= 2*minBeyond && pct != 50:
			t.Fatalf("n=%d: percentile %g from too few samples, want the median", n, pct)
		}
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Fatalf("got %+v", s)
	}
}

func TestFailedAndRefusedRequestsMissTheSLO(t *testing.T) {
	req := func(slo int64) workload.Request { return workload.Request{SLOMs: slo} }
	results := []*served{
		{req: req(50), ok: true, latencyMS: 10},             // met
		{req: req(50), ok: true, latencyMS: 80},             // too slow
		{req: req(50), refused: true, err: errRefused{503}}, // refused
		{req: req(50), err: fmt.Errorf("job failed")},       // failed
		{req: req(0), ok: true, latencyMS: 900},             // best effort, done
		{req: req(0), err: fmt.Errorf("job failed")},        // best effort, failed
	}
	if got := sloOKRatio(results); got != 2.0/6 {
		t.Fatalf("slo_ok_ratio %g, want %g", got, 2.0/6)
	}
}

func TestMetricsParsingToleratesAbsentKeys(t *testing.T) {
	before, err := parseMetrics([]byte(`{"service/submitted": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseMetrics([]byte(`{"service/submitted": 10, "service/coalesced": 2, "partition/pes_total": 64}`))
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{
		"service/submitted":      7,
		"service/coalesced":      2, // absent before
		"service/sched_promoted": 0, // absent in both
	} {
		if got := delta(before, after, key); got != want {
			t.Errorf("delta %s = %g, want %g", key, got, want)
		}
	}
	if _, err := parseMetrics([]byte(`{"service/submitted": "x"}`)); err == nil {
		t.Error("a non-numeric counter parsed")
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 10_000},
		{ID: 2, Parent: 1, Name: "http.submit", Start: 2_000, End: 4_000},
		{ID: 3, Parent: 1, Name: "http.wait", Start: 3_000, End: 6_000},
		{ID: 4, Parent: 1, Name: "http.result", Start: 9_000, End: 12_000}, // clipped to the parent
	}
	got := selfTimes(spans)
	if got["request"] != 5 || got["http.submit"] != 2 || got["http.wait"] != 3 {
		t.Fatalf("self times %v", got)
	}
}

func TestDeclaredMetricsAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer()...) {
		if seen[d.name] {
			t.Fatalf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
	}
}

func TestBenchmarkJSONDeclaresTheReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []decl, want []metricDef) {
		m := map[string]string{}
		for _, d := range got {
			m[d.Name] = d.Unit
		}
		if len(m) != len(want) || len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d, the harness reports %d", what, len(got), len(want))
		}
		for _, d := range want {
			if m[d.name] != d.unit {
				t.Errorf("%s: %s declared with unit %q, reported in %q", what, d.name, m[d.name], d.unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer())
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json lists unknown workload %q", w.Name)
		}
	}
}
