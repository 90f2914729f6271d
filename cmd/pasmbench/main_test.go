package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestJSONStdoutIsPure: `pasmbench -json -` must emit nothing but the
// JSON document on stdout (tables suppressed, diagnostics on stderr),
// so `pasmbench -json - | jq` and remote-mode byte comparisons work.
func TestJSONStdoutIsPure(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-exp", "table1", "-parallel", "2", "-json", "-"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	var rep experiments.Report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not pure JSON: %v\nstdout:\n%s", err, stdout.String())
	}
	if rep.Schema != experiments.SchemaV23 {
		t.Errorf("schema = %q", rep.Schema)
	}
	if rep.PEs != experiments.DefaultPEs {
		t.Errorf("pes = %d, want the %d-PE prototype", rep.PEs, experiments.DefaultPEs)
	}
	if len(rep.Experiments) != 1 || rep.Experiments[0].Name != "table1" {
		t.Errorf("experiments = %+v", rep.Experiments)
	}
	if rep.Interp == nil || rep.Interp.Tier != "super" {
		t.Errorf("observe section interp = %+v, want the default super tier", rep.Interp)
	}
	if strings.Contains(stdout.String(), "Table 1") {
		t.Error("rendered table leaked onto JSON stdout")
	}
}

// TestInterpTierInReport: the v2.3 report's interp block names the
// tier the -interp flag selected and nothing else.
func TestInterpTierInReport(t *testing.T) {
	for _, tier := range []string{"super", "table", "reference"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-exp", "fig8", "-interp", tier, "-host-timings=false", "-json", "-"}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("%s: exit %d, stderr:\n%s", tier, code, stderr.String())
		}
		var doc struct {
			Schema string
			Interp map[string]any
		}
		if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Schema != experiments.SchemaV23 {
			t.Errorf("%s: schema = %q, want %q", tier, doc.Schema, experiments.SchemaV23)
		}
		if want := map[string]any{"tier": tier}; !reflect.DeepEqual(doc.Interp, want) {
			t.Errorf("%s: interp = %v, want %v", tier, doc.Interp, want)
		}
	}
}

// TestHostTimingsOff: with -host-timings=false the document is
// byte-reproducible across runs and parallelism levels, and carries
// no wall-clock fields.
func TestHostTimingsOff(t *testing.T) {
	out := func(parallel string) []byte {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-exp", "table1", "-parallel", parallel, "-host-timings=false", "-json", "-"}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
		}
		return stdout.Bytes()
	}
	a, b := out("1"), out("4")
	if !bytes.Equal(a, b) {
		t.Errorf("deterministic output differs across runs/parallelism:\n%s\nvs\n%s", a, b)
	}
	if bytes.Contains(a, []byte("host_seconds")) || bytes.Contains(a, []byte("parallel")) {
		t.Errorf("-host-timings=false leaked wall-clock fields:\n%s", a)
	}
}

// TestDefaultStdoutIsTables: without -json -, stdout still carries the
// rendered tables (the pre-service behavior).
func TestDefaultStdoutIsTables(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-exp", "table1", "-parallel", "2"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Table 1: Prototype raw performance") {
		t.Errorf("rendered table missing from stdout:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "completed in") {
		t.Errorf("host-timing diagnostics missing from stderr:\n%s", stderr.String())
	}
}

// TestUnknownExperiment keeps the usage exit code.
func TestUnknownExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "fig99"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown experiment") {
		t.Errorf("stderr: %s", stderr.String())
	}
}
