package service

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
)

// gatedRunner counts executions and blocks each one until released.
type gatedRunner struct {
	mu    sync.Mutex
	runs  int32
	gate  chan struct{}
	bytes []byte
}

func newGatedRunner() *gatedRunner {
	return &gatedRunner{gate: make(chan struct{}), bytes: []byte(`{"fake":"report"}` + "\n")}
}

func (g *gatedRunner) run(ctx context.Context, spec experiments.Spec) ([]byte, error) {
	atomic.AddInt32(&g.runs, 1)
	<-g.gate
	return g.bytes, nil
}

func (g *gatedRunner) release() { close(g.gate) }

func specN(seed uint32) experiments.Spec {
	return experiments.Spec{Exps: []string{"table1"}, Seed: seed}
}

func waitState(t *testing.T, s *Service, id string, want State) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, ok := s.Wait(ctx, id)
	if !ok {
		t.Fatalf("job %s unknown", id)
	}
	if st.State != want {
		t.Fatalf("job %s state = %s, want %s (err %q)", id, st.State, want, st.Error)
	}
	return st
}

// TestCoalescing: N identical in-flight submits share one execution
// and one job, and all readers get identical bytes.
func TestCoalescing(t *testing.T) {
	g := newGatedRunner()
	s := New(Config{Workers: 1, QueueDepth: 8, run: g.run})
	defer s.Shutdown(context.Background())

	const n = 5
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		st, err := s.Submit(specN(1988), time.Time{})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = st.ID
	}
	for _, id := range ids[1:] {
		if id != ids[0] {
			t.Errorf("coalesced submit got job %s, want shared %s", id, ids[0])
		}
	}
	g.release()
	st := waitState(t, s, ids[0], StateDone)
	if st.Coalesced != n-1 {
		t.Errorf("coalesced count = %d, want %d", st.Coalesced, n-1)
	}
	if got := atomic.LoadInt32(&g.runs); got != 1 {
		t.Errorf("executions = %d, want 1", got)
	}
	res, _, ok := s.Result(ids[0])
	if !ok || string(res) != string(g.bytes) {
		t.Errorf("result = %q, %v", res, ok)
	}
	m := s.Metrics()
	if m["service/coalesced"] != n-1 || m["service/completed"] != 1 {
		t.Errorf("metrics: coalesced=%v completed=%v", m["service/coalesced"], m["service/completed"])
	}
}

// TestConcurrentCoalescing hammers one spec from many goroutines: the
// singleflight property must hold under contention (the satellite's
// "N identical submits -> 1 execution, N identical results").
func TestConcurrentCoalescing(t *testing.T) {
	g := newGatedRunner()
	s := New(Config{Workers: 2, QueueDepth: 8, run: g.run})
	defer s.Shutdown(context.Background())

	const n = 32
	var wg sync.WaitGroup
	ids := make([]string, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := s.Submit(specN(7), time.Time{})
			ids[i], errs[i] = st.ID, err
		}(i)
	}
	wg.Wait()
	g.release()
	for i := range ids {
		if errs[i] != nil {
			t.Fatalf("submit %d: %v", i, errs[i])
		}
		if ids[i] != ids[0] {
			t.Fatalf("submit %d got job %s, want %s", i, ids[i], ids[0])
		}
	}
	waitState(t, s, ids[0], StateDone)
	if got := atomic.LoadInt32(&g.runs); got != 1 {
		t.Errorf("executions = %d, want 1", got)
	}
	for i := 0; i < n; i++ {
		res, _, ok := s.Result(ids[i])
		if !ok || string(res) != string(g.bytes) {
			t.Fatalf("reader %d: result %q, %v", i, res, ok)
		}
	}
}

// TestQueueFull: with one busy worker and a depth-1 queue, the third
// distinct spec is rejected with a Retry-After estimate.
func TestQueueFull(t *testing.T) {
	g := newGatedRunner()
	s := New(Config{Workers: 1, QueueDepth: 1, run: g.run, MinRetryAfter: 2 * time.Second})
	defer func() { g.release(); s.Shutdown(context.Background()) }()

	a, err := s.Submit(specN(1), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until A is running so the queue slot is truly free for B.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, _ := s.Job(a.ID)
		if st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job A never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(specN(2), time.Time{}); err != nil {
		t.Fatalf("B should queue: %v", err)
	}
	_, err = s.Submit(specN(3), time.Time{})
	full, ok := err.(*QueueFullError)
	if !ok {
		t.Fatalf("C: err = %v, want QueueFullError", err)
	}
	if full.RetryAfter < 2*time.Second {
		t.Errorf("RetryAfter = %s, below MinRetryAfter floor", full.RetryAfter)
	}
	if m := s.Metrics(); m["service/rejected_queue_full"] != 1 {
		t.Errorf("rejected_queue_full = %v, want 1", m["service/rejected_queue_full"])
	}
}

// fakeClock is a settable clock for deadline tests.
type fakeClock struct{ nanos atomic.Int64 }

func (c *fakeClock) now() time.Time          { return time.Unix(0, c.nanos.Load()) }
func (c *fakeClock) advance(d time.Duration) { c.nanos.Add(int64(d)) }

// TestDeadlineAdmission: a deadline the queue-wait estimate cannot
// meet is rejected at admission; a queued job whose deadline passes
// before a worker picks it up expires without executing.
func TestDeadlineAdmission(t *testing.T) {
	clk := &fakeClock{}
	clk.advance(time.Hour) // non-zero epoch
	g := newGatedRunner()
	s := New(Config{Workers: 1, QueueDepth: 4, run: g.run, now: clk.now})
	defer s.Shutdown(context.Background())

	a, err := s.Submit(specN(1), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	// No duration observed yet: the estimate falls back to 0.5s per
	// backlog slot, so a 10ms deadline is unmeetable.
	_, err = s.Submit(specN(2), clk.now().Add(10*time.Millisecond))
	if _, ok := err.(*QueueFullError); !ok {
		t.Fatalf("tight deadline: err = %v, want QueueFullError", err)
	}
	// A generous deadline is admitted... but then the clock jumps past
	// it while the worker is still busy with A, so it expires unrun.
	b, err := s.Submit(specN(3), clk.now().Add(10*time.Second))
	if err != nil {
		t.Fatalf("loose deadline: %v", err)
	}
	clk.advance(time.Minute)
	g.release() // A finishes; worker dequeues B past its deadline
	waitState(t, s, a.ID, StateDone)
	st := waitState(t, s, b.ID, StateExpired)
	if st.Error == "" {
		t.Error("expired job carries no error")
	}
	runs := atomic.LoadInt32(&g.runs)
	if runs != 1 {
		t.Errorf("executions = %d, want 1 (expired job must not run)", runs)
	}
	m := s.Metrics()
	if m["service/expired"] != 1 || m["service/rejected_deadline"] != 1 {
		t.Errorf("metrics: expired=%v rejected_deadline=%v, want 1, 1",
			m["service/expired"], m["service/rejected_deadline"])
	}
}

// TestCacheHitPath: a finished spec is served from the cache on
// resubmit — done immediately, marked cached, same bytes, no second
// execution.
func TestCacheHitPath(t *testing.T) {
	g := newGatedRunner()
	g.release() // run instantly
	s := New(Config{Workers: 1, QueueDepth: 4, run: g.run})
	defer s.Shutdown(context.Background())

	first, err := s.Submit(specN(1988), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, first.ID, StateDone)

	second, err := s.Submit(specN(1988), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if second.State != StateDone || !second.Cached {
		t.Fatalf("resubmit: state=%s cached=%v, want done+cached", second.State, second.Cached)
	}
	if second.ID == first.ID {
		t.Error("cache hit should mint a fresh job id")
	}
	res, _, _ := s.Result(second.ID)
	orig, _, _ := s.Result(first.ID)
	if string(res) != string(orig) {
		t.Error("cached bytes differ from original")
	}
	if got := atomic.LoadInt32(&g.runs); got != 1 {
		t.Errorf("executions = %d, want 1", got)
	}
	m := s.Metrics()
	if m["service/served_from_cache"] != 1 || m["cache/hits"] != 1 {
		t.Errorf("metrics: served_from_cache=%v cache/hits=%v", m["service/served_from_cache"], m["cache/hits"])
	}
}

// TestGracefulDrain: shutdown rejects new work but completes every
// accepted job.
func TestGracefulDrain(t *testing.T) {
	g := newGatedRunner()
	s := New(Config{Workers: 1, QueueDepth: 4, run: g.run})

	a, _ := s.Submit(specN(1), time.Time{})
	b, err := s.Submit(specN(2), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	// Draining begins promptly; new submissions bounce.
	deadline := time.Now().Add(5 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("service never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(specN(3), time.Time{}); err != ErrDraining {
		t.Fatalf("submit during drain: err = %v, want ErrDraining", err)
	}
	g.release()
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, id := range []string{a.ID, b.ID} {
		st, ok := s.Job(id)
		if !ok || st.State != StateDone {
			t.Errorf("accepted job %s lost in drain: %+v ok=%v", id, st, ok)
		}
	}
}

// TestFailedJob: an execution error lands the job in failed with the
// error text, and nothing is cached.
func TestFailedJob(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, run: func(context.Context, experiments.Spec) ([]byte, error) {
		return nil, fmt.Errorf("machine on fire")
	}})
	defer s.Shutdown(context.Background())
	st, err := s.Submit(specN(1), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, s, st.ID, StateFailed)
	if got.Error != "machine on fire" {
		t.Errorf("error = %q", got.Error)
	}
	// The failure is not cached: resubmitting tries again.
	st2, err := s.Submit(specN(1), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Cached {
		t.Error("failed result must not be served from cache")
	}
}

// TestBadSpecRejected: an invalid spec never reaches the queue.
func TestBadSpecRejected(t *testing.T) {
	s := New(Config{Workers: 1, run: newGatedRunner().run})
	defer s.Shutdown(context.Background())
	if _, err := s.Submit(experiments.Spec{Exps: []string{"fig99"}}, time.Time{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if m := s.Metrics(); m["service/jobs_tracked"] != 0 {
		t.Errorf("bad spec left a tracked job: %v", m["service/jobs_tracked"])
	}
}

// TestHealthSnapshot: Health reports queue depth, in-flight work, the
// drain flag, and the instance name — the load signals a cluster
// gateway routes on.
func TestHealthSnapshot(t *testing.T) {
	g := newGatedRunner()
	s := New(Config{Workers: 1, QueueDepth: 8, Name: "r0", run: g.run})

	h := s.Health()
	if h.Status != "ok" || h.Name != "r0" || h.Draining || h.QueueDepth != 0 || h.InFlight != 0 {
		t.Fatalf("idle health = %+v", h)
	}
	if h.Workers != 1 || h.Code != experiments.CodeVersion {
		t.Fatalf("health constants = %+v", h)
	}

	// One running (gated) job plus one queued behind it.
	a, err := s.Submit(specN(1), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, a.ID)
	if _, err := s.Submit(specN(2), time.Time{}); err != nil {
		t.Fatal(err)
	}
	h = s.Health()
	if h.InFlight != 1 || h.QueueDepth != 1 {
		t.Fatalf("busy health = %+v, want inflight 1 queue 1", h)
	}

	g.release()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	h = s.Health()
	if !h.Draining || h.InFlight != 0 || h.QueueDepth != 0 {
		t.Fatalf("drained health = %+v", h)
	}
	if m := s.Metrics(); m["service/inflight"] != 0 {
		t.Fatalf("service/inflight = %v after drain", m["service/inflight"])
	}
	if h.CacheEntries != 2 {
		t.Fatalf("cache_entries = %d, want 2 completed results", h.CacheEntries)
	}
}

func waitRunning(t *testing.T, s *Service, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st, ok := s.Job(id); ok && st.State == StateRunning {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached running", id)
}

// fillBody builds the canonical report document a real run of specN
// (seed) would produce enough of to pass fill validation.
func fillBody(t *testing.T, seed uint32) []byte {
	t.Helper()
	rep := &experiments.Report{
		Schema:      experiments.SchemaV23,
		PEs:         experiments.DefaultPEs,
		Seed:        seed,
		Experiments: []experiments.ReportExperiment{{Name: "table1"}},
	}
	body, err := rep.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestPeerFill: a filled result is served as a cache hit without
// executing anything; refills of the same key count as duplicates;
// bad specs and empty payloads are rejected.
func TestPeerFill(t *testing.T) {
	ran := false
	s := New(Config{Workers: 1, QueueDepth: 4, run: func(context.Context, experiments.Spec) ([]byte, error) {
		ran = true
		return []byte("computed\n"), nil
	}})
	defer s.Shutdown(context.Background())

	body := fillBody(t, 7)
	stored, err := s.Fill(specN(7), body)
	if err != nil || !stored {
		t.Fatalf("Fill = %v, %v; want stored", stored, err)
	}
	if stored, err = s.Fill(specN(7), body); err != nil || stored {
		t.Fatalf("refill = %v, %v; want duplicate", stored, err)
	}

	st, err := s.Submit(specN(7), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Cached || st.State != StateDone {
		t.Fatalf("submit after fill = %+v, want cached done", st)
	}
	res, _, ok := s.Result(st.ID)
	if !ok || string(res) != string(body) {
		t.Fatalf("filled result = %q, want the filled bytes", res)
	}
	if ran {
		t.Error("fill-satisfied submit executed the runner")
	}

	if _, err := s.Fill(specN(8), nil); err == nil {
		t.Error("empty fill payload accepted")
	}
	if _, err := s.Fill(experiments.Spec{}, body); err == nil {
		t.Error("invalid spec fill accepted")
	}
	m := s.Metrics()
	if m["service/peer_fills"] != 1 || m["service/peer_fill_dups"] != 1 {
		t.Errorf("fill metrics = %v / %v, want 1 / 1", m["service/peer_fills"], m["service/peer_fill_dups"])
	}
}

// TestFillValidation: the fill path refuses any payload that is not
// the canonical report document of the spec it claims to be for —
// arbitrary bytes, non-canonical encodings, mismatched parameters,
// wrong experiment lists, and host-timing-bearing documents all bounce
// without touching the cache.
func TestFillValidation(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, run: func(context.Context, experiments.Spec) ([]byte, error) {
		return []byte("computed\n"), nil
	}})
	defer s.Shutdown(context.Background())

	cases := []struct {
		name string
		body []byte
	}{
		{"arbitrary bytes", []byte(`{"filled":"report"}` + "\n")},
		{"unknown field", []byte(`{"schema":"pasmbench/v2.3","full":false,"pes":16,"seed":7,"observe":false,"experiments":[{"name":"table1"}],"evil":1}` + "\n")},
		{"non-canonical encoding", []byte(`{"schema":"pasmbench/v2.3","full":false,"pes":16,"seed":7,"observe":false,"experiments":[{"name":"table1"}]}` + "\n")},
		{"wrong seed", fillBody(t, 8)},
		{"stale schema", func() []byte {
			rep := &experiments.Report{Schema: experiments.SchemaV22, PEs: experiments.DefaultPEs, Seed: 7,
				Experiments: []experiments.ReportExperiment{{Name: "table1"}}}
			b, _ := rep.Marshal()
			return b
		}()},
		{"wrong pes", func() []byte {
			rep := &experiments.Report{Schema: experiments.SchemaV23, PEs: 64, Seed: 7,
				Experiments: []experiments.ReportExperiment{{Name: "table1"}}}
			b, _ := rep.Marshal()
			return b
		}()},
		{"wrong experiments", func() []byte {
			rep := &experiments.Report{Schema: experiments.SchemaV23, PEs: experiments.DefaultPEs, Seed: 7,
				Experiments: []experiments.ReportExperiment{{Name: "fig6"}}}
			b, _ := rep.Marshal()
			return b
		}()},
		{"host timings", func() []byte {
			rep := &experiments.Report{Schema: experiments.SchemaV23, PEs: experiments.DefaultPEs, Seed: 7, HostSeconds: 1.5,
				Experiments: []experiments.ReportExperiment{{Name: "table1"}}}
			b, _ := rep.Marshal()
			return b
		}()},
		{"bad schema", func() []byte {
			rep := &experiments.Report{Schema: "pasmbench/v999", Seed: 7,
				Experiments: []experiments.ReportExperiment{{Name: "table1"}}}
			b, _ := rep.Marshal()
			return b
		}()},
	}
	for _, tc := range cases {
		if stored, err := s.Fill(specN(7), tc.body); err == nil {
			t.Errorf("%s: accepted (stored=%v), want rejection", tc.name, stored)
		}
	}
	// Nothing landed: a fresh submit must execute, not hit the cache.
	st, err := s.Submit(specN(7), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cached {
		t.Error("rejected fill still poisoned the cache")
	}
	if m := s.Metrics(); m["service/peer_fill_rejects"] != float64(len(cases)) {
		t.Errorf("peer_fill_rejects = %v, want %d", m["service/peer_fill_rejects"], len(cases))
	}
}

// TestJobsNewestFirst: Jobs orders by creation time, then creation
// sequence. A job created on a whole second formats without a
// fractional part in RFC 3339 ("...:00Z"), which sorts after
// "...:00.1Z" as a string, so the order must come from the times.
func TestJobsNewestFirst(t *testing.T) {
	clk := &fakeClock{}
	clk.advance(time.Hour) // a whole second
	g := newGatedRunner()
	s := New(Config{Workers: 1, QueueDepth: 8, run: g.run, now: clk.now})
	defer func() { g.release(); s.Shutdown(context.Background()) }()

	var want []string
	for i, step := range []time.Duration{0, 100 * time.Millisecond, 0} {
		clk.advance(step)
		st, err := s.Submit(specN(uint32(i+1)), time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		want = append([]string{st.ID}, want...)
	}
	var got []string
	for _, st := range s.Jobs() {
		got = append(got, st.ID)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("Jobs() order = %v, want newest first %v", got, want)
	}
}
