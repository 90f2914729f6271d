package service

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/partition"
	"repro/internal/pasm"
)

func newServiceMachine(t *testing.T, pes int) *partition.Machine {
	t.Helper()
	cfg := pasm.DefaultConfig()
	cfg.NumPEs = pes
	m, err := partition.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// cellSpec is a small real-engine spec sized for a pes-PE partition
// (distinct seeds keep submissions from coalescing).
func cellSpec(pes int, seed uint32) experiments.Spec {
	return experiments.Spec{
		Cells: []experiments.CellSpec{{N: 8, P: pes, Muls: 1, Mode: "simd"}},
		PEs:   pes,
		Seed:  seed,
	}
}

// TestPartitionPacking: on a 64-PE machine, four default-size (16-PE)
// jobs run concurrently — the dispatcher packs them onto disjoint
// subcubes — while a fifth has to wait for a release; the machine
// returns to fully free once everything drains.
func TestPartitionPacking(t *testing.T) {
	m := newServiceMachine(t, 64)
	gate := make(chan struct{})
	s := New(Config{QueueDepth: 8, Machine: m, run: func(ctx context.Context, spec experiments.Spec) ([]byte, error) {
		<-gate
		return []byte("packed\n"), nil
	}})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	ids := make([]string, 5)
	for i := range ids {
		st, err := s.Submit(specN(uint32(100+i)), time.Time{})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = st.ID
	}

	// 4x16 PEs fill the machine; the fifth job must stay queued.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if s.Metrics()["service/inflight"] == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never reached 4 concurrent jobs (inflight=%v)", s.Metrics()["service/inflight"])
		}
		time.Sleep(time.Millisecond)
	}
	met := s.Metrics()
	if met["partition/pes_busy"] != 64 || met["partition/leases_active"] != 4 {
		t.Errorf("pes_busy=%v leases_active=%v, want 64/4", met["partition/pes_busy"], met["partition/leases_active"])
	}
	if st, _ := s.Job(ids[4]); st.State != StateQueued {
		t.Errorf("fifth job state = %s, want queued while the machine is full", st.State)
	}

	close(gate)
	for _, id := range ids {
		waitState(t, s, id, StateDone)
	}
	met = s.Metrics()
	if met["partition/pes_busy"] != 0 || met["partition/pes_free"] != 64 {
		t.Errorf("machine not drained: busy=%v free=%v", met["partition/pes_busy"], met["partition/pes_free"])
	}
	if met["partition/pes_busy_peak"] != 64 {
		t.Errorf("pes_busy_peak = %v, want 64", met["partition/pes_busy_peak"])
	}
	if met["partition/leases_total"] != 5 || met["partition/releases_total"] != 5 {
		t.Errorf("leases_total=%v releases_total=%v, want 5/5", met["partition/leases_total"], met["partition/releases_total"])
	}
}

// TestPartitionModeByteIdentity: a spec served by a partition-mode
// instance — executed inside a subcube lease, co-resident with other
// jobs — returns byte-identical results to the classic worker-pool
// path. This is the serving-layer face of the subcube isomorphism.
func TestPartitionModeByteIdentity(t *testing.T) {
	opts := experiments.DefaultOptions()
	opts.Parallelism = 2

	classic := New(Config{Workers: 2, QueueDepth: 8, Options: opts})
	defer classic.Shutdown(context.Background())
	parted := New(Config{QueueDepth: 8, Machine: newServiceMachine(t, 16), Options: opts})
	defer parted.Shutdown(context.Background())

	fetch := func(s *Service, spec experiments.Spec) []byte {
		t.Helper()
		st, err := s.Submit(spec, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, st.ID, StateDone)
		res, _, ok := s.Result(st.ID)
		if !ok {
			t.Fatalf("no result for %s", st.ID)
		}
		return res
	}

	// Mixed partition sizes in flight at once: 2- and 4-PE jobs pack
	// side by side on the 16-PE machine.
	specs := []experiments.Spec{cellSpec(4, 1), cellSpec(2, 2), cellSpec(4, 3), cellSpec(2, 4)}
	var wg sync.WaitGroup
	got := make([][]byte, len(specs))
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec experiments.Spec) {
			defer wg.Done()
			got[i] = fetch(parted, spec)
		}(i, spec)
	}
	wg.Wait()
	for i, spec := range specs {
		want := fetch(classic, spec)
		if string(got[i]) != string(want) {
			t.Errorf("spec %d: partition-mode bytes diverge from the classic path\npartition: %s\nclassic:   %s",
				i, got[i], want)
		}
	}
}

// TestPartitionRejectsOversize: a spec whose pes exceeds the machine
// is a bad request (a plain error, not backpressure) and nothing is
// queued.
func TestPartitionRejectsOversize(t *testing.T) {
	s := New(Config{QueueDepth: 8, Machine: newServiceMachine(t, 16),
		run: func(context.Context, experiments.Spec) ([]byte, error) { return []byte("x\n"), nil }})
	defer s.Shutdown(context.Background())

	_, err := s.Submit(experiments.Spec{Cells: []experiments.CellSpec{{N: 8, P: 4, Muls: 1, Mode: "simd"}}, PEs: 64}, time.Time{})
	if err == nil {
		t.Fatal("oversize spec admitted")
	}
	var full *QueueFullError
	if errors.As(err, &full) || errors.Is(err, ErrDraining) {
		t.Fatalf("oversize spec rejected as overload (%v), want bad request", err)
	}
	if s.QueueLen() != 0 {
		t.Errorf("queue length = %d after rejection", s.QueueLen())
	}
}

// TestPartitionDrain: shutdown in partition mode places and finishes
// every accepted job, including ones still waiting for a partition
// when the drain begins.
func TestPartitionDrain(t *testing.T) {
	opts := experiments.DefaultOptions()
	s := New(Config{QueueDepth: 16, Machine: newServiceMachine(t, 16), Options: opts})

	// Six 4-PE jobs on a 16-PE machine: at most four run at once, so
	// the drain necessarily starts with jobs still pending.
	ids := make([]string, 6)
	for i := range ids {
		st, err := s.Submit(cellSpec(4, uint32(40+i)), time.Time{})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = st.ID
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		st, ok := s.Job(id)
		if !ok || st.State != StateDone {
			t.Errorf("job %s after drain: %+v, want done", id, st)
		}
	}
	if busy := s.Metrics()["partition/pes_busy"]; busy != 0 {
		t.Errorf("pes_busy = %v after drain", busy)
	}
}

// TestPartitionHealthAndMetrics: partition mode shows up in /healthz
// (machine size) and /metrics (machine gauges, wait quantiles).
func TestPartitionHealthAndMetrics(t *testing.T) {
	s := New(Config{QueueDepth: 8, Machine: newServiceMachine(t, 32),
		run: func(context.Context, experiments.Spec) ([]byte, error) { return []byte("x\n"), nil }})
	defer s.Shutdown(context.Background())

	h := s.Health()
	if h.MachinePEs != 32 {
		t.Errorf("health = %+v, want machine_pes=32", h)
	}

	st, err := s.Submit(specN(9), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateDone)
	m := s.Metrics()
	for _, key := range []string{"partition/pes_total", "partition/occupancy_pct", "partition/fragmentation_pct"} {
		if _, ok := m[key]; !ok {
			t.Errorf("metrics missing %s", key)
		}
	}
	if m["partition/pes_total"] != 32 {
		t.Errorf("partition/pes_total = %v, want 32", m["partition/pes_total"])
	}
	if _, ok := m["service/partition_wait_ms/p50"]; !ok {
		t.Error("metrics missing service/partition_wait_ms quantiles")
	}

	// Classic mode must not grow partition keys.
	classic := New(Config{Workers: 1, QueueDepth: 4,
		run: func(context.Context, experiments.Spec) ([]byte, error) { return []byte("x\n"), nil }})
	defer classic.Shutdown(context.Background())
	if _, ok := classic.Metrics()["partition/pes_total"]; ok {
		t.Error("classic mode reports partition metrics")
	}
	if h := classic.Health(); h.MachinePEs != 0 {
		t.Errorf("classic health carries partition fields: %+v", h)
	}
}

// wholeSpec is a distinct (by seed) cell that needs a 16-PE machine.
func wholeSpec(seed uint32) experiments.Spec {
	return experiments.Spec{
		Cells: []experiments.CellSpec{{N: 16, P: 16, Muls: 1, Mode: "simd"}},
		PEs:   16,
		Seed:  seed,
	}
}

// waitInflight polls until n jobs are executing.
func waitInflight(t *testing.T, s *Service, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.Health().InFlight != n {
		if time.Now().After(deadline) {
			t.Fatalf("inflight = %d, want %d", s.Health().InFlight, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQueueDepthBoundBothModes: QueueDepth bounds the backlog in
// partition mode exactly as in pool mode. With one whole-machine job
// running and QueueDepth 2, nine more submits queue two and reject
// seven, and /healthz and /metrics report the two waiting jobs.
func TestQueueDepthBoundBothModes(t *testing.T) {
	for _, tc := range []struct {
		name    string
		machine *partition.Machine
	}{
		{"pool", nil},
		{"partition", newServiceMachine(t, 16)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := newGatedRunner()
			s := New(Config{QueueDepth: 2, Workers: 1, Machine: tc.machine, run: g.run})
			defer func() { g.release(); s.Shutdown(context.Background()) }()

			if _, err := s.Submit(wholeSpec(1), time.Time{}); err != nil {
				t.Fatal(err)
			}
			waitInflight(t, s, 1)
			accepted, rejected := 1, 0
			for seed := uint32(2); seed <= 10; seed++ {
				_, err := s.Submit(wholeSpec(seed), time.Time{})
				var full *QueueFullError
				switch {
				case err == nil:
					accepted++
				case errors.As(err, &full):
					rejected++
				default:
					t.Fatalf("submit %d: %v", seed, err)
				}
			}
			if accepted != 3 || rejected != 7 {
				t.Errorf("accepted %d, rejected %d; want 3 and 7", accepted, rejected)
			}
			if h := s.Health(); h.QueueDepth != 2 {
				t.Errorf("healthz queue_depth = %d, want 2", h.QueueDepth)
			}
			if d := s.Metrics()["service/queue_depth"]; d != 2 {
				t.Errorf("service/queue_depth = %v, want 2", d)
			}
		})
	}
}

// TestOneDispatchPath: pool mode with one worker and partition mode on
// a 16-PE machine where every job needs the whole machine start the
// same submit sequence in the same order, under FCFS and under SJF —
// the two modes are one dispatcher with different capacity tests.
func TestOneDispatchPath(t *testing.T) {
	subs := []struct {
		exp   string
		class string
		slo   int64
	}{
		{"fig6", "", 0}, // runs first, while the rest queue
		{"ext-workloads", "", 0},
		{"fig6", "interactive", 50},
		{"table1", "", 0},
		{"table1", "interactive", 50},
		{"fig7", "", 0},
	}
	startOrder := func(sched SchedulerMode, machine *partition.Machine) []uint32 {
		var mu sync.Mutex
		var order []uint32
		gate := make(chan struct{})
		s := New(Config{QueueDepth: 16, Workers: 1, Machine: machine, Sched: sched,
			run: func(_ context.Context, spec experiments.Spec) ([]byte, error) {
				mu.Lock()
				order = append(order, spec.Seed)
				mu.Unlock()
				<-gate
				return []byte("x\n"), nil
			}})
		for i, sub := range subs {
			spec := experiments.Spec{Exps: []string{sub.exp}, PEs: 16, Seed: uint32(i)}
			if _, err := s.SubmitWith(spec, SubmitOpts{Class: sub.class, SLOMs: sub.slo}); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				waitInflight(t, s, 1)
			}
		}
		close(gate)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		return order
	}
	for _, tc := range []struct {
		sched SchedulerMode
		want  []uint32
	}{
		{SchedFCFS, []uint32{0, 1, 2, 3, 4, 5}},
		{SchedSJF, []uint32{0, 4, 2, 3, 5, 1}},
	} {
		pool := startOrder(tc.sched, nil)
		parted := startOrder(tc.sched, newServiceMachine(t, 16))
		if !reflect.DeepEqual(pool, tc.want) || !reflect.DeepEqual(parted, tc.want) {
			t.Errorf("%s start order: pool %v, partition %v, want %v", tc.sched, pool, parted, tc.want)
		}
	}
}
