package service

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/experiments"
)

// Scheduler properties, checked over randomized workloads
// (testing/quick seeds a PRNG that builds the job mix):
//
//  1. SJF ordering: with everything queued, pops come out sorted by
//     (class urgency, predicted cost, arrival).
//  2. Bounded bypass: no short-class (urgent) request is overtaken by
//     more than starveLimit long-class requests that arrived after it
//     — the anti-starvation promotion is itself bounded.
//  3. No starvation: every job pops eventually (trivially true for a
//     drain loop, asserted for completeness).
//  4. FCFS mode is strict arrival order regardless of class/cost.

func mkJob(seq int, sloMS int64, cost float64) *job {
	return &job{seq: seq, slo: sloMS, cost: cost, classPrio: classPriority(sloMS)}
}

// randomJobs builds a mixed workload: ~1/3 urgent (slo 50ms) cheap
// jobs, the rest best-effort with random, mostly larger costs.
func randomJobs(rng *rand.Rand, n int) []*job {
	jobs := make([]*job, n)
	for i := range jobs {
		if rng.Intn(3) == 0 {
			jobs[i] = mkJob(i, 50, 1e5+float64(rng.Intn(100)))
		} else {
			jobs[i] = mkJob(i, 0, 1e6+float64(rng.Intn(1_000_000)))
		}
	}
	return jobs
}

func TestSchedSJFOrdering(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := newSchedQueue(SchedSJF, 1_000_000) // starvation aging off
		jobs := randomJobs(rng, 2+rng.Intn(40))
		for _, j := range jobs {
			q.Push(j)
		}
		var prev *job
		for range jobs {
			j, ok := q.TryPop(anyFits)
			if !ok {
				return false
			}
			if prev != nil && schedLess(j, prev) {
				t.Logf("seed %d: job seq=%d popped after seq=%d out of order", seed, j.seq, prev.seq)
				return false
			}
			prev = j
		}
		_, ok := q.TryPop(anyFits)
		return !ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSchedFCFSIsArrivalOrder(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := newSchedQueue(SchedFCFS, 0)
		jobs := randomJobs(rng, 1+rng.Intn(30))
		for _, j := range jobs {
			q.Push(j)
		}
		for i := range jobs {
			j, ok := q.TryPop(anyFits)
			if !ok || j.seq != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestSchedBoundedBypass is the satellite property: under SJF with
// aging, no urgent (short-class) request waits behind more than
// starveLimit long-class requests — counted as best-effort jobs that
// pop while the urgent one is queued. Random interleaving of pushes
// and pops exercises promotions and their veto.
func TestSchedBoundedBypass(t *testing.T) {
	const limit = 4
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := newSchedQueue(SchedSJF, limit)
		jobs := randomJobs(rng, 30+rng.Intn(60))
		// To *force* starvation pressure, make the best-effort jobs old:
		// push a long prefix of them first, then interleave.
		queued := map[int]bool{}   // urgent jobs currently waiting
		overtaken := map[int]int{} // urgent seq -> best-effort pops while waiting
		popped := 0
		next := 0
		push := func() {
			j := jobs[next]
			q.Push(j)
			if j.classPrio != bestEffortPrio {
				queued[j.seq] = true
			}
			next++
		}
		pop := func() bool {
			j, ok := q.TryPop(anyFits)
			if !ok {
				return true
			}
			popped++
			if j.classPrio == bestEffortPrio {
				for seq := range queued {
					overtaken[seq]++
					if overtaken[seq] > limit {
						t.Logf("seed %d: urgent seq=%d overtaken %d times (> %d)", seed, seq, overtaken[seq], limit)
						return false
					}
				}
			} else {
				delete(queued, j.seq)
			}
			return true
		}
		for next < len(jobs) || popped < len(jobs) {
			if next < len(jobs) && (popped == len(jobs) || rng.Intn(2) == 0) {
				push()
			} else if !pop() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSchedAgingPromotes checks the flip side: a best-effort job under
// constant urgent pressure is promoted after starveLimit bypasses
// rather than waiting forever.
func TestSchedAgingPromotes(t *testing.T) {
	const limit = 3
	q := newSchedQueue(SchedSJF, limit)
	batch := mkJob(0, 0, 1e7)
	q.Push(batch)
	seq := 1
	for i := 0; i < 2*limit; i++ {
		q.Push(mkJob(seq, 10, 1e4))
		seq++
		j, ok := q.TryPop(anyFits)
		if !ok {
			t.Fatal("queue unexpectedly empty")
		}
		if j == batch {
			if i < limit {
				t.Fatalf("batch job promoted after only %d bypasses (limit %d)", i, limit)
			}
			if q.Promoted() != 1 {
				t.Fatalf("Promoted() = %d, want 1", q.Promoted())
			}
			return
		}
	}
	t.Fatalf("batch job never promoted after %d bypasses (limit %d)", 2*limit, limit)
}

// TestSchedPromotionVeto: the promotion cannot push an urgent waiter
// past starveLimit bypasses of its own.
func TestSchedPromotionVeto(t *testing.T) {
	const limit = 2
	q := newSchedQueue(SchedSJF, limit)
	// An aged batch job...
	batch := mkJob(0, 0, 1e7)
	batch.skipped = limit
	// ...and an urgent waiter that has already absorbed limit
	// promotions cannot be bypassed again.
	urgent := mkJob(1, 5, 1e4)
	urgent.bypassed = limit
	q.Push(batch)
	q.Push(urgent)
	j, ok := q.TryPop(anyFits)
	if !ok || j != urgent {
		t.Fatalf("veto failed: urgent job with %d bypasses was overtaken again", limit)
	}
}

func TestParseSchedulerMode(t *testing.T) {
	for in, want := range map[string]SchedulerMode{
		"": SchedFCFS, "fcfs": SchedFCFS,
		"sjf": SchedSJF, "priority": SchedSJF, "slo": SchedSJF, "SJF": SchedSJF,
	} {
		got, err := ParseSchedulerMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseSchedulerMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseSchedulerMode("lifo"); err == nil {
		t.Fatal("ParseSchedulerMode(lifo) should fail")
	}
}

func TestParseClasses(t *testing.T) {
	m, err := ParseClasses("interactive=50, batch=0")
	if err != nil {
		t.Fatal(err)
	}
	if m["interactive"] != 50 || m["batch"] != 0 {
		t.Fatalf("ParseClasses = %v", m)
	}
	for _, bad := range []string{"", "x", "=5", "a=-1", "a=b"} {
		if _, err := ParseClasses(bad); err == nil {
			t.Fatalf("ParseClasses(%q) should fail", bad)
		}
	}
}

func TestPredictCostRanks(t *testing.T) {
	cell := func(n, p int, mode string) experiments.Spec {
		return experiments.Spec{Cells: []experiments.CellSpec{{N: n, P: p, Muls: 1, Mode: mode}}}
	}
	small, err := cell(8, 4, "simd").Normalize()
	if err != nil {
		t.Fatal(err)
	}
	big, err := cell(64, 16, "smimd").Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if predictCost(small) >= predictCost(big) {
		t.Fatalf("predictCost: small cell %.0f >= big cell %.0f", predictCost(small), predictCost(big))
	}
	probe, err := (experiments.Spec{Exps: []string{"table1"}}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := (experiments.Spec{Exps: []string{"ext-workloads"}}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if predictCost(probe) >= predictCost(sweep) {
		t.Fatal("predictCost: table1 should be cheaper than ext-workloads")
	}
	full := probe
	full.Full = true
	if predictCost(full) <= predictCost(probe) {
		t.Fatal("predictCost: full sweep should cost more than quick")
	}
}

// sized sets a queued job's partition size.
func sized(j *job, pes int) *job {
	j.spec.PEs = pes
	return j
}

// fitsUpTo is a fit predicate for a machine with free blocks of at
// most max PEs.
func fitsUpTo(max int) func(int) bool {
	return func(pes int) bool { return pes <= max }
}

// TestPickFCFSBackfills: FCFS takes the earliest entry that fits,
// backfilling past a head that does not; nothing fitting pops nothing
// and leaves the queue intact.
func TestPickFCFSBackfills(t *testing.T) {
	q := newSchedQueue(SchedFCFS, 0)
	for i, pes := range []int{16, 4, 2, 8} {
		q.Push(sized(mkJob(i, 0, 1), pes))
	}
	if j, ok := q.TryPop(fitsUpTo(8)); !ok || j.seq != 1 {
		t.Fatalf("TryPop = %v, %v; want seq 1 (earliest fitting job)", j, ok)
	}
	if j, ok := q.TryPop(fitsUpTo(1)); ok {
		t.Fatalf("TryPop popped seq %d with nothing fitting", j.seq)
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d after a no-fit pick, want 3", q.Len())
	}
	if j, ok := q.TryPop(anyFits); !ok || j.seq != 0 {
		t.Fatalf("TryPop = %v, %v; want the head once it fits", j, ok)
	}
}

// TestPickSJFSkipsNonFittingUrgent: SJF chooses among the entries that
// fit, so an urgent job too large for the free capacity is passed
// over for the cheapest fitting job; its more-urgent class is not
// charged a skip. A less-urgent waiter is charged even when it does
// not fit.
func TestPickSJFSkipsNonFittingUrgent(t *testing.T) {
	q := newSchedQueue(SchedSJF, DefaultStarveLimit)
	urgent := sized(mkJob(0, 50, 10), 16)
	costly := sized(mkJob(1, 0, 900), 4)
	cheap := sized(mkJob(2, 0, 5), 2)
	q.Push(urgent)
	q.Push(costly)
	q.Push(cheap)
	if j, ok := q.TryPop(fitsUpTo(8)); !ok || j != cheap {
		t.Fatalf("TryPop = %v, %v; want the cheapest fitting job", j, ok)
	}
	if urgent.skipped != 0 || costly.skipped != 0 {
		t.Fatalf("skips charged: urgent %d, costly %d; want 0, 0", urgent.skipped, costly.skipped)
	}
	if j, ok := q.TryPop(anyFits); !ok || j != urgent {
		t.Fatalf("TryPop = %v, %v; want the urgent job once it fits", j, ok)
	}
	if costly.skipped != 1 {
		t.Fatalf("costly.skipped = %d, want 1 (bypassed by the urgent job)", costly.skipped)
	}

	// Charges reach waiters that do not fit.
	q = newSchedQueue(SchedSJF, DefaultStarveLimit)
	big := sized(mkJob(0, 0, 5), 16)
	small := sized(mkJob(1, 50, 10), 2)
	q.Push(big)
	q.Push(small)
	if j, ok := q.TryPop(fitsUpTo(8)); !ok || j != small || big.skipped != 1 {
		t.Fatalf("TryPop = %v, %v, big.skipped = %d; want small, and one skip on big", j, ok, big.skipped)
	}
}

// TestPickSJFAgedMustFit: an aged job that does not fit is not
// promoted; the pick falls back to the best fitting entry.
func TestPickSJFAgedMustFit(t *testing.T) {
	q := newSchedQueue(SchedSJF, 2)
	aged := sized(mkJob(0, 0, 1e7), 16)
	aged.skipped = 2
	urgent := sized(mkJob(1, 50, 10), 4)
	q.Push(aged)
	q.Push(urgent)
	if j, ok := q.TryPop(fitsUpTo(8)); !ok || j != urgent || q.Promoted() != 0 {
		t.Fatalf("TryPop = %v, %v, promoted %d; want the urgent job and no promotion", j, ok, q.Promoted())
	}
	if j, ok := q.TryPop(anyFits); !ok || j != aged {
		t.Fatalf("TryPop = %v, %v; want the aged job once it fits", j, ok)
	}
}

func TestResolveSLO(t *testing.T) {
	g := newGatedRunner()
	s := New(Config{Workers: 1, QueueDepth: 4, run: g.run,
		Classes: map[string]int64{"interactive": 50}})
	defer func() { g.release(); s.Shutdown(context.Background()) }()

	cases := []struct {
		opts SubmitOpts
		want int64
		ok   bool
	}{
		{SubmitOpts{Class: "interactive"}, 50, true},            // class default
		{SubmitOpts{Class: "interactive", SLOMs: 20}, 20, true}, // explicit wins
		{SubmitOpts{Class: "unknown"}, 0, true},                 // undeclared: best effort
		{SubmitOpts{}, 0, true},
		{SubmitOpts{SLOMs: -1}, 0, false},
		{SubmitOpts{Class: "bad class"}, 0, false}, // space is not metric-key safe
		{SubmitOpts{Class: strings.Repeat("x", 65)}, 0, false},
	}
	for i, c := range cases {
		got, err := s.resolveSLO(c.opts)
		if (err == nil) != c.ok {
			t.Errorf("case %d: err = %v, want ok=%v", i, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("case %d: slo = %d, want %d", i, got, c.want)
		}
	}
}

func TestRateLimitedErrorMessage(t *testing.T) {
	e := &RateLimitedError{Client: "greedy", RetryAfter: 250 * time.Millisecond}
	msg := e.Error()
	for _, frag := range []string{"greedy", "250ms"} {
		if !strings.Contains(msg, frag) {
			t.Errorf("error %q missing %q", msg, frag)
		}
	}
}
