package service

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/model"
)

// SchedulerMode selects how queued jobs are ordered.
type SchedulerMode string

// Scheduler modes. FCFS is the pre-SLO behavior (strict arrival
// order); SJF is class-priority + shortest-job-first: jobs are ordered
// by SLO class urgency first (smaller SLO target = more urgent,
// classless best-effort last), then by predicted cost within a class,
// so a table1 probe never queues behind an n=64 sweep that arrived
// first. Aged long jobs are promoted after StarveLimit bypasses, with
// the symmetric bound that no promotion may push any more-urgent
// waiter past StarveLimit bypasses of its own — the property test's
// "no short request waits behind >K long requests" holds by
// construction.
const (
	SchedFCFS SchedulerMode = "fcfs"
	SchedSJF  SchedulerMode = "sjf"
)

// ParseSchedulerMode parses a -sched flag value.
func ParseSchedulerMode(s string) (SchedulerMode, error) {
	switch SchedulerMode(strings.ToLower(s)) {
	case "", SchedFCFS:
		return SchedFCFS, nil
	case SchedSJF, "priority", "slo":
		return SchedSJF, nil
	}
	return "", fmt.Errorf("service: unknown scheduler %q (want fcfs or sjf)", s)
}

// DefaultStarveLimit is how many times a lower-priority job may be
// bypassed before it is promoted ahead of the urgent classes (and,
// symmetrically, how many promotions any urgent job can suffer).
const DefaultStarveLimit = 8

// bestEffortPrio orders classless/SLO-less jobs after every class with
// a target.
const bestEffortPrio = int64(math.MaxInt64)

// classPriority maps an SLO target to a priority rank: tighter target,
// smaller rank, scheduled sooner. No target = best effort.
func classPriority(sloMS int64) int64 {
	if sloMS <= 0 {
		return bestEffortPrio
	}
	return sloMS
}

// ParseClasses parses the -classes flag: comma-separated
// "name=slo_ms" declarations giving each SLO class its default
// latency target ("batch=0" declares a best-effort class).
func ParseClasses(s string) (map[string]int64, error) {
	out := map[string]int64{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		eq := strings.IndexByte(part, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("service: class %q is not name=slo_ms", part)
		}
		name := strings.TrimSpace(part[:eq])
		var slo int64
		if _, err := fmt.Sscanf(strings.TrimSpace(part[eq+1:]), "%d", &slo); err != nil {
			return nil, fmt.Errorf("service: class %q: bad slo: %w", part, err)
		}
		if slo < 0 {
			return nil, fmt.Errorf("service: class %q: negative slo", part)
		}
		out[name] = slo
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("service: no classes in %q", s)
	}
	return out, nil
}

// expCostCycles is the static predicted cost of each named sweep, in
// simulated cycles — rough magnitudes good enough to rank sweeps
// against cells and each other (the SJF key needs ordering, not
// accuracy). Custom cells use the closed-form model.CellCycles.
var expCostCycles = map[string]float64{
	"table1": 3e5,
	"fig6":   2e6, "fig7": 2e6, "fig8": 3e6, "fig9": 3e6,
	"fig10": 3e6, "fig11": 4e6, "fig12": 4e6,
	"ext-crossover": 8e6, "ext-model": 4e6, "ext-fault": 4e6,
	"ext-workloads": 1.2e7, "ext-mixed": 8e6, "ext-partition": 1.2e7,
}

// predictCost estimates a normalized spec's cost in simulated cycles:
// the Section 4 closed-form algebra for custom cells, static sweep
// weights for named experiments. Pure function of the spec — the
// scheduler it drives is deterministic under trace replay.
func predictCost(spec experiments.Spec) float64 {
	m := model.PrototypeMachine()
	var c float64
	for _, exp := range spec.Exps {
		w, ok := expCostCycles[exp]
		if !ok {
			w = 2e6
		}
		if spec.Full {
			w *= 6 // the full problem-size set is ~6x the quick set
		}
		c += w
	}
	for _, cell := range spec.Cells {
		c += m.CellCycles(cell.Mode, cell.N, cell.P, cell.Muls)
	}
	return c
}

// schedQueue is the service's one backlog: every admitted job waits
// here until the dispatcher places it. TryPop's order is the
// scheduling policy restricted to the jobs that fit the free
// capacity, so pool mode (whole-machine worker slots) and partition
// mode (free subcubes) share one pick. Entries keep popping after
// Close until the queue is empty, so graceful drain loses nothing.
type schedQueue struct {
	mode        SchedulerMode
	starveLimit int

	mu       sync.Mutex
	entries  []*job // arrival order
	closed   bool
	promoted int64 // aging promotions (metric)
	// wake nudges the dispatcher on every push, close and job
	// completion (size 1: the dispatcher re-scans the whole queue per
	// wake, so collapsed signals are harmless).
	wake chan struct{}
}

func newSchedQueue(mode SchedulerMode, starveLimit int) *schedQueue {
	if mode == "" {
		mode = SchedFCFS
	}
	if starveLimit <= 0 {
		starveLimit = DefaultStarveLimit
	}
	return &schedQueue{mode: mode, starveLimit: starveLimit, wake: make(chan struct{}, 1)}
}

// nudge wakes the dispatcher without blocking.
func (q *schedQueue) nudge() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// Push appends an arrival. The caller (Submit, under Service.mu) has
// verified capacity and that the queue is not closed.
func (q *schedQueue) Push(j *job) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		panic("service: push on closed scheduler queue")
	}
	q.entries = append(q.entries, j)
	q.mu.Unlock()
	q.nudge()
}

// Len returns the queued-job count.
func (q *schedQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.entries)
}

// Promoted returns how many aged jobs were promoted past urgent ones.
func (q *schedQueue) Promoted() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.promoted
}

// Close stops future pushes; queued entries still drain.
func (q *schedQueue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.nudge()
}

// Drained reports closed-and-empty (the dispatcher's exit condition).
func (q *schedQueue) Drained() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed && len(q.entries) == 0
}

// anyFits is the fit predicate of a queue with unlimited capacity.
func anyFits(int) bool { return true }

// TryPop removes and returns the next job under the scheduling policy
// among the entries whose pes fits; ok=false means none fits (or the
// queue is empty).
func (q *schedQueue) TryPop(fits func(pes int) bool) (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	idx := q.pickLocked(fits)
	if idx < 0 {
		return nil, false
	}
	j := q.entries[idx]
	q.entries = append(q.entries[:idx], q.entries[idx+1:]...)
	return j, true
}

// Shed removes and returns every entry whose deadline is before now.
func (q *schedQueue) Shed(now time.Time) []*job {
	q.mu.Lock()
	defer q.mu.Unlock()
	var shed []*job
	kept := q.entries[:0]
	for _, j := range q.entries {
		if !j.deadline.IsZero() && now.After(j.deadline) {
			shed = append(shed, j)
			continue
		}
		kept = append(kept, j)
	}
	clear(q.entries[len(kept):])
	q.entries = kept
	return shed
}

// pickLocked chooses the next entry index among those that fit, or -1.
// FCFS: the earliest fitting arrival. SJF: the aging rule first — the
// oldest fitting entry bypassed at least starveLimit times is
// promoted, unless promoting it would push a more-urgent waiter past
// starveLimit bypasses of its own (the veto that bounds every urgent
// job's total bypasses) — then the best fitting (class priority,
// predicted cost, arrival) triple. Bookkeeping covers every waiter,
// fitting or not: a normal pick charges one bypass to every
// strictly-less-urgent waiter; a promotion charges one to every
// strictly-more-urgent waiter. When every entry fits, this is plain
// SJF over the whole queue.
func (q *schedQueue) pickLocked(fits func(pes int) bool) int {
	if q.mode != SchedSJF || len(q.entries) == 1 {
		for i, e := range q.entries {
			if fits(e.spec.PEs) {
				return i
			}
		}
		return -1
	}
	aged, best := -1, -1
	for i, e := range q.entries {
		if !fits(e.spec.PEs) {
			continue
		}
		if e.skipped >= q.starveLimit && (aged < 0 || e.seq < q.entries[aged].seq) {
			aged = i
		}
		if best < 0 || schedLess(e, q.entries[best]) {
			best = i
		}
	}
	if best < 0 {
		return -1
	}
	if aged >= 0 {
		ok := true
		for _, e := range q.entries {
			if e.classPrio < q.entries[aged].classPrio && e.bypassed >= q.starveLimit {
				ok = false
				break
			}
		}
		if ok {
			for _, e := range q.entries {
				if e.classPrio < q.entries[aged].classPrio {
					e.bypassed++
				}
			}
			q.promoted++
			return aged
		}
	}
	for i, e := range q.entries {
		if i != best && e.classPrio > q.entries[best].classPrio {
			e.skipped++
		}
	}
	return best
}

// schedLess is the SJF order: class urgency, then predicted cost,
// then arrival.
func schedLess(a, b *job) bool {
	if a.classPrio != b.classPrio {
		return a.classPrio < b.classPrio
	}
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	return a.seq < b.seq
}
