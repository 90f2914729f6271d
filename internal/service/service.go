// Package service turns the experiment engine into a long-running
// server: a bounded job queue with deadline-aware admission control,
// one dispatcher running queued specs on Workers whole-machine slots
// through the existing host-parallel engine
// (experiments.Options.Parallelism), request coalescing so identical
// in-flight specs share one execution, and a content-addressed LRU
// result cache (internal/cache) so repeated specs are served
// byte-identical without re-simulating. cmd/pasmd fronts it with
// HTTP; the engine itself is transport-free and fully testable
// in-process.
//
// Partition mode (Config.Machine) is the same dispatcher with a
// different capacity test: instead of counting whole-machine slots it
// carves a shared partition.Machine into power-of-two subcube
// partitions and packs queued jobs onto them — each job runs inside a
// partition of its spec's pes, concurrently with whatever else fits,
// and the subcube isomorphism keeps every result byte-identical to
// the pool path (the cache, coalescing, and the cluster's byte-compare
// guarantees are mode-blind). In both modes the next job is the
// queue's own order (FCFS or SJF) restricted to the jobs that fit.
//
// Backpressure discipline: the queue never grows past its bound.
// A full queue rejects the submit with ErrQueueFull carrying a
// Retry-After estimate derived from observed job durations; a
// submit whose deadline cannot be met by the estimated queue wait is
// rejected at admission instead of wasting a slot; a job whose
// deadline passes while queued is expired without execution. Graceful
// shutdown stops admission (ErrDraining) and drains every accepted
// job before returning, so no accepted work is lost.
//
// Resilience discipline: a job's deadline follows it end to end — it
// gates admission, sheds the job if it expires while queued, and rides
// the execution context into experiments.RunSpecContext so a running
// job stops between experiments once the deadline passes. A panicking
// run (a bug, or chaos injection) fails only its own job and is
// counted; the dispatcher never sees the panic, so the service keeps
// serving. An optional faults.Injector (Config.Faults, pasmd
// -chaos-seed/-chaos-profile) injects deterministic errors, delays,
// and panics at the admission, cache, execution, and HTTP points;
// detached it costs one nil pointer test per site.
package service

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// State is a job's lifecycle state. Transitions:
//
//	queued -> running -> done | failed
//	queued -> expired            (deadline passed before it was placed)
//	running -> expired           (deadline passed mid-run; execution canceled)
//	(cache hit) -> done          (never queued)
type State string

// Job lifecycle states.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
	StateExpired State = "expired"
)

// Terminal reports whether a state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateExpired
}

// Config configures a Service.
type Config struct {
	// QueueDepth bounds the number of admitted-but-unstarted jobs.
	// Default 64.
	QueueDepth int
	// Workers is the number of jobs executing concurrently. Each job
	// additionally fans its cells across Options.Parallelism host
	// goroutines, so Workers*Parallelism should track the host CPU
	// count. Default 1. Ignored in partition mode (Machine non-nil),
	// where concurrency is whatever the machine's free PEs admit.
	Workers int
	// Machine, when non-nil, switches the service to partition mode:
	// instead of counting Workers slots, the dispatcher packs queued
	// jobs onto free subcube partitions of this shared machine (each
	// job gets a partition of its spec's pes and runs with the
	// partition's network view; the subcube isomorphism keeps its
	// result bytes identical to a standalone run). Jobs whose pes
	// exceeds the machine are rejected at admission as bad requests.
	Machine *partition.Machine
	// Sched orders the queue: FCFS (default, strict arrival order) or
	// SJF (SLO-class priority + shortest-predicted-job-first with
	// anti-starvation aging; see sched.go).
	Sched SchedulerMode
	// StarveLimit bounds SJF reordering: an aged job is promoted after
	// this many bypasses, and no urgent job is ever bypassed by more
	// than this many promotions. Default DefaultStarveLimit.
	StarveLimit int
	// Classes declares the SLO classes and their default latency
	// targets in ms (a submit naming a class without an explicit SLO
	// inherits the declared target). Nil accepts any class name with
	// only explicit targets.
	Classes map[string]int64
	// AdmitRate/AdmitBurst arm per-client token-bucket admission:
	// each identified client (X-Pasm-Client) gets AdmitRate submits
	// per second with AdmitBurst headroom; excess is rejected with
	// 429 + Retry-After. AdmitRate 0 (default) disables admission
	// control. Unidentified submits are never rate-limited.
	AdmitRate  float64
	AdmitBurst float64
	// Options configures per-job execution (machine config and cell
	// parallelism). Full/Seed/Observe are overwritten per spec.
	Options experiments.Options
	// Cache bounds the result cache.
	Cache cache.Config
	// MaxJobs bounds the finished-job history kept for status polls;
	// older finished jobs are forgotten (their results stay cached).
	// Default 1024.
	MaxJobs int
	// MinRetryAfter floors the Retry-After estimate on rejection.
	// Default 1s.
	MinRetryAfter time.Duration
	// Name identifies this instance in /healthz (cluster deployments
	// give each replica a stable name; empty is fine standalone).
	Name string
	// FillSecret arms the peer-fill endpoint: fills must present it in
	// the X-Pasm-Fill-Secret header. Empty (the default) keeps the
	// endpoint disabled — it shares the public listener, so it must
	// never be open to anonymous writes.
	FillSecret string
	// MaxFillBytes bounds one peer-fill request body. Default 8 MiB.
	MaxFillBytes int64
	// Faults, when non-nil, injects deterministic faults at the
	// admission, cache, execution, and HTTP points (chaos testing).
	// Nil costs one pointer test per probe site.
	Faults *faults.Injector
	// Telemetry, when non-nil, records request-scoped traces: admit/
	// queue/run spans per traced submit, /debug/requests retention, and
	// the run span's simulated-clock capture. Nil (detached) costs one
	// pointer test per site, like Faults.
	Telemetry *telemetry.Tracer
	// Logger receives structured serving logs (job failures, recovered
	// panics) with trace IDs when available. Nil disables logging.
	Logger *slog.Logger

	// run overrides job execution (tests). ctx carries the job's
	// deadline; implementations should abandon work when it expires.
	run func(ctx context.Context, spec experiments.Spec) ([]byte, error)
	// now overrides the clock (tests).
	now func() time.Time
}

// Errors returned by Submit. ErrQueueFull and ErrDraining map to HTTP
// 503 + Retry-After.
var (
	// ErrDraining rejects submissions during graceful shutdown.
	ErrDraining = errors.New("service: draining, not accepting new jobs")
)

// QueueFullError reports a rejected submission with a wait estimate.
type QueueFullError struct {
	// RetryAfter estimates when a slot should free up.
	RetryAfter time.Duration
	// Reason distinguishes "queue full" from "deadline unmeetable".
	Reason string
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("service: %s (retry after %s)", e.Reason, e.RetryAfter)
}

// JobStatus is an immutable snapshot of a job.
type JobStatus struct {
	ID    string `json:"id"`
	Key   string `json:"key"`
	State State  `json:"state"`
	// Cached marks a job served from the result cache without queuing.
	Cached bool `json:"cached"`
	// Coalesced counts extra submissions sharing this execution.
	Coalesced int    `json:"coalesced,omitempty"`
	Error     string `json:"error,omitempty"`
	Created   string `json:"created,omitempty"`
	Started   string `json:"started,omitempty"`
	Finished  string `json:"finished,omitempty"`
}

// job is the mutable record; every field below mu's line is guarded by
// Service.mu.
type job struct {
	id       string
	spec     experiments.Spec // normalized
	key      cache.Key
	deadline time.Time // zero = none
	done     chan struct{}

	// Scheduling identity, immutable after submit: arrival sequence,
	// SLO class and target, submitting client, predicted cost, and the
	// derived class priority rank.
	seq       int
	class     string
	slo       int64
	client    string
	cost      float64
	classPrio int64
	// skipped/bypassed are the SJF aging counters, guarded by the
	// schedQueue lock while the job is queued (see sched.go).
	skipped  int
	bypassed int

	state     State
	cached    bool
	coalesced int
	err       string
	result    []byte
	created   time.Time
	started   time.Time
	finished  time.Time
	trace     *telemetry.Req // nil when the submit was not traced
}

// Service is the experiment-serving engine.
type Service struct {
	cfg       Config
	run       func(ctx context.Context, spec experiments.Spec, cap *obs.Capture, lease *partition.Lease) ([]byte, error)
	now       func() time.Time
	cache     *cache.Cache
	faults    *faults.Injector
	tracer    *telemetry.Tracer
	log       *slog.Logger
	sched     *schedQueue
	admission *buckets // nil: admission control off
	machine   *partition.Machine

	mu         sync.Mutex
	jobs       map[string]*job
	inflight   map[cache.Key]*job
	finished   []string // terminal job ids, oldest first (history bound)
	running    int      // jobs currently executing
	draining   bool
	seq        int
	reg        *obs.Registry
	avgRunSecs float64          // EWMA of observed job durations
	classSeen  map[string]bool  // SLO classes observed (metric keys)
	clientDone map[string]int64 // completions per client (fairness index)
	wg         sync.WaitGroup
}

// Service histogram bounds (milliseconds of host time; these are
// host-side serving metrics, unlike the simulated-time metrics the
// obs package records inside the machine).
var msBounds = []int64{1, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 15000}

// New starts a service and its dispatcher.
func New(cfg Config) *Service {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 1024
	}
	if cfg.MinRetryAfter <= 0 {
		cfg.MinRetryAfter = time.Second
	}
	if cfg.MaxFillBytes <= 0 {
		cfg.MaxFillBytes = 8 << 20
	}
	s := &Service{
		cfg:        cfg,
		now:        cfg.now,
		cache:      cache.New(cfg.Cache),
		faults:     cfg.Faults,
		tracer:     cfg.Telemetry,
		log:        cfg.Logger,
		sched:      newSchedQueue(cfg.Sched, cfg.StarveLimit),
		admission:  newBuckets(cfg.AdmitRate, cfg.AdmitBurst, 0),
		machine:    cfg.Machine,
		jobs:       map[string]*job{},
		inflight:   map[cache.Key]*job{},
		classSeen:  map[string]bool{},
		clientDone: map[string]int64{},
		reg:        obs.NewRegistry(),
	}
	if cfg.run != nil {
		s.run = func(ctx context.Context, spec experiments.Spec, _ *obs.Capture, _ *partition.Lease) ([]byte, error) {
			return cfg.run(ctx, spec)
		}
	} else {
		s.run = func(ctx context.Context, spec experiments.Spec, cap *obs.Capture, lease *partition.Lease) ([]byte, error) {
			opts := cfg.Options
			opts.Capture = cap
			if lease != nil {
				// The job's whole spec runs inside its partition: the
				// lease view replaces the private network, and cells run
				// sequentially — they share the one view, and a new VM
				// resets its circuits.
				opts.Config = lease.Config(opts.Config)
				opts.Parallelism = 1
			}
			rep, err := experiments.RunSpecContext(ctx, spec, experiments.RunConfig{Options: opts})
			if err != nil {
				return nil, err
			}
			return rep.Marshal()
		}
	}
	if s.now == nil {
		s.now = time.Now
	}
	s.wg.Add(1)
	go s.dispatcher()
	return s
}

// SubmitOpts carries everything about a submission besides the spec.
// The zero value is a plain untraced, unclassed, deadline-less submit.
type SubmitOpts struct {
	// Deadline bounds the job's whole lifetime (zero: none).
	Deadline time.Time
	// Class names the request's SLO class (X-Pasm-Class). SLOMs is its
	// latency target in ms; 0 with a declared class inherits the
	// class's configured target, otherwise best effort.
	Class string
	SLOMs int64
	// Client identifies the submitter for token-bucket admission and
	// the fairness index (X-Pasm-Client; empty is never rate-limited).
	Client string
	// Trace continues a propagated trace context (the X-Pasm-Trace
	// value; empty falls back to the tracer's own sampling).
	Trace string
}

// Submit admits a spec. The returned status is the job to poll — for
// a cache hit it is already done; for a coalesced submit it is the
// in-flight job every identical spec shares (its deadline, if any,
// stays the primary's). deadline zero means none.
func (s *Service) Submit(spec experiments.Spec, deadline time.Time) (JobStatus, error) {
	return s.SubmitWith(spec, SubmitOpts{Deadline: deadline})
}

// SubmitTraced is Submit continuing a propagated trace context.
func (s *Service) SubmitTraced(spec experiments.Spec, deadline time.Time, traceHeader string) (JobStatus, error) {
	return s.SubmitWith(spec, SubmitOpts{Deadline: deadline, Trace: traceHeader})
}

// SubmitWith is the full submission path: deadline, SLO class,
// client identity, and trace context. A traced submit records an
// admit span with its outcome, class, and queue depth; a queued job
// carries the trace to its run, which adds queue and run spans and
// finishes the trace at the job's terminal state. Non-queued outcomes
// (cache hit, coalesce, rejection) finish the trace at submit return.
func (s *Service) SubmitWith(spec experiments.Spec, opts SubmitOpts) (JobStatus, error) {
	tr := s.tracer.Start(opts.Trace, "submit")
	admit := tr.Span("admit")
	if opts.Class != "" {
		admit.Attr("class", opts.Class)
	}
	st, err := s.submit(spec, opts, tr, admit)
	if err != nil {
		admit.Attr("error", err.Error())
	}
	admit.EndSpan()
	// A queued job's trace finishes at its terminal state (the
	// dispatcher owns it now); every other outcome is terminal here.
	if err != nil || st.State.Terminal() || st.Coalesced > 0 {
		tr.Finish()
	}
	return st, err
}

func (s *Service) submit(spec experiments.Spec, opts SubmitOpts, tr *telemetry.Req, admit *telemetry.Span) (JobStatus, error) {
	deadline := opts.Deadline
	norm, err := spec.Normalize()
	if err != nil {
		admit.Attr("outcome", "bad_spec")
		return JobStatus{}, err
	}
	slo, err := s.resolveSLO(opts)
	if err != nil {
		admit.Attr("outcome", "bad_class")
		return JobStatus{}, err
	}
	if s.machine != nil && norm.PEs > s.machine.PEs() {
		admit.Attr("outcome", "bad_spec")
		return JobStatus{}, fmt.Errorf("service: spec needs pes=%d, this machine has %d PEs", norm.PEs, s.machine.PEs())
	}
	rawKey, err := norm.Key()
	if err != nil {
		admit.Attr("outcome", "bad_spec")
		return JobStatus{}, err
	}
	key := cache.Key(rawKey)

	// Fault probes happen before mu so injected delays never stall
	// other submitters. An injected admission fault is reported as
	// transient overload (503 + Retry-After), so well-behaved clients
	// retry it exactly like real backpressure. An injected cache fault
	// degrades the lookup to a miss (recompute, not reject).
	var admitErr error
	var cacheFaulted bool
	if s.faults != nil {
		if act := s.faults.Check(faults.Admit); act.Err != nil || act.Delay > 0 {
			if act.Delay > 0 {
				time.Sleep(act.Delay)
			}
			admitErr = act.Err
		}
		cacheFaulted = s.faults.Check(faults.Cache).Err != nil
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	admit.Attr("queue_depth", s.sched.Len())
	if s.draining {
		s.reg.Add("rejected_draining", 1)
		admit.Attr("outcome", "rejected_draining")
		return JobStatus{}, ErrDraining
	}
	s.reg.Add("submitted", 1)
	if s.admission != nil && opts.Client != "" {
		if ok, wait := s.admission.admit(opts.Client, s.now()); !ok {
			s.reg.Add("rejected_ratelimited", 1)
			admit.Attr("outcome", "rejected_ratelimited")
			return JobStatus{}, &RateLimitedError{Client: opts.Client, RetryAfter: wait}
		}
	}
	if admitErr != nil {
		s.reg.Add("rejected_injected", 1)
		admit.Attr("outcome", "rejected_injected")
		return JobStatus{}, &QueueFullError{RetryAfter: s.cfg.MinRetryAfter, Reason: "injected admission fault"}
	}
	now := s.now()

	if cacheFaulted {
		s.reg.Add("cache_faults", 1)
	}
	if val, ok := s.cacheGet(key, cacheFaulted); ok {
		j := s.newJobLocked(norm, key, deadline, now)
		j.state = StateDone
		j.cached = true
		j.result = val
		j.finished = now
		close(j.done)
		s.retireLocked(j)
		s.reg.Add("served_from_cache", 1)
		admit.Attr("outcome", "cache_hit")
		return s.statusLocked(j), nil
	}

	if prev, ok := s.inflight[key]; ok {
		prev.coalesced++
		s.reg.Add("coalesced", 1)
		admit.Attr("outcome", "coalesced").Attr("coalesced_into", prev.id).Attr("fan_in", prev.coalesced)
		return s.statusLocked(prev), nil
	}

	est := s.waitEstimateLocked()
	if !deadline.IsZero() && now.Add(est).After(deadline) {
		s.reg.Add("rejected_deadline", 1)
		admit.Attr("outcome", "rejected_deadline")
		return JobStatus{}, &QueueFullError{RetryAfter: s.floorRetry(est), Reason: "deadline unmeetable at current queue depth"}
	}

	if s.sched.Len() >= s.cfg.QueueDepth {
		s.reg.Add("rejected_queue_full", 1)
		admit.Attr("outcome", "rejected_queue_full")
		return JobStatus{}, &QueueFullError{RetryAfter: s.floorRetry(est), Reason: "queue full"}
	}
	j := s.newJobLocked(norm, key, deadline, now)
	j.trace = tr
	j.class = opts.Class
	j.slo = slo
	j.client = opts.Client
	j.cost = predictCost(norm)
	j.classPrio = classPriority(slo)
	if j.class != "" {
		s.classSeen[j.class] = true
	}
	s.sched.Push(j) // bounded: capacity was verified under mu and only Submit pushes
	s.inflight[key] = j
	s.reg.Hist("queue_depth", []int64{1, 2, 4, 8, 16, 32, 64, 128, 256}).Observe(int64(s.sched.Len()))
	admit.Attr("outcome", "queued").Attr("job", j.id)
	return s.statusLocked(j), nil
}

// resolveSLO derives a submit's effective SLO target: an explicit
// target wins; a declared class contributes its default; an undeclared
// class with no target is best effort. Class names are bounded and
// character-restricted because they become metric keys and span attrs.
func (s *Service) resolveSLO(opts SubmitOpts) (int64, error) {
	if opts.SLOMs < 0 {
		return 0, fmt.Errorf("service: negative slo_ms %d", opts.SLOMs)
	}
	if len(opts.Class) > 64 {
		return 0, fmt.Errorf("service: class name over 64 bytes")
	}
	for i := 0; i < len(opts.Class); i++ {
		c := opts.Class[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '_' || c == '.' {
			continue
		}
		return 0, fmt.Errorf("service: class %q has invalid character %q", opts.Class, c)
	}
	slo := opts.SLOMs
	if slo == 0 && opts.Class != "" && s.cfg.Classes != nil {
		slo = s.cfg.Classes[opts.Class]
	}
	return slo, nil
}

// cacheGet is the result-cache lookup behind the cache fault point: a
// faulted lookup misses, so the spec recomputes instead of failing.
func (s *Service) cacheGet(key cache.Key, faulted bool) ([]byte, bool) {
	if faulted {
		return nil, false
	}
	return s.cache.Get(key)
}

// newJobLocked allocates and registers a job record.
func (s *Service) newJobLocked(spec experiments.Spec, key cache.Key, deadline, now time.Time) *job {
	s.seq++
	j := &job{
		id:       fmt.Sprintf("j%d-%s", s.seq, hex.EncodeToString(key[:4])),
		seq:      s.seq,
		spec:     spec,
		key:      key,
		deadline: deadline,
		done:     make(chan struct{}),
		state:    StateQueued,
		created:  now,
	}
	s.jobs[j.id] = j
	return j
}

// waitEstimateLocked predicts how long a newly queued job waits for a
// worker: the queued backlog divided across the pool, paced by the
// observed average job duration (half a second until measured). In
// partition mode the "pool" is how many default-size partitions the
// machine holds.
func (s *Service) waitEstimateLocked() time.Duration {
	avg := s.avgRunSecs
	if avg <= 0 {
		avg = 0.5
	}
	pool := s.cfg.Workers
	if s.machine != nil {
		if pool = s.machine.PEs() / experiments.DefaultPEs; pool < 1 {
			pool = 1
		}
	}
	backlog := float64(s.sched.Len()+1) / float64(pool)
	return time.Duration(avg * backlog * float64(time.Second))
}

func (s *Service) floorRetry(d time.Duration) time.Duration {
	if d < s.cfg.MinRetryAfter {
		return s.cfg.MinRetryAfter
	}
	return d
}

// dispatcher is the service's one dispatch loop: it places queued
// jobs on free capacity and hands each to a runner goroutine, waking
// on every arrival, every completion, and Close. Capacity is a fit
// test plus an acquire: pool mode counts Workers whole-machine slots;
// partition mode asks the machine for a free subcube of the job's pes
// and leases it. Drain: once the queue is closed and empty, the
// dispatcher waits for the running jobs and exits.
func (s *Service) dispatcher() {
	defer s.wg.Done()
	var runners sync.WaitGroup
	// Runners are reused: an idle one takes the next placement, and a
	// new one starts only when none is idle. A fresh goroutine per job
	// measured about 25% higher p95 job latency than reused ones under
	// a mixed open-loop load on a two-core host.
	placed := make(chan placement)
	for {
		for {
			j, ok := s.next()
			if !ok {
				break
			}
			if !s.beginJob(j) { // expired at the last instant
				continue
			}
			p := placement{j: j}
			if s.machine != nil {
				var err error
				if p.lease, err = s.machine.Acquire(j.spec.PEs); err != nil {
					// Unreachable in practice: the fit test passed and only
					// this loop allocates. Fail the job rather than wedge
					// the queue.
					s.finishJob(j, nil, err, nil)
					continue
				}
			}
			select {
			case placed <- p:
			default:
				runners.Add(1)
				go s.runner(p, placed, &runners)
			}
		}
		if s.sched.Drained() {
			break
		}
		<-s.sched.wake
	}
	close(placed)
	runners.Wait()
}

// placement is a job the dispatcher has started, with its partition
// lease (nil in pool mode).
type placement struct {
	j     *job
	lease *partition.Lease
}

// runner runs its first placement, then every placement it receives
// until the dispatcher closes placed.
func (s *Service) runner(p placement, placed <-chan placement, runners *sync.WaitGroup) {
	defer runners.Done()
	for ok := true; ok; p, ok = <-placed {
		s.runJob(p.j, p.lease)
	}
}

// next sheds every queued job whose deadline has passed, then pops the
// next job that fits the free capacity.
func (s *Service) next() (*job, bool) {
	s.mu.Lock()
	now := s.now()
	shed := s.sched.Shed(now)
	for _, j := range shed {
		s.expireQueuedLocked(j, now)
	}
	free := s.running < s.cfg.Workers
	s.mu.Unlock()
	for _, j := range shed {
		s.endExpired(j, now)
	}
	fits := func(int) bool { return free }
	if s.machine != nil {
		largest := s.machine.LargestFree()
		fits = func(pes int) bool { return pes <= largest }
	}
	return s.sched.TryPop(fits)
}

// runJob executes one placed job — inside its partition lease in
// partition mode, lease nil in pool mode — then frees its capacity and
// wakes the dispatcher. The lease is released before the job turns
// terminal, so a caller that sees the job finished sees its PEs free.
func (s *Service) runJob(j *job, lease *partition.Lease) {
	result, err := s.execute(j, lease)
	var decorate func(*telemetry.Span)
	if lease != nil {
		lease.Release()
		decorate = func(run *telemetry.Span) {
			run.Attr("partition_base", lease.Base).Attr("partition_pes", lease.PEs)
		}
	}
	s.finishJob(j, result, err, decorate)
	s.sched.nudge()
}

// beginJob transitions a dequeued job to running, or expires it if its
// deadline already passed (returning false).
func (s *Service) beginJob(j *job) bool {
	s.mu.Lock()
	now := s.now()
	if !j.deadline.IsZero() && now.After(j.deadline) {
		s.expireQueuedLocked(j, now)
		s.mu.Unlock()
		s.endExpired(j, now)
		return false
	}
	j.state = StateRunning
	j.started = now
	s.running++
	wait := now.Sub(j.created).Milliseconds()
	s.reg.Hist("queue_wait_ms", msBounds).Observe(wait)
	if s.machine != nil {
		// In partition mode the queue wait IS the wait for a free
		// partition; report it under the name the dashboards use.
		s.reg.Hist("partition_wait_ms", msBounds).Observe(wait)
	}
	s.mu.Unlock()
	j.trace.SpanAt("queue", j.created).EndAt(now)
	return true
}

// expireQueuedLocked sheds a job whose deadline passed before it was
// placed; endExpired finishes its trace and log line outside mu.
func (s *Service) expireQueuedLocked(j *job, now time.Time) {
	j.state = StateExpired
	j.err = "deadline exceeded before execution"
	j.finished = now
	delete(s.inflight, j.key)
	close(j.done)
	s.retireLocked(j)
	s.reg.Add("expired", 1)
}

func (s *Service) endExpired(j *job, now time.Time) {
	j.trace.SpanAt("queue", j.created).Attr("expired", true).EndAt(now)
	j.trace.FinishAt(now)
	s.logJob(j)
}

// finishJob records a finished execution: state transition, caching,
// metrics, trace spans (decorate, when non-nil, adds mode-specific
// span attributes), and the structured log line.
func (s *Service) finishJob(j *job, result []byte, err error, decorate func(*telemetry.Span)) {
	s.mu.Lock()
	s.running--
	j.finished = s.now()
	runSecs := j.finished.Sub(j.started).Seconds()
	if s.avgRunSecs == 0 {
		s.avgRunSecs = runSecs
	} else {
		s.avgRunSecs = 0.8*s.avgRunSecs + 0.2*runSecs
	}
	s.reg.Hist("run_ms", msBounds).Observe(int64(runSecs * 1000))
	switch {
	case err != nil && errors.Is(err, context.DeadlineExceeded):
		j.state = StateExpired
		j.err = "deadline exceeded during execution"
		s.reg.Add("expired_running", 1)
	case err != nil:
		j.state = StateFailed
		j.err = err.Error()
		s.reg.Add("failed", 1)
	default:
		j.state = StateDone
		j.result = result
		s.cache.Put(j.key, result)
		s.reg.Add("completed", 1)
	}
	if j.class != "" {
		// Per-SLO-class serving outcome: end-to-end latency histogram
		// (quantiles derive in Metrics) and, when the class has a
		// target, whether this job met it.
		totalMS := j.finished.Sub(j.created).Milliseconds()
		s.reg.Hist("class_total_ms/"+j.class, msBounds).Observe(totalMS)
		if j.state == StateDone && j.slo > 0 {
			if totalMS <= j.slo {
				s.reg.Add("class_slo_ok/"+j.class, 1)
			} else {
				s.reg.Add("class_slo_miss/"+j.class, 1)
			}
		}
	}
	if j.client != "" && j.state == StateDone {
		s.clientDone[j.client]++
	}
	coalesced := j.coalesced
	delete(s.inflight, j.key)
	close(j.done)
	s.retireLocked(j)
	s.mu.Unlock()
	if j.trace != nil {
		run := j.trace.SpanAt("run", j.started).OnTrack("worker").
			Attr("outcome", string(j.state)).Attr("coalesced", coalesced)
		if j.class != "" {
			run.Attr("class", j.class)
			if j.slo > 0 {
				run.Attr("slo_ms", j.slo)
			}
		}
		if decorate != nil {
			decorate(run)
		}
		if j.err != "" {
			run.Attr("error", j.err)
		}
		run.EndAt(j.finished)
		j.trace.FinishAt(j.finished)
	}
	s.logJob(j)
}

// logJob emits one structured line per terminal job (nil logger: one
// pointer test). Reads j without mu: the job is terminal and this
// worker owns it.
func (s *Service) logJob(j *job) {
	if s.log == nil {
		return
	}
	attrs := []any{
		"job", j.id,
		"state", string(j.state),
		"queue_wait_ms", durMs(j.created, pickTime(j.started, j.finished)),
		"total_ms", durMs(j.created, j.finished),
	}
	if !j.started.IsZero() {
		attrs = append(attrs, "run_ms", durMs(j.started, j.finished))
	}
	if j.trace != nil {
		attrs = append(attrs, "trace", j.trace.Trace)
	}
	if j.err != "" {
		attrs = append(attrs, "error", j.err)
		s.log.Warn("job finished", attrs...)
		return
	}
	s.log.Info("job finished", attrs...)
}

func pickTime(a, b time.Time) time.Time {
	if !a.IsZero() {
		return a
	}
	return b
}

func durMs(from, to time.Time) float64 {
	if from.IsZero() || to.IsZero() {
		return 0
	}
	return float64(to.Sub(from).Microseconds()) / 1000
}

// execute runs one job under its deadline with panic isolation: a
// panicking run (real or injected) fails only this job — the
// dispatcher and every other job keep running. The
// run-point fault check precedes execution, so injected errors and
// panics exercise the same recovery paths real ones would. A traced
// job additionally captures its simulated event stream (bridging the
// run span to the simulated clock) and runs under a pprof label
// carrying the trace ID, so CPU profiles attribute samples to
// requests.
func (s *Service) execute(j *job, lease *partition.Lease) (result []byte, err error) {
	ctx := context.Background()
	if !j.deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, j.deadline)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			s.mu.Lock()
			s.reg.Add("panics_recovered", 1)
			s.mu.Unlock()
			result, err = nil, fmt.Errorf("service: job panicked: %v\n%s", r, debug.Stack())
		}
	}()
	if s.faults != nil {
		if act := s.faults.Check(faults.Run); act.Err != nil || act.Panic || act.Delay > 0 {
			if act.Delay > 0 {
				select {
				case <-time.After(act.Delay):
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			if act.Panic {
				panic("injected chaos panic")
			}
			if act.Err != nil {
				return nil, act.Err
			}
		}
	}
	if j.trace == nil {
		return s.run(ctx, j.spec, nil, lease)
	}
	cap := j.trace.NewSimCapture()
	start := s.now()
	pprof.Do(ctx, pprof.Labels("pasm_trace", j.trace.Trace), func(ctx context.Context) {
		result, err = s.run(ctx, j.spec, cap, lease)
	})
	j.trace.AttachSim(cap, start, s.now())
	return result, err
}

// retireLocked appends a terminal job to the bounded history, dropping
// the oldest finished jobs past MaxJobs (their cached results remain).
func (s *Service) retireLocked(j *job) {
	if !j.finished.IsZero() {
		s.reg.Hist("total_ms", msBounds).Observe(j.finished.Sub(j.created).Milliseconds())
	}
	s.finished = append(s.finished, j.id)
	for len(s.finished) > s.cfg.MaxJobs {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// Job returns a job's status snapshot.
func (s *Service) Job(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return s.statusLocked(j), true
}

// Jobs lists every tracked job, newest first: by creation time, then
// by creation sequence.
func (s *Service) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(a, b int) bool {
		if !jobs[a].created.Equal(jobs[b].created) {
			return jobs[a].created.After(jobs[b].created)
		}
		return jobs[a].seq > jobs[b].seq
	})
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = s.statusLocked(j)
	}
	return out
}

// Result returns a done job's result bytes.
func (s *Service) Result(id string) ([]byte, JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, JobStatus{}, false
	}
	return j.result, s.statusLocked(j), true
}

// Wait blocks until the job reaches a terminal state or ctx expires,
// returning the latest snapshot either way.
func (s *Service) Wait(ctx context.Context, id string) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	select {
	case <-j.done:
	case <-ctx.Done():
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statusLocked(j), true
}

func (s *Service) statusLocked(j *job) JobStatus {
	st := JobStatus{
		ID:        j.id,
		Key:       hex.EncodeToString(j.key[:]),
		State:     j.state,
		Cached:    j.cached,
		Coalesced: j.coalesced,
		Error:     j.err,
	}
	fmtTime := func(t time.Time) string {
		if t.IsZero() {
			return ""
		}
		return t.UTC().Format(time.RFC3339Nano)
	}
	st.Created = fmtTime(j.created)
	st.Started = fmtTime(j.started)
	st.Finished = fmtTime(j.finished)
	return st
}

// Draining reports whether graceful shutdown has begun.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// HealthInfo is the /healthz body: liveness plus the load signals a
// cluster gateway routes on. The status code stays 200 whenever the
// process can answer — queue pressure and draining are reported in the
// body, not the code, so health checking and load reporting share one
// round trip.
type HealthInfo struct {
	Status       string `json:"status"`
	Name         string `json:"name,omitempty"`
	Draining     bool   `json:"draining"`
	QueueDepth   int    `json:"queue_depth"`
	InFlight     int    `json:"inflight"`
	CacheEntries int    `json:"cache_entries"`
	Workers      int    `json:"workers"`
	// MachinePEs is the partition-mode machine size (0 in pool mode).
	MachinePEs int    `json:"machine_pes,omitempty"`
	Code       string `json:"code"`
}

// Health snapshots the service's load and drain state.
func (s *Service) Health() HealthInfo {
	s.mu.Lock()
	h := HealthInfo{
		Status:     "ok",
		Name:       s.cfg.Name,
		Draining:   s.draining,
		QueueDepth: s.sched.Len(),
		InFlight:   s.running,
		Workers:    s.cfg.Workers,
		Code:       experiments.CodeVersion,
	}
	if s.machine != nil {
		h.MachinePEs = s.machine.PEs()
	}
	s.mu.Unlock()
	h.CacheEntries = s.cache.Len()
	return h
}

// Fill inserts an externally computed result for spec into the result
// cache — the peer-fill path: a cluster gateway offers a result served
// by one replica to the replica that owns the spec's key, so a hit
// anywhere becomes a hit everywhere. The key is recomputed from the
// spec here (never trusted from the wire), so a fill can only ever
// land under the address its spec hashes to — and the payload itself
// is validated against the spec (validateFillPayload) before it is
// stored, so a corrupt or malicious peer cannot poison the cache with
// bytes a real run of this spec could never produce. Returns whether
// the bytes were stored (false: already cached, counted as a
// duplicate).
func (s *Service) Fill(spec experiments.Spec, result []byte) (bool, error) {
	if len(result) == 0 {
		return false, errors.New("service: empty fill payload")
	}
	norm, err := spec.Normalize()
	if err != nil {
		return false, err
	}
	rawKey, err := norm.Key()
	if err != nil {
		return false, err
	}
	key := cache.Key(rawKey)
	if err := validateFillPayload(norm, result); err != nil {
		s.mu.Lock()
		s.reg.Add("peer_fill_rejects", 1)
		s.mu.Unlock()
		return false, err
	}
	stored := !s.cache.Contains(key)
	if stored {
		s.cache.Put(key, result)
	}
	s.mu.Lock()
	if stored {
		s.reg.Add("peer_fills", 1)
	} else {
		s.reg.Add("peer_fill_dups", 1)
	}
	s.mu.Unlock()
	return stored, nil
}

// validateFillPayload checks that result could only be the report
// document a real run of norm produces: it must parse as a known-
// schema report with no unknown fields, re-marshal byte-identically
// (the canonical encoding every producer emits — so the byte-identity
// guarantee failover and hedging rest on survives fills), carry no
// host-timing fields (those only appear on the non-deterministic,
// non-cacheable path), and agree with the spec on every parameter the
// report embeds (seed, full, observe, the machine size, and the
// experiment list). A
// forged payload passing all of this is still shaped exactly like a
// legitimate document for this spec; arbitrary bytes can never land in
// the cache.
func validateFillPayload(norm experiments.Spec, result []byte) error {
	var rep experiments.Report
	dec := json.NewDecoder(bytes.NewReader(result))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		return fmt.Errorf("service: fill payload is not a report document: %w", err)
	}
	if rep.Schema != experiments.SchemaV23 {
		return fmt.Errorf("service: fill payload has unknown schema %q", rep.Schema)
	}
	canon, err := rep.Marshal()
	if err != nil || !bytes.Equal(canon, result) {
		return errors.New("service: fill payload is not the canonical report encoding")
	}
	if rep.HostSeconds != 0 || rep.Parallel != 0 {
		return errors.New("service: fill payload carries host timings (not a deterministic document)")
	}
	if rep.Seed != norm.Seed || rep.Full != norm.Full || rep.Observe != norm.Observe || rep.PEs != norm.PEs {
		return errors.New("service: fill payload parameters do not match the spec")
	}
	want := append([]string(nil), norm.Exps...)
	if len(norm.Cells) > 0 {
		want = append(want, "custom")
	}
	if len(rep.Experiments) != len(want) {
		return fmt.Errorf("service: fill payload has %d experiments, spec runs %d", len(rep.Experiments), len(want))
	}
	for i, e := range rep.Experiments {
		if e.Name != want[i] {
			return fmt.Errorf("service: fill payload experiment %d is %q, spec runs %q", i, e.Name, want[i])
		}
		if e.HostSeconds != 0 {
			return errors.New("service: fill payload carries per-experiment host timings")
		}
	}
	return nil
}

// QueueLen returns the number of admitted-but-unstarted jobs.
func (s *Service) QueueLen() int { return s.sched.Len() }

// Metrics returns the service counters and histograms (obs-flattened,
// "service/" prefix), the cache counters ("cache/" prefix), and
// current gauges.
func (s *Service) Metrics() map[string]float64 {
	s.mu.Lock()
	m := s.reg.Flatten("service/")
	for _, name := range []string{"submitted", "completed", "failed", "expired",
		"coalesced", "served_from_cache", "rejected_queue_full",
		"rejected_deadline", "rejected_draining", "rejected_injected",
		"rejected_ratelimited", "panics_recovered", "expired_running",
		"cache_faults", "retried_submits", "peer_fills", "peer_fill_dups",
		"peer_fill_rejects"} {
		if _, ok := m["service/"+name]; !ok {
			m["service/"+name] = 0
		}
	}
	// v2: derived p50/p95/p99 for the per-stage host-latency histograms
	// (queue wait, run, total, partition wait) so dashboards and loadgen
	// get quantiles without scraping buckets.
	for _, name := range []string{"queue_wait_ms", "run_ms", "total_ms", "partition_wait_ms"} {
		if h := s.reg.Histogram(name); h != nil && h.N > 0 {
			for _, q := range telemetry.Quantiles {
				m["service/"+name+"/"+q.Key] = h.Quantile(q.Q)
			}
		}
	}
	// v3: per-SLO-class latency quantiles, the scheduler's identity,
	// and Jain's fairness index over per-client completions.
	for class := range s.classSeen {
		if h := s.reg.Histogram("class_total_ms/" + class); h != nil && h.N > 0 {
			for _, q := range telemetry.Quantiles {
				m["service/class_total_ms/"+class+"/"+q.Key] = h.Quantile(q.Q)
			}
		}
	}
	if len(s.clientDone) > 0 {
		counts := make([]float64, 0, len(s.clientDone))
		for _, n := range s.clientDone {
			counts = append(counts, float64(n))
		}
		m["service/fairness_jain"] = stats.Jain(counts)
		m["service/fairness_clients"] = float64(len(s.clientDone))
	}
	if s.sched.mode == SchedSJF {
		m["service/sched_sjf"] = 1
	} else {
		m["service/sched_sjf"] = 0
	}
	m["service/sched_promoted"] = float64(s.sched.Promoted())
	if s.admission != nil {
		m["service/admission_clients"] = float64(s.admission.clients())
	}
	m["service/queue_depth"] = float64(s.sched.Len())
	m["service/queue_capacity"] = float64(s.cfg.QueueDepth)
	m["service/inflight"] = float64(s.running)
	m["service/workers"] = float64(s.cfg.Workers)
	m["service/jobs_tracked"] = float64(len(s.jobs))
	if s.draining {
		m["service/draining"] = 1
	} else {
		m["service/draining"] = 0
	}
	s.mu.Unlock()
	if s.machine != nil {
		for k, v := range s.machine.Metrics("partition/") {
			m[k] = v
		}
	}
	for k, v := range s.tracer.Metrics("telemetry/") {
		m[k] = v
	}
	for k, v := range s.cache.Metrics("cache/") {
		m[k] = v
	}
	for k, v := range s.faults.Metrics("faults/") {
		m[k] = v
	}
	return m
}

// Shutdown begins draining: new submissions fail with ErrDraining,
// every already-accepted job still executes, and Shutdown returns when
// the queue is empty and every running job has finished (or ctx
// expires, in which case the remaining jobs keep draining in the
// background).
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.sched.Close()
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: shutdown interrupted with work still draining: %w", ctx.Err())
	}
}
