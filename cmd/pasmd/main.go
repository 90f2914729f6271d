// Command pasmd serves the PASM experiment engine over HTTP: submit
// experiment specs (any named sweep or custom matmul cells), poll or
// long-poll job status, and fetch result documents byte-identical to
// `pasmbench -json` output with host timings off. Identical in-flight
// specs coalesce into one execution; finished results are served from
// a content-addressed LRU cache; a bounded queue with deadline-aware
// admission control rejects overload with 503 + Retry-After instead
// of growing without bound.
//
// Usage:
//
//	pasmd [-addr 127.0.0.1:8037] [-addr-file FILE] [-name NAME]
//	      [-queue 64] [-workers 2] [-parallel N]
//	      [-sched fcfs|sjf] [-classes "interactive=50,batch=0"]
//	      [-starve-limit 8] [-admit-rate 0] [-admit-burst 8]
//	      [-machine-pes 0]
//	      [-cache-entries 256] [-cache-bytes N]
//	      [-fill-secret SECRET]
//	      [-trace-sample 0] [-trace-ring 64] [-debug-addr ADDR]
//	      [-drain-timeout 5m] [-linger 2s]
//	      [-chaos-profile "run:error=0.1,..." [-chaos-seed N]]
//
// -sched sjf turns on SLO-aware scheduling: submits carrying an SLO
// class (X-Pasm-Class header or "class" body field, with targets from
// -classes or an explicit X-Pasm-Slo-Ms) are ordered by class urgency
// first, then by predicted cost from the closed-form timing model, so
// a cheap interactive probe never queues behind a long batch sweep.
// -starve-limit bounds both directions: a bypassed batch job is
// promoted after that many bypasses, and no interactive job can be
// bypassed by promotions more than that many times. Per-class latency
// quantiles, SLO hit/miss counters, and a Jain fairness index over
// client completions appear in /metrics.
//
// -admit-rate enables per-client token-bucket admission control:
// clients identified by X-Pasm-Client (or "client" body field) above
// their rate get 429 + Retry-After before consuming a queue slot.
//
// -machine-pes switches the instance to partition mode: instead of
// -workers whole-machine slots, the dispatcher packs jobs onto subcube
// partitions of one shared machine of that many PEs (a power of two
// up to 1024). Each job runs inside a partition of its spec's pes —
// results are byte-identical to the pool path — and a freed partition
// goes to the first job in -sched order that fits. Partition occupancy
// and fragmentation appear under "partition/" in /metrics. 0 (the
// default) keeps the worker pool.
//
// -trace-sample arms request tracing: requests arriving with an
// X-Pasm-Trace header are always traced (the upstream hop paid the
// sampling decision), and headerless requests are traced with this
// probability. Traced requests get per-stage spans (admit, queue, run)
// plus a capture of the simulated-clock event stream, browsable at
// /debug/requests and exportable as a merged Perfetto trace at
// /debug/requests/{trace}/perfetto. -trace-ring bounds retention.
//
// -debug-addr starts a second listener serving net/http/pprof; job
// goroutines run under a pprof label pasm_trace=<trace id> so CPU
// profiles can be sliced per traced request.
//
// -fill-secret arms the cluster-internal peer-fill endpoint
// (/internal/v1/fill): a pasmgw gateway started with the same secret
// can push results computed elsewhere into this instance's cache.
// Without the flag the endpoint rejects everything — it shares the
// public listener, so it is never open anonymously.
//
// -chaos-profile enables deterministic fault injection (package
// faults) at the admission, cache, execution, and HTTP points;
// -chaos-seed picks the decision sequence, so a chaos run is
// reproducible from its flags alone. Injected fault counts appear
// under "faults/" in /metrics. Without the flag the injector is
// absent and the serving path runs at full speed.
//
// -workers is the number of jobs executing concurrently; each job
// additionally fans its experiment cells across -parallel host
// goroutines (the same engine as `pasmbench -parallel`), so
// workers*parallel should track the host CPU count.
//
// -addr-file writes the actually-bound address (useful with ":0") so
// wrappers and the smoke test can find the server.
//
// On SIGINT/SIGTERM the server drains: new submissions get 503 +
// Retry-After, every accepted job still executes, status and result
// endpoints keep answering until the queue is empty plus -linger, then
// the process exits. No accepted job is lost.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // -debug-addr listener (DefaultServeMux)
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/partition"
	"repro/internal/service"
	"repro/internal/telemetry"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", "127.0.0.1:8037", "listen address (use :0 for an ephemeral port)")
	name := flag.String("name", "", "stable instance name reported in /healthz (cluster replicas set this; empty is fine standalone)")
	addrFile := flag.String("addr-file", "", "write the bound address to `file` after listening")
	queue := flag.Int("queue", 64, "max queued (admitted but unstarted) jobs; overload beyond this gets 503")
	workers := flag.Int("workers", 2, "jobs executing concurrently (ignored in partition mode)")
	machinePEs := flag.Int("machine-pes", 0, "partition mode: share one machine of this many PEs across jobs (0 = worker pool)")
	parallel := flag.Int("parallel", runtime.NumCPU(), "host goroutines per job for experiment cell fan-out")
	cacheEntries := flag.Int("cache-entries", 256, "result cache bound, entries (0 = unbounded)")
	cacheBytes := flag.Int64("cache-bytes", 0, "result cache bound, total value bytes (0 = unbounded)")
	fillSecret := flag.String("fill-secret", "", "shared secret arming the peer-fill endpoint (empty = fills disabled)")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Minute, "max time to finish accepted jobs on shutdown")
	linger := flag.Duration("linger", 2*time.Second, "after the queue drains, keep serving status/result reads this long so waiting clients can collect")
	sched := flag.String("sched", "fcfs", "queue scheduling: fcfs (arrival order) or sjf (SLO class priority + shortest predicted job first)")
	classes := flag.String("classes", "", "SLO class defaults, comma-separated name=slo_ms (e.g. \"interactive=50,batch=0\"); empty accepts any class with explicit slo_ms")
	starveLimit := flag.Int("starve-limit", service.DefaultStarveLimit, "sjf anti-starvation: promote a job after this many bypasses")
	admitRate := flag.Float64("admit-rate", 0, "per-client admission rate, requests/sec (0 = no rate limiting); over-rate identified clients get 429 + Retry-After")
	admitBurst := flag.Float64("admit-burst", 8, "per-client admission burst (token bucket depth)")
	chaosProfile := flag.String("chaos-profile", "", "fault-injection profile, e.g. \"run:error=0.1,panic=0.05,delay=0.2@20ms;http:error=0.1\" (empty = no injection)")
	chaosSeed := flag.Uint64("chaos-seed", 1, "seed for the deterministic fault decision sequences")
	traceSample := flag.Float64("trace-sample", 0, "probability of tracing a headerless request (X-Pasm-Trace requests are always traced)")
	traceRing := flag.Int("trace-ring", 64, "finished traced requests retained for /debug/requests")
	debugAddr := flag.String("debug-addr", "", "second listener for net/http/pprof (empty = off)")
	flag.Parse()

	comp := "pasmd"
	if *name != "" {
		comp = "pasmd/" + *name
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("component", comp)

	var injector *faults.Injector
	if *chaosProfile != "" {
		profile, err := faults.ParseProfile(*chaosProfile)
		if err != nil {
			logger.Error("bad chaos profile", "err", err)
			return 1
		}
		injector = faults.New(*chaosSeed, profile)
		logger.Warn("CHAOS enabled", "seed", *chaosSeed, "profile", profile.String())
	}

	tracer := telemetry.New(telemetry.Config{
		Component: comp,
		Sample:    *traceSample,
		Ring:      *traceRing,
		Seed:      *chaosSeed,
		Logger:    logger,
	})

	schedMode, err := service.ParseSchedulerMode(*sched)
	if err != nil {
		logger.Error("bad scheduler", "err", err)
		return 1
	}
	var classDefaults map[string]int64
	if *classes != "" {
		classDefaults, err = service.ParseClasses(*classes)
		if err != nil {
			logger.Error("bad classes", "err", err)
			return 1
		}
	}

	opts := experiments.DefaultOptions()
	opts.Parallelism = *parallel
	var machine *partition.Machine
	if *machinePEs > 0 {
		machineCfg := opts.Config
		machineCfg.NumPEs = *machinePEs
		if machineCfg.PEsPerMC > *machinePEs {
			machineCfg.PEsPerMC = *machinePEs
		}
		m, err := partition.New(machineCfg)
		if err != nil {
			logger.Error("bad machine size", "pes", *machinePEs, "err", err)
			return 1
		}
		machine = m
		logger.Info("partition mode", "machine_pes", *machinePEs)
	}
	svc := service.New(service.Config{
		QueueDepth:  *queue,
		Workers:     *workers,
		Machine:     machine,
		Sched:       schedMode,
		StarveLimit: *starveLimit,
		Classes:     classDefaults,
		AdmitRate:   *admitRate,
		AdmitBurst:  *admitBurst,
		Options:     opts,
		Cache:       cache.Config{MaxEntries: *cacheEntries, MaxBytes: *cacheBytes},
		Name:        *name,
		FillSecret:  *fillSecret,
		Faults:      injector,
		Telemetry:   tracer,
		Logger:      logger,
	})

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			logger.Error("debug listen failed", "addr", *debugAddr, "err", err)
			return 1
		}
		// DefaultServeMux carries net/http/pprof's handlers.
		go func() { _ = http.Serve(dln, nil) }()
		logger.Info("pprof listening", "addr", dln.Addr().String())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "err", err)
		return 1
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			logger.Error("writing addr file failed", "file", *addrFile, "err", err)
			return 1
		}
	}
	logger.Info("listening", "addr", bound, "queue", *queue, "workers", *workers,
		"parallel", *parallel, "sched", string(schedMode), "cache_entries", *cacheEntries,
		"trace_sample", *traceSample, "code", experiments.CodeVersion)

	srv := &http.Server{Handler: svc.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		logger.Error("serve failed", "err", err)
		return 1
	case s := <-sig:
		logger.Info("draining", "signal", s.String(), "queued", svc.QueueLen())
	}

	// Drain order matters: first the job queue (submissions now 503,
	// status/result GETs still served), then the HTTP listener.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		logger.Error("drain failed", "err", err)
		srv.Close()
		return 1
	}
	// Clients long-polling the final job learn of completion exactly
	// when the drain finishes; give them a window to fetch results
	// before the listener goes away.
	time.Sleep(*linger)
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("http shutdown failed", "err", err)
		return 1
	}
	logger.Info("drained, bye")
	return 0
}
