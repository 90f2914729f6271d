package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/service"
	"repro/internal/workload"
)

// serveWorkload is one open-loop traffic mix against pasmd.
type serveWorkload struct {
	name       string
	flags      []string // pasmd flags for this serving mode
	machinePEs int      // partition mode's machine size; 0 = worker pool
	warm       []experiments.Spec
	cohorts    []workload.Cohort
	// layers, when set, is replayed for layerSeconds after a traced
	// run to measure the partition layer, which this mode lacks.
	layers *serveWorkload
}

// layerSeconds bounds the extra traced phase that measures the
// partition layer.
const layerSeconds = 15

func cell(pes, n, p, muls int, mode string) experiments.Spec {
	return experiments.Spec{PEs: pes, Cells: []experiments.CellSpec{{N: n, P: p, Muls: muls, Mode: mode}}}
}

func mix(specs ...experiments.Spec) []workload.MixEntry {
	out := make([]workload.MixEntry, len(specs))
	for i, s := range specs {
		out[i] = workload.MixEntry{Weight: 1, Spec: s}
	}
	return out
}

// hotSpecs are re-requested verbatim, so after the warm-up fills the
// result cache every request for them is a cache hit.
var hotSpecs = []experiments.Spec{
	{Exps: []string{"table1"}, Seed: 1988},
	{Exps: []string{"fig8"}, Seed: 1988},
	{PEs: 16, Cells: []experiments.CellSpec{{N: 16, P: 16, Muls: 1, Mode: "simd"}}, Seed: 1988},
}

// mixedWorkload drives the worker pool through admission, the SJF
// queue, the result cache and coalescing: interactive cells, a hot
// cohort of cached specs (a third of requests), and bursty
// Weibull(0.7) batch cells. Each cohort's cells cost about the same
// host time, so the median falls inside the interactive cells and the
// 95th percentile inside the batch cells whatever the seed's cohort
// counts, and the load stays low enough that no backlog builds.
var mixedWorkload = serveWorkload{
	name:   "serve-mixed",
	layers: &partitionedWorkload,
	flags:  []string{"-workers", "2", "-sched", "sjf", "-classes", "interactive=50,batch=0"},
	warm:   append(append([]experiments.Spec{}, hotSpecs...), cell(16, 16, 16, 1, "smimd"), cell(16, 32, 16, 14, "smimd")),
	cohorts: []workload.Cohort{
		{Name: "interactive", Clients: 8, RateRPS: 8, Class: "interactive", SLOMs: 50, VarySeed: true,
			Mix: mix(cell(16, 16, 16, 1, "simd"), cell(16, 16, 16, 30, "simd"), cell(16, 16, 16, 1, "smimd"),
				cell(16, 16, 16, 14, "smimd"), cell(16, 16, 16, 30, "smimd"), cell(16, 16, 16, 1, "mimd"))},
		{Name: "hot", Clients: 4, RateRPS: 4.5, Class: "interactive", SLOMs: 50, Mix: mix(hotSpecs...)},
		{Name: "batch", Clients: 2, Process: "weibull", Shape: 0.7, RateRPS: 1.5, Class: "batch", VarySeed: true,
			Mix: mix(cell(16, 32, 16, 20, "smimd"))},
	},
}

// partitionedWorkload packs many small jobs beside bursty half- and
// whole-machine jobs onto one 64-PE machine; every seed is distinct, so
// nothing is served from cache.
var partitionedWorkload = serveWorkload{
	name:       "serve-partitioned",
	flags:      []string{"-machine-pes", "64"},
	machinePEs: 64,
	warm:       []experiments.Spec{cell(4, 16, 4, 1, "simd"), cell(64, 32, 32, 1, "simd")},
	cohorts: []workload.Cohort{
		{Name: "small", Clients: 8, RateRPS: 9, Class: "small", SLOMs: 100, VarySeed: true,
			Mix: mix(cell(4, 16, 4, 1, "simd"), cell(4, 16, 4, 14, "mimd"), cell(4, 32, 4, 1, "simd"),
				cell(16, 16, 16, 1, "simd"), cell(16, 16, 16, 30, "simd"), cell(16, 16, 8, 14, "smimd"))},
		{Name: "big", Clients: 2, Process: "weibull", Shape: 0.7, RateRPS: 1.5, Class: "big", VarySeed: true,
			Mix: mix(cell(32, 32, 32, 1, "simd"), cell(32, 32, 32, 14, "simd"), cell(64, 32, 32, 1, "simd"),
				cell(64, 32, 32, 14, "simd"))},
	},
}

// daemon is one running pasmd.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	exited chan error
	log    *os.File
	once   sync.Once
}

// startDaemon execs pasmd and returns once it answers /healthz.
func startDaemon(c runConfig, w serveWorkload) (*daemon, error) {
	addrFile := filepath.Join(c.out, fmt.Sprintf("pasmd-%d.addr", os.Getpid()))
	_ = os.Remove(addrFile) // absent on the first start
	logf, err := os.Create(filepath.Join(c.out, "pasmd-"+w.name+".log"))
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-linger", "0s"}, w.flags...)
	cmd := exec.Command(c.pasmd, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting pasmd: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan error, 1), log: logf}
	go func() { d.exited <- cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if data, err := os.ReadFile(addrFile); err == nil && strings.HasSuffix(string(data), "\n") {
			d.addr = strings.TrimSpace(string(data))
			break
		}
		if err := d.pause(deadline); err != nil {
			return nil, err
		}
	}
	_ = os.Remove(addrFile)
	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get("http://" + d.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if err := d.pause(deadline); err != nil {
			return nil, err
		}
	}
}

// pause waits a millisecond, failing if pasmd exited or the start-up
// deadline passed.
func (d *daemon) pause(deadline time.Time) error {
	select {
	case err := <-d.exited:
		d.exited <- err // for stop
		d.stop()
		return fmt.Errorf("pasmd exited during start-up: %v", err)
	case <-time.After(time.Millisecond):
	}
	if time.Now().After(deadline) {
		d.stop()
		return fmt.Errorf("pasmd did not become healthy within 30s")
	}
	return nil
}

// stop drains pasmd with SIGTERM and waits for it to exit, killing it
// if the drain takes longer than 15s. Later calls do nothing.
func (d *daemon) stop() {
	d.once.Do(func() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
		select {
		case <-d.exited:
		case <-time.After(15 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
		d.log.Close()
	})
}

// lanes are the generator's two HTTP connections: one for submits,
// results and /metrics, one for completion waits, so a long wait never
// holds up a submit.
type lanes struct {
	base         string
	submit, wait *http.Client
}

// waitSlice bounds one completion wait, so that the jobs outstanding
// at once take turns on the wait connection. A job that finishes while
// another job's wait holds the connection is seen late; the report's
// detection lag measures that delay.
const waitSlice = 5 * time.Millisecond

func newLanes(addr string) *lanes {
	conn := func() *http.Client {
		return &http.Client{Timeout: time.Minute, Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	}
	return &lanes{base: "http://" + addr, submit: conn(), wait: conn()}
}

func (l *lanes) close() {
	l.submit.CloseIdleConnections()
	l.wait.CloseIdleConnections()
}

// errRefused marks a submit turned away by admission (429 or 503).
type errRefused struct{ code int }

func (e errRefused) Error() string { return fmt.Sprintf("refused with HTTP %d", e.code) }

func (l *lanes) get(c *http.Client, path string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, l.base+path, nil)
	if err != nil {
		return nil, err
	}
	return l.send(c, req)
}

// send sends a request and returns the body of a 200 response.
func (l *lanes) send(c *http.Client, req *http.Request) ([]byte, error) {
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", req.URL.Path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func (l *lanes) postJob(r workload.Request) (service.JobStatus, error) {
	body, err := json.Marshal(service.SubmitRequest{Spec: r.Spec, Class: r.Class, SLOMs: r.SLOMs, Client: r.Client})
	if err != nil {
		return service.JobStatus{}, err
	}
	resp, err := l.submit.Post(l.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return service.JobStatus{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return service.JobStatus{}, err
	}
	switch resp.StatusCode {
	case http.StatusOK, http.StatusAccepted:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return service.JobStatus{}, errRefused{resp.StatusCode}
	default:
		return service.JobStatus{}, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var st service.JobStatus
	return st, json.Unmarshal(data, &st)
}

// waitJob waits up to waitSlice for a job and records in sent when the
// request was written to the connection, after any wait for its turn.
func (l *lanes) waitJob(id string, sent *time.Time) (service.JobStatus, error) {
	req, err := http.NewRequest(http.MethodGet,
		fmt.Sprintf("%s/v1/jobs/%s/wait?timeout_ms=%d", l.base, id, waitSlice.Milliseconds()), nil)
	if err != nil {
		return service.JobStatus{}, err
	}
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		WroteRequest: func(httptrace.WroteRequestInfo) { *sent = time.Now() }}))
	data, err := l.send(l.wait, req)
	if err != nil {
		return service.JobStatus{}, err
	}
	var st service.JobStatus
	return st, json.Unmarshal(data, &st)
}

// metrics reads /metrics.
func (l *lanes) metrics() (map[string]float64, error) {
	data, err := l.get(l.submit, "/metrics")
	if err != nil {
		return nil, err
	}
	return parseMetrics(data)
}

// parseMetrics decodes a /metrics document. Counters a server has not
// created yet are simply absent; delta reads them as 0.
func parseMetrics(data []byte) (map[string]float64, error) {
	m := map[string]float64{}
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("parsing /metrics: %w", err)
	}
	return m, nil
}

// delta is a counter's growth between two /metrics snapshots.
func delta(before, after map[string]float64, key string) float64 {
	return after[key] - before[key]
}

// rssInterval is how often the pasmd peak-RSS counter is read and
// restarted; rss_peak_mb is the mean of the interval peaks, which a
// single burst moves far less than the run's one overall peak.
const rssInterval = 2 * time.Second

// rssSampler collects a process's peak RSS per interval.
type rssSampler struct {
	quit  chan struct{}
	done  chan struct{}
	peaks []float64
	err   error
}

func sampleRSS(pid string) (*rssSampler, error) {
	if err := resetHWM(pid); err != nil {
		return nil, err
	}
	r := &rssSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		for {
			select {
			case <-r.quit:
				return
			case <-tick.C:
			}
			mb, err := vmHWM(pid)
			if err == nil {
				err = resetHWM(pid)
			}
			if err != nil {
				r.err = err
				return
			}
			r.peaks = append(r.peaks, mb)
		}
	}()
	return r, nil
}

// stop ends sampling and returns the interval peaks.
func (r *rssSampler) stop() ([]float64, error) {
	close(r.quit)
	<-r.done
	if r.err == nil && len(r.peaks) == 0 {
		r.err = fmt.Errorf("run shorter than one RSS interval (%v)", rssInterval)
	}
	return r.peaks, r.err
}

// served is one request's outcome.
type served struct {
	req       workload.Request
	due       time.Time
	lateMS    float64
	traced    bool
	ok        bool
	refused   bool
	err       error
	cached    bool
	submitMS  float64
	resultMS  float64
	latencyMS float64
	status    service.JobStatus
	waitSent  time.Time // when the last completion wait left the harness
	seen      time.Time // when the harness received the terminal status
	body      []byte
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Microseconds()) / 1e3 }

// do submits a request, waits for its job and fetches the result bytes.
// Latency runs from the request's due time to the last result byte.
func (l *lanes) do(s *served, rec *recorder) {
	if !s.traced {
		rec = nil
	}
	op := s.req.Seq
	root := rec.begin("request", 0, op)
	defer rec.end(root)
	t := time.Now()
	id := rec.begin("http.submit", root, op)
	st, err := l.postJob(s.req)
	rec.end(id)
	s.submitMS = msSince(t)
	if err != nil {
		s.refused = errors.As(err, new(errRefused))
		s.err = err
		return
	}
	s.cached = st.Cached
	for !st.State.Terminal() {
		id := rec.begin("http.wait", root, op)
		st, err = l.waitJob(st.ID, &s.waitSent)
		rec.end(id)
		if err != nil {
			s.err = err
			return
		}
	}
	s.status, s.seen = st, time.Now()
	if st.State != service.StateDone {
		s.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		return
	}
	t = time.Now()
	id = rec.begin("http.result", root, op)
	data, err := l.get(l.submit, "/v1/jobs/"+st.ID+"/result")
	rec.end(id)
	if err != nil {
		s.err = err
		return
	}
	s.resultMS = msSince(t)
	s.latencyMS = msSince(s.due)
	s.body = data
	s.ok = true
}

// warmUp serves each spec once, in order, before the timed window.
func (l *lanes) warmUp(specs []experiments.Spec) error {
	for i, spec := range specs {
		s := &served{req: workload.Request{Seq: -1 - i, Client: "warm-up", Spec: spec}, due: time.Now()}
		l.do(s, nil)
		if !s.ok {
			return fmt.Errorf("warm-up request %d: %v", i, s.err)
		}
	}
	return nil
}

// replay fires the trace open loop: each request leaves at its due
// time whatever the state of earlier ones.
func (l *lanes) replay(tr *workload.Trace, rec *recorder) []*served {
	out := make([]*served, len(tr.Requests))
	var wg sync.WaitGroup
	t0 := time.Now().Add(10 * time.Millisecond)
	for i, r := range tr.Requests {
		due := t0.Add(time.Duration(r.AtUS) * time.Microsecond)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		s := &served{req: r, due: due, lateMS: msSince(due), traced: rec != nil && r.Seq%2 == 0}
		out[i] = s
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.do(s, rec)
		}()
	}
	wg.Wait()
	return out
}

// sloOKRatio is the share of attempted requests that succeeded within
// their class SLO. A failed or refused request is a miss; a request
// without an SLO (best effort) counts when it succeeds.
func sloOKRatio(results []*served) float64 {
	if len(results) == 0 {
		return 0
	}
	ok := 0
	for _, s := range results {
		if s.ok && (s.req.SLOMs == 0 || s.latencyMS <= float64(s.req.SLOMs)) {
			ok++
		}
	}
	return float64(ok) / float64(len(results))
}

// verifyEvery picks the fixed sample of served results that is
// recomputed in process after the timed window.
const verifyEvery = 25

// verify counts served results whose bytes are wrong: results for the
// same spec key must be byte-identical, and every verifyEvery-th
// request (by sequence number) must have the simulated results of an
// in-process run of its spec.
func verify(results []*served) (wrong, checked int, err error) {
	first := map[string][]byte{}
	for _, s := range results {
		if !s.ok {
			continue
		}
		if body, seen := first[s.status.Key]; seen && !bytes.Equal(body, s.body) {
			fmt.Fprintf(os.Stderr, "request %d: bytes differ from an earlier result for the same spec\n", s.req.Seq)
			wrong++
		} else if !seen {
			first[s.status.Key] = s.body
		}
	}
	for _, s := range results {
		if !s.ok || s.req.Seq%verifyEvery != 0 {
			continue
		}
		rep, err := runSpec(s.req.Spec, nil)
		if err != nil {
			return wrong, checked, fmt.Errorf("recomputing request %d: %w", s.req.Seq, err)
		}
		want, err := simDigest(rep)
		if err != nil {
			return wrong, checked, err
		}
		got, err := resultDigest(s.body)
		if err != nil {
			return wrong, checked, fmt.Errorf("request %d: %w", s.req.Seq, err)
		}
		checked++
		if got != want {
			fmt.Fprintf(os.Stderr, "request %d: served results differ from an in-process run\n", s.req.Seq)
			wrong++
		}
	}
	return wrong, checked, nil
}

// detectionLag is, for each executed request, how long after its job
// finished (JobStatus.Finished, same host clock) the harness received
// the terminal status; it is counted in the latency. turn is the part
// the finished job spent waiting for its turn on the wait connection,
// which is the harness's doing. The rest is pasmd waking the waiting
// handler and answering. Cache hits, which never wait, are left out.
func detectionLag(results []*served) (lag, turn []float64, err error) {
	for _, s := range results {
		if s.seen.IsZero() || s.cached || s.status.Finished == "" {
			continue
		}
		fin, err := time.Parse(time.RFC3339Nano, s.status.Finished)
		if err != nil {
			return nil, nil, fmt.Errorf("job %s: %w", s.status.ID, err)
		}
		lag = append(lag, msBetween(fin, s.seen))
		turn = append(turn, max(0, msBetween(fin, s.waitSent)))
	}
	return lag, turn, nil
}

// maxLagMS is the p95 generator lateness, or the p95 wait for a turn
// on the wait connection, above which a serve run is flagged.
const maxLagMS = 5

func runServe(c runConfig, w serveWorkload) (*outcome, error) {
	tr, err := workload.Generate(workload.GenConfig{Name: w.name, Seed: c.seed,
		Duration: time.Duration(c.seconds) * time.Second, Cohorts: w.cohorts})
	if err != nil {
		return nil, err
	}
	starts := setupRuns
	if c.traced {
		starts = 1
	}
	var setups []float64
	var d *daemon
	var l *lanes
	for i := 0; i < starts; i++ {
		t := time.Now()
		if d, err = startDaemon(c, w); err != nil {
			return nil, err
		}
		l = newLanes(d.addr)
		if err := l.warmUp(w.warm); err != nil {
			l.close()
			d.stop()
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		if i < starts-1 {
			l.close()
			d.stop()
		}
	}
	defer d.stop()

	before, err := l.metrics()
	if err != nil {
		return nil, err
	}
	var rec *recorder
	if c.traced {
		rec = newRecorder()
	}
	sampler, err := sampleRSS(strconv.Itoa(d.cmd.Process.Pid))
	if err != nil {
		return nil, err
	}
	results := l.replay(tr, rec)
	rss, err := sampler.stop()
	if err != nil {
		return nil, err
	}
	after, err := l.metrics()
	if err != nil {
		return nil, err
	}
	l.close()
	d.stop()

	o := &outcome{info: map[string]any{}}
	var lat, late []float64
	for _, s := range results {
		o.attempted++
		late = append(late, s.lateMS)
		if !s.ok {
			o.failed++
			fmt.Fprintf(os.Stderr, "request %d (%s): %v\n", s.req.Seq, s.req.Class, s.err)
			continue
		}
		lat = append(lat, s.latencyMS)
	}
	wrong, checked, err := verify(results)
	if err != nil {
		return nil, err
	}
	o.wrong = wrong
	o.info["verified_in_process"] = checked
	lateP, latePct := tail(late)
	o.info["gen_late_p95_ms"] = lateP
	if lateP > maxLagMS {
		o.flags = append(o.flags, fmt.Sprintf("generator_behind: late p%g %.2f ms", latePct, lateP))
	}
	lag, turn, err := detectionLag(results)
	if err != nil {
		return nil, err
	}
	lagP, _ := tail(lag)
	turnP, turnPct := tail(turn)
	o.info["detect_lag_p50_ms"] = summarize(lag).Median
	o.info["detect_lag_p95_ms"] = lagP
	o.info["detect_turn_p95_ms"] = turnP
	if turnP > maxLagMS {
		o.flags = append(o.flags, fmt.Sprintf("detection_lag: turn wait p%g %.2f ms", turnPct, turnP))
	}

	if !c.traced {
		ss, ls := summarize(setups), summarize(lat)
		o.add("setup_s", "s", ss.Median, ss, "median of pasmd starts: exec to /healthz plus warm-up requests")
		o.add("lat_p50_ms", "ms", ls.Median, ls, "due time to result bytes, successful requests")
		v, pct := tail(lat)
		o.add("lat_p95_ms", "ms", v, ls, fmt.Sprintf("percentile %g of %d requests", pct, len(lat)))
		o.one("slo_ok_ratio", "ratio", sloOKRatio(results), o.attempted,
			"finished within the class SLO / attempted; failures and refusals miss")
		rs := summarize(rss)
		o.add("rss_peak_mb", "MB", mean(rss), rs, fmt.Sprintf("mean over %v intervals of pasmd's peak RSS in the interval", rssInterval))
		return o, nil
	}
	serveLayersOf(o, w, results, lag, before, after)
	if w.layers != nil {
		if err := o.partitionPhase(c, *w.layers); err != nil {
			return nil, err
		}
	}
	o.fillAbsent(simLayers, "measured in process by paper-suite")
	o.selfMS = selfTimes(rec.all())
	return o, rec.write(spanFile(c))
}

// partitionPhase replays a partition-mode workload for layerSeconds
// and adds its partition-layer metrics to a traced run. Its requests
// count as the run's operations too.
func (o *outcome) partitionPhase(c runConfig, w serveWorkload) error {
	c.workload, c.seconds = w.name, min(c.seconds, layerSeconds)
	sub, err := runServe(c, w)
	if err != nil {
		return fmt.Errorf("partition phase: %w", err)
	}
	o.attempted += sub.attempted
	o.failed += sub.failed
	o.wrong += sub.wrong
	for _, m := range sub.metrics {
		if strings.HasPrefix(m.Name, "partition.") {
			m.Note = fmt.Sprintf("%s (%s phase, %ds)", m.Note, w.name, c.seconds)
			o.metrics = append(o.metrics, m)
		}
	}
	return nil
}

// job is one executed job, from its JobStatus timestamps.
type job struct {
	pes                        int
	created, started, finished time.Time
}

// jobsOf collects each executed job once (coalesced requests share
// one), skipping cache hits, which never queue or run.
func jobsOf(results []*served) ([]job, error) {
	seen := map[string]bool{}
	var out []job
	for _, s := range results {
		if !s.ok || s.cached || seen[s.status.ID] {
			continue
		}
		seen[s.status.ID] = true
		var j job
		for _, f := range []struct {
			dst *time.Time
			src string
		}{{&j.created, s.status.Created}, {&j.started, s.status.Started}, {&j.finished, s.status.Finished}} {
			t, err := time.Parse(time.RFC3339Nano, f.src)
			if err != nil {
				return nil, fmt.Errorf("job %s: %w", s.status.ID, err)
			}
			*f.dst = t
		}
		norm, err := s.req.Spec.Normalize()
		if err != nil {
			return nil, err
		}
		j.pes = norm.PEs
		out = append(out, j)
	}
	return out, nil
}

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a).Microseconds()) / 1e3 }

// serveLayersOf turns a traced serve run into per-layer metrics.
func serveLayersOf(o *outcome, w serveWorkload, results []*served, lag []float64, before, after map[string]float64) {
	var submit, result, hitRTT, late, traced, untraced []float64
	for _, s := range results {
		late = append(late, s.lateMS)
		if s.err == nil || s.status.ID != "" {
			submit = append(submit, s.submitMS)
		}
		if !s.ok {
			continue
		}
		result = append(result, s.resultMS)
		if s.cached {
			hitRTT = append(hitRTT, s.submitMS+s.resultMS)
		}
		if s.traced {
			traced = append(traced, s.latencyMS)
		} else {
			untraced = append(untraced, s.latencyMS)
		}
	}
	jobs, err := jobsOf(results)
	if err != nil {
		fmt.Fprintln(os.Stderr, "job timestamps:", err)
	}
	var wait, run []float64
	for _, j := range jobs {
		wait = append(wait, msBetween(j.created, j.started))
		run = append(run, msBetween(j.started, j.finished))
	}
	n := float64(len(results))
	ss, ws, rs, res := summarize(submit), summarize(wait), summarize(run), summarize(result)
	o.add("service.submit_ms", "ms", ss.Median, ss, "POST /v1/jobs round trip (admission)")
	o.add("service.queue_wait_p50_ms", "ms", ws.Median, ws, "JobStatus started - created, executed jobs")
	wp, wpct := tail(wait)
	o.add("service.queue_wait_p95_ms", "ms", wp, ws, fmt.Sprintf("percentile %g of %d jobs", wpct, len(wait)))
	o.add("service.run_p50_ms", "ms", rs.Median, rs, "JobStatus finished - started")
	o.one("service.sched_promoted", "count", delta(before, after, "service/sched_promoted"), 1, "/metrics delta over the window")
	o.one("service.cache_hit_ratio", "ratio", delta(before, after, "service/served_from_cache")/n, len(results), "/metrics delta / attempted")
	o.one("service.coalesced_ratio", "ratio", delta(before, after, "service/coalesced")/n, len(results), "/metrics delta / attempted")
	var rejected float64
	for _, k := range []string{"rejected_queue_full", "rejected_deadline", "rejected_draining", "rejected_injected", "rejected_ratelimited"} {
		rejected += delta(before, after, "service/"+k)
	}
	o.one("service.rejected_ratio", "ratio", rejected/n, len(results), "/metrics delta / attempted")
	if len(hitRTT) > 0 {
		hs := summarize(hitRTT)
		hp, hpct := tail(hitRTT)
		o.add("cache.hit_rtt_p50_ms", "ms", hs.Median, hs, "submit + result of a cached spec")
		o.add("cache.hit_rtt_p95_ms", "ms", hp, hs, fmt.Sprintf("percentile %g of %d hits", hpct, len(hitRTT)))
	} else {
		o.absent("cache.hit_rtt_p50_ms", "ms", "no cache hits in this run")
		o.absent("cache.hit_rtt_p95_ms", "ms", "no cache hits in this run")
	}
	if w.machinePEs > 0 {
		partitionLayers(o, w.machinePEs, jobs, wait)
	}
	o.add("http.result_ms", "ms", res.Median, res, "GET /v1/jobs/{id}/result")
	lp, lpct := tail(late)
	o.add("gen.late_p95_ms", "ms", lp, summarize(late), fmt.Sprintf("percentile %g of dispatch lateness", lpct))
	dp, dpct := tail(lag)
	o.add("gen.detect_lag_p95_ms", "ms", dp, summarize(lag),
		fmt.Sprintf("percentile %g of %d executed requests: terminal status received - JobStatus.Finished", dpct, len(lag)))
	ts, us := summarize(traced), summarize(untraced)
	overhead := 0.0
	if us.Median > 0 {
		overhead = ts.Median / us.Median
	}
	o.one("trace.overhead_ratio", "ratio", overhead, ts.N+us.N,
		fmt.Sprintf("median latency of traced (even) %.2f ms / untraced (odd) %.2f ms requests", ts.Median, us.Median))
}

// partitionLayers derives partition occupancy from the jobs' run
// intervals: utilisation over the window, and the peaks of busy PEs
// and of jobs running at once.
func partitionLayers(o *outcome, machinePEs int, jobs []job, wait []float64) {
	wp, wpct := tail(wait)
	o.add("partition.wait_p95_ms", "ms", wp, summarize(wait), fmt.Sprintf("percentile %g of %d jobs", wpct, len(wait)))
	type event struct {
		at  time.Time
		pes int
	}
	var events []event
	var busy float64
	var first, last time.Time
	for _, j := range jobs {
		events = append(events, event{j.started, j.pes}, event{j.finished, -j.pes})
		busy += float64(j.pes) * j.finished.Sub(j.started).Seconds()
		if first.IsZero() || j.created.Before(first) {
			first = j.created
		}
		if j.finished.After(last) {
			last = j.finished
		}
	}
	// Ends sort before starts at the same instant: a freed partition
	// is reused, not double-counted.
	sort.Slice(events, func(a, b int) bool {
		if !events[a].at.Equal(events[b].at) {
			return events[a].at.Before(events[b].at)
		}
		return events[a].pes < events[b].pes
	})
	var pes, jobsNow, pesPeak, jobsPeak int
	for _, e := range events {
		pes += e.pes
		if e.pes > 0 {
			jobsNow++
		} else {
			jobsNow--
		}
		pesPeak = max(pesPeak, pes)
		jobsPeak = max(jobsPeak, jobsNow)
	}
	util := 0.0
	if window := last.Sub(first).Seconds(); window > 0 {
		util = 100 * busy / (float64(machinePEs) * window)
	}
	o.one("partition.util_pct", "%", util, len(jobs), "PE-seconds run / (machine PEs x window)")
	o.one("partition.busy_pes_peak", "count", float64(pesPeak), len(jobs), "from job run intervals")
	o.one("partition.jobs_concurrent_peak", "count", float64(jobsPeak), len(jobs), "from job run intervals")
}
