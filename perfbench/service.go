package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dyndesign/internal/advisor"
	"dyndesign/internal/alerter"
	"dyndesign/internal/candidates"
	"dyndesign/internal/core"
	"dyndesign/internal/durable"
	"dyndesign/internal/engine"
	"dyndesign/internal/workload"
)

const (
	// serviceRows is the advisord table size.
	serviceRows = 20000
	// serviceWindow is advisord's sliding window (its default).
	serviceWindow = 500
	// serviceBatch is the number of statements per POST /ingest.
	serviceBatch = 10
	// serviceRate is the offered load in statements per second. advisord
	// keeps pace with it even on one processor (the generator's lateness
	// stays bounded, tens of ms while a solve and its calibration share
	// the processor) with an fsync per statement.
	serviceRate = 1000
	// servicePhase is the length of each read phase of the stream: long
	// enough for the drift alerter (window 500, cooldown 500) to fire
	// once per phase change.
	servicePhase = 500
	// serviceBurst is the INSERT and the UPDATE burst of every cycle.
	serviceBurst = 20
	// publishTimeout bounds the wait for a drift solve to become
	// visible; a solve that takes longer counts as failed.
	publishTimeout = 10 * time.Second
)

// streamStatement is one statement of the service stream.
type streamStatement struct {
	SQL   string `json:"sql"`
	Label string `json:"label,omitempty"`
}

// serviceStream generates n statements of a phase-shifting stream: read
// phases A, C, B, D in turn, each followed by a short INSERT and UPDATE
// burst, so the best design shifts every phase and writes are mixed in.
func serviceStream(seed int64, n int) ([]streamStatement, error) {
	mixes := workload.PaperMixes(serviceRows)
	domain := workload.DomainForRows(serviceRows)
	rng := rand.New(rand.NewSource(seed))
	var out []streamStatement
	add := func(label string, stmts []workload.Statement) {
		for _, s := range stmts {
			out = append(out, streamStatement{SQL: s.SQL, Label: label})
		}
	}
	for cycle := 0; len(out) < n; cycle++ {
		phase := []string{"A", "C", "B", "D"}[cycle%4]
		stmts, err := mixes[phase].Generate(rng, servicePhase)
		if err != nil {
			return nil, err
		}
		add(phase, stmts)
		ins, err := workload.GenerateInserts("t", 4, domain, rng, serviceBurst)
		if err != nil {
			return nil, err
		}
		add("INSERT", ins)
		upd, err := workload.GenerateUpdates("t", "b", "a", domain, rng, serviceBurst)
		if err != nil {
			return nil, err
		}
		add("UPDATE", upd)
	}
	return out[:n], nil
}

// daemon is one running advisord process.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	metrics string // metrics base URL
	done    chan error
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startDaemon starts advisord over a fresh data dir, serving metrics
// and writing its own spans, and waits until /healthz answers.
func startDaemon(cfg config, dir, setup string) (*daemon, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", addr, "-setup", setup, "-data-dir", filepath.Join(dir, "data"),
		"-window", strconv.Itoa(serviceWindow)}
	maddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args = append(args, "-metrics-addr", maddr, "-trace-out", filepath.Join(dir, "advisord-spans.jsonl"))
	d := &daemon{base: "http://" + addr, metrics: "http://" + maddr, done: make(chan error, 1)}
	logf, err := os.Create(filepath.Join(dir, "advisord.log"))
	if err != nil {
		return nil, err
	}
	d.cmd = exec.Command(cfg.advisord, args...)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting advisord: %w", err)
	}
	go func() {
		d.done <- d.cmd.Wait()
		logf.Close()
	}()
	client := &http.Client{Timeout: time.Second}
	for limit := time.Now().Add(60 * time.Second); ; {
		select {
		case err := <-d.done:
			d.done <- err
			return nil, fmt.Errorf("advisord exited during start-up: %v (see %s)", err, logf.Name())
		default:
		}
		if resp, err := client.Get(d.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(limit) {
			d.stop()
			return nil, errors.New("advisord did not become ready within 60 s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop shuts advisord down with SIGTERM, escalating to SIGKILL, and
// waits for the process to exit.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		d.done <- err
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		d.done <- <-d.done
	}
}

// getJSON fetches a URL and decodes its JSON body.
func getJSON(c *http.Client, url string, v any) error {
	body, status, err := fetch(c, url)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: %d: %s", url, status, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

// recBody is the part of a /recommendation (or POST /solve) body the
// benchmark reads.
type recBody struct {
	WindowSeq uint64   `json:"window_seq"`
	Initial   []string `json:"initial"`
	Cost      float64  `json:"cost"`
	Designs   []struct {
		FromStatement int      `json:"from_statement"`
		Indexes       []string `json:"indexes"`
	} `json:"designs"`
}

// alertAck is an ingest acknowledgement whose batch raised a drift
// alert: the solve it triggers must publish a window containing seq.
type alertAck struct {
	at  time.Time
	seq uint64
}

// serviceRun is what one open-loop run against advisord measured.
type serviceRun struct {
	timings   []openLoopTiming
	failed    int
	staleness []float64 // ms from alerting ack to visible publish
	staleMiss int       // alerts whose solve never became visible
	badBodies int
}

// drive sends the stream in batches at serviceRate on one connection,
// open loop, while an observer on a second connection watches
// /recommendation for the solves that drift alerts trigger.
func drive(d *daemon, stream []streamStatement) serviceRun {
	var run serviceRun
	load := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	alerts := make(chan alertAck, len(stream)/serviceBatch+1) // one slot per batch: the sender never blocks
	observed := make(chan serviceRun, 1)
	go func() { observed <- observe(d, alerts) }()

	interval := time.Duration(float64(time.Second) * serviceBatch / serviceRate)
	sched := schedule{start: time.Now().Add(10 * time.Millisecond), interval: interval}
	var acked uint64
	for i := 0; i*serviceBatch < len(stream); i++ {
		batch := stream[i*serviceBatch : min(len(stream), (i+1)*serviceBatch)]
		body, _ := json.Marshal(map[string]any{"statements": batch}) // plain strings always marshal
		due := sched.due(i)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		resp, err := load.Post(d.base+"/ingest", "application/json", bytes.NewReader(body))
		var ack struct {
			Ingested int `json:"ingested"`
			Alerts   int `json:"alerts"`
		}
		if err == nil {
			raw, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch {
			case rerr != nil:
				err = rerr
			case resp.StatusCode != http.StatusOK:
				err = fmt.Errorf("ingest: %s", resp.Status)
			default:
				err = json.Unmarshal(raw, &ack)
			}
		}
		t := openLoopTiming{due: due, sent: sent, acked: time.Now()}
		run.timings = append(run.timings, t)
		if err != nil || ack.Ingested != len(batch) {
			run.failed++
			continue
		}
		acked += uint64(len(batch))
		if ack.Alerts > 0 {
			alerts <- alertAck{at: t.acked, seq: acked}
		}
	}
	close(alerts)
	obsRun := <-observed
	run.staleness, run.staleMiss = obsRun.staleness, obsRun.staleMiss
	run.badBodies = obsRun.badBodies
	return run
}

// observe polls /recommendation after every alerting ack until a
// publish covering the alerting batch is visible. A poll reads only the
// window_seq field, which leads the body, so the observer takes little
// CPU from the solve it is timing; the visible body is parsed in full.
func observe(d *daemon, alerts <-chan alertAck) serviceRun {
	var run serviceRun
	c := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	for a := range alerts {
		limit := a.at.Add(publishTimeout)
		for {
			body, status, err := fetch(c, d.base+"/recommendation")
			now := time.Now()
			if err == nil && status == http.StatusOK && leadingSeq(body) >= a.seq {
				var rb recBody
				if json.Unmarshal(body, &rb) != nil || rb.WindowSeq < a.seq {
					run.badBodies++
				}
				run.staleness = append(run.staleness, ms(now.Sub(a.at)))
				break
			}
			if err != nil || (status != http.StatusOK && status != http.StatusServiceUnavailable) {
				run.badBodies++
			}
			if now.After(limit) {
				run.staleMiss++
				break
			}
			time.Sleep(500 * time.Microsecond)
		}
	}
	return run
}

// fetch GETs a URL and returns its body and status.
func fetch(c *http.Client, url string) ([]byte, int, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// leadingSeq extracts the window_seq field from the head of a
// recommendation body; 0 when it is absent.
func leadingSeq(body []byte) uint64 {
	const key = `"window_seq":`
	i := bytes.Index(body[:min(len(body), 256)], []byte(key))
	if i < 0 {
		return 0
	}
	var seq uint64
	for _, b := range body[i+len(key):] {
		if b < '0' || b > '9' {
			break
		}
		seq = seq*10 + uint64(b-'0')
	}
	return seq
}

// solveRec is the part of a /solves record the benchmark reads.
type solveRec struct {
	SolveMillis float64 `json:"solve_millis"`
	Error       string  `json:"error"`
}

// session is one measured run of advisord: the open-loop drive and
// what its endpoints reported afterwards.
type session struct {
	script  []string
	stream  []streamStatement
	run     serviceRun
	solves  []solveRec
	resolve int64      // published solves (/healthz resolves)
	fsyncs  float64    // WAL fsyncs per appended statement
	server  ingestHist // advisord's own ingest timing
}

// runSession starts advisord, streams seconds' worth of statements at
// serviceRate, checks the service's answers, and stops it.
func runSession(cfg config, res *result, seconds float64) (*session, error) {
	if cfg.advisord == "" {
		return nil, errors.New("the service path needs -advisord")
	}
	dir, err := filepath.Abs(filepath.Join(cfg.outDir, fmt.Sprintf("service-seed%d", cfg.seed)))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ss := &session{script: tableScript(serviceRows, cfg.seed)}
	setup := filepath.Join(dir, "setup.sql")
	if err := os.WriteFile(setup, []byte(strings.Join(ss.script, ";\n")+";\n"), 0o644); err != nil {
		return nil, err
	}
	n := int(seconds*serviceRate) / serviceBatch * serviceBatch
	if ss.stream, err = serviceStream(cfg.seed*1_000_003, n); err != nil {
		return nil, err
	}
	d, err := startDaemon(cfg, filepath.Join(dir, "run"), setup)
	if err != nil {
		return nil, err
	}
	defer d.stop()

	ss.run = drive(d, ss.stream)
	run := ss.run
	res.Attempted += len(run.timings) + len(run.staleness) + run.staleMiss
	res.Failed += run.failed + run.staleMiss
	res.check(run.failed == 0, "%d of %d ingest batches failed", run.failed, len(run.timings))
	res.check(run.staleMiss == 0, "%d drift solves did not publish within %s", run.staleMiss, publishTimeout)
	res.check(run.badBodies == 0, "%d /recommendation bodies did not parse", run.badBodies)
	res.check(len(run.staleness) > 0, "no drift alert fired over %d statements", len(ss.stream))

	c := &http.Client{Timeout: time.Minute}
	var health struct {
		SolveErrors int64 `json:"solve_errors"`
		Resolves    int64 `json:"resolves"`
		DriftAlerts int64 `json:"drift_alerts"`
		Durable     struct {
			Appends int64 `json:"wal_appends"`
			Fsyncs  int64 `json:"wal_fsyncs"`
		} `json:"durable"`
	}
	var solves struct {
		Solves []solveRec `json:"solves"`
	}
	res.Attempted += 3
	if err := getJSON(c, d.base+"/healthz", &health); err != nil {
		res.Failed++
		res.check(false, "healthz: %v", err)
	}
	res.check(health.SolveErrors == 0, "advisord reports %d solve errors", health.SolveErrors)
	if err := getJSON(c, d.base+"/solves", &solves); err != nil {
		res.Failed++
		res.check(false, "solves: %v", err)
	}
	final, err := forceSolve(c, d)
	if err != nil {
		res.Failed++
		res.check(false, "final POST /solve: %v", err)
	} else if err := checkFinalSolve(setup, ss.stream, final); err != nil {
		res.check(false, "final solve differs from the in-process solve: %v", err)
	}
	for _, s := range solves.Solves {
		if s.Error == "" {
			ss.solves = append(ss.solves, s)
		}
	}
	ss.resolve = health.Resolves
	if health.Durable.Appends > 0 {
		ss.fsyncs = float64(health.Durable.Fsyncs) / float64(health.Durable.Appends)
	}
	if ss.server, err = serverIngest(c, d.metrics); err != nil {
		return nil, fmt.Errorf("reading advisord_ingest_seconds: %w", err)
	}
	res.note("advisord: %d statements in %d batches at %d statements/s; %d drift alerts, %d solves published",
		len(ss.stream), len(run.timings), serviceRate, health.DriftAlerts, health.Resolves)
	return ss, nil
}

// serviceLayers measures the service path's layers within seconds: half
// of it driving a traced advisord over HTTP, the other half replaying
// the same stream in-process.
func serviceLayers(cfg config, res *result, got map[string]float64, seconds float64) error {
	ss, err := runSession(cfg, res, seconds/2)
	if err != nil {
		return err
	}
	// Ingest latency from due time; generator lateness; send to ack, as
	// the client saw it.
	var lat, late, service []float64
	for _, t := range ss.run.timings {
		lat = append(lat, ms(t.latency()))
		late = append(late, ms(t.lateness()))
		service = append(service, ms(t.acked.Sub(t.sent)))
	}
	res.note("advisord ingest from due time: p50 %.3f ms, p99 %.3f ms over %d batches",
		median(lat), quantile(lat, 0.99), len(lat))
	if backlogGrowing(late, 5) {
		res.note("WARNING: the load generator fell progressively behind schedule")
	}
	solveMS := make([]float64, len(ss.solves))
	for i, s := range ss.solves {
		solveMS[i] = s.SolveMillis
	}
	got["loadgen.late_p99_ms"] = quantile(late, 0.99)
	got["loadgen.late_max_ms"] = maxOf(late)
	got["advisord.solves"] = float64(ss.resolve)
	got["advisord.solve_ms_p50"] = median(solveMS)
	got["advisord.publish_gap_ms"] = median(ss.run.staleness) - median(solveMS)
	got["advisord.ingest_server_p50_ms"] = ss.server.p50
	got["advisord.ingest_server_p99_ms"] = ss.server.p99
	got["advisord.http_overhead_ms"] = mean(service) - ss.server.mean
	got["durable.fsyncs_per_stmt"] = ss.fsyncs
	until := time.Now().Add(time.Duration(seconds / 2 * float64(time.Second)))
	return replayServiceInProcess(cfg, got, ss.script, ss.stream, until)
}

// forceSolve runs POST /solve and decodes the published body.
func forceSolve(c *http.Client, d *daemon) (recBody, error) {
	var body recBody
	resp, err := c.Post(d.base+"/solve", "application/json", nil)
	if err != nil {
		return body, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return body, err
	}
	if resp.StatusCode != http.StatusOK {
		return body, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	return body, json.Unmarshal(raw, &body)
}

// serviceAdvisor builds the advisor advisord runs: the paper's
// structures over its table, single-index configurations.
func serviceAdvisor(db *engine.Database) (*advisor.Advisor, error) {
	structures := candidates.PaperStructures("t")
	return advisor.New(db, advisor.DesignSpace{
		Table:      "t",
		Structures: structures,
		Configs:    advisor.SingleIndexConfigs(len(structures)),
	})
}

// serviceOptions are advisord's default solve options.
func serviceOptions(initial core.Config) advisor.Options {
	return advisor.Options{K: 2, Strategy: core.StrategyKAware, SegmentSize: 1, Initial: initial,
		Timeout: 30 * time.Second, Fallback: true}
}

// checkFinalSolve recomputes advisord's last solve in-process: the same
// table, the last window of the stream, and the design the service had
// installed; the cost and the design sequence must match exactly.
func checkFinalSolve(setup string, stream []streamStatement, got recBody) error {
	f, err := os.Open(setup)
	if err != nil {
		return err
	}
	db := engine.New()
	err = db.ExecScript(f)
	f.Close()
	if err != nil {
		return err
	}
	if err := db.Analyze("t"); err != nil {
		return err
	}
	adv, err := serviceAdvisor(db)
	if err != nil {
		return err
	}
	names := adv.Space().StructureNames()
	var initial core.Config
	for _, n := range got.Initial {
		i := slices.Index(names, n)
		if i < 0 {
			return fmt.Errorf("unknown initial index %q", n)
		}
		initial = initial.With(i)
	}
	w := &workload.Workload{Name: "window"}
	for _, s := range stream[max(0, len(stream)-serviceWindow):] {
		st, err := workload.NewStatement(s.SQL)
		if err != nil {
			return err
		}
		w.Append(s.Label, st)
	}
	rec, err := adv.RecommendContext(context.Background(), w, serviceOptions(initial))
	if err != nil {
		return err
	}
	if rec.Solution.Cost != got.Cost {
		return fmt.Errorf("cost %v in-process, %v from advisord", rec.Solution.Cost, got.Cost)
	}
	// Both sides as advisord renders them: one run per region of
	// constant configuration, its index names in structure order.
	var runs, remote []string
	prev := rec.Problem.Initial
	for i, cfg := range rec.Solution.Designs {
		if i == 0 || cfg != prev {
			var idx []string
			for _, s := range cfg.Structures() {
				idx = append(idx, names[s])
			}
			runs = append(runs, fmt.Sprintf("%d:%s", rec.Segments[i].Start, strings.Join(idx, ",")))
			prev = cfg
		}
	}
	for _, dr := range got.Designs {
		remote = append(remote, fmt.Sprintf("%d:%s", dr.FromStatement, strings.Join(dr.Indexes, ",")))
	}
	if strings.Join(runs, " ") != strings.Join(remote, " ") {
		return fmt.Errorf("designs %v in-process, %v from advisord", runs, remote)
	}
	return nil
}

// ingestHist is advisord's advisord_ingest_seconds histogram in ms:
// its p50 and p99 (bucket upper bounds, so within a factor of two) and
// its exact mean.
type ingestHist struct{ p50, p99, mean float64 }

// serverIngest reads advisord_ingest_seconds from advisord's metrics.
func serverIngest(c *http.Client, base string) (ingestHist, error) {
	var h ingestHist
	if base == "" {
		return h, errors.New("metrics not served")
	}
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	type bucket struct{ le, cum float64 }
	var buckets []bucket
	var sum, count float64
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "advisord_ingest_seconds_sum "); ok {
			sum, _ = strconv.ParseFloat(v, 64)
			continue
		}
		if v, ok := strings.CutPrefix(line, "advisord_ingest_seconds_count "); ok {
			count, _ = strconv.ParseFloat(v, 64)
			continue
		}
		rest, ok := strings.CutPrefix(line, `advisord_ingest_seconds_bucket{le="`)
		if !ok {
			continue
		}
		le, cum, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		bound, err1 := strconv.ParseFloat(le, 64)
		if le == "+Inf" {
			bound, err1 = math.Inf(1), nil
		}
		n, err2 := strconv.ParseFloat(strings.TrimSpace(cum), 64)
		if err1 == nil && err2 == nil {
			buckets = append(buckets, bucket{bound, n})
		}
	}
	if err := sc.Err(); err != nil {
		return h, err
	}
	if count == 0 || len(buckets) == 0 {
		return h, errors.New("no advisord_ingest_seconds samples")
	}
	at := func(q float64) float64 {
		for _, b := range buckets {
			if b.cum >= q*count {
				return 1000 * b.le
			}
		}
		return math.Inf(1)
	}
	return ingestHist{p50: at(0.5), p99: at(0.99), mean: 1000 * sum / count}, nil
}

// replayServiceInProcess feeds the same stream, in the same order,
// through the modules advisord composes — durable.Store (fsync every
// statement), workload.Window, alerter.Stream, and on each drift alert
// RecommendContext, Explain and Calibrate with a retained memo and
// solve cache — timing each call, until the deadline. Every batch of
// the replay is one traced operation. Only the layers the service path
// alone exercises are reported, so the caller's own trace summary of
// the other layers stands.
func replayServiceInProcess(cfg config, got map[string]float64, script []string,
	stream []streamStatement, until time.Time) error {
	ctx := context.Background()
	r := newRecorder()
	db, _, _, err := loadTable(nil, script)
	if err != nil {
		return err
	}
	adv, err := serviceAdvisor(db)
	if err != nil {
		return err
	}
	dir := filepath.Join(cfg.outDir, fmt.Sprintf("service-seed%d", cfg.seed), "inproc")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	store, err := durable.Open(dir, durable.Options{FsyncEvery: 1})
	if err != nil {
		return err
	}
	// The replay's WAL is thrown away: only its append timings matter, so a
	// close error changes nothing the run reports.
	defer store.Close()
	win, err := workload.NewWindow("window", serviceWindow)
	if err != nil {
		return err
	}
	al, err := alerter.New(adv, adv.Space().Configs, 0, alerter.Options{})
	if err != nil {
		return err
	}
	alerted, solved, alerts := false, false, 0
	str := alerter.NewStream(al, func(alerter.Alert) { alerted, alerts = true, alerts+1 })
	memo := advisor.NewMemo(1 << 20)
	cache := core.NewSolveCache()
	var installed core.Config
	var appendUS, observeUS []float64
	solve := func() error {
		w := win.Snapshot()
		opts := serviceOptions(installed)
		opts.Memo, opts.Cache, opts.Tracer = memo, cache, r.tracer()
		end := r.begin("advisor.RecommendContext")
		o, err := adv.RecommendContext(ctx, w, opts)
		end()
		if err != nil {
			return err
		}
		end = r.begin("explain.Explain")
		_, err = adv.Explain(ctx, o, advisor.ExplainOptions{KSweepDelta: -1, AuditTrials: -1})
		end()
		if err != nil {
			return err
		}
		end = r.begin("calib.Calibrate")
		_, err = adv.Calibrate(o, advisor.CalibrateOptions{Samples: 16, Seed: 1})
		end()
		if err != nil {
			return err
		}
		installed = o.Solution.Designs[len(o.Solution.Designs)-1]
		return str.SetCurrent(installed)
	}
	for i := 0; i*serviceBatch < len(stream) && time.Now().Before(until); i++ {
		r.setOp(i)
		endOp := r.begin("op")
		for _, s := range stream[i*serviceBatch : min(len(stream), (i+1)*serviceBatch)] {
			end := r.begin("workload.NewStatement")
			st, err := workload.NewStatement(s.SQL)
			end()
			if err != nil {
				endOp()
				return err
			}
			t := time.Now()
			end = r.begin("durable.AppendStatement")
			_, err = store.AppendStatement(s.Label, s.SQL)
			end()
			appendUS = append(appendUS, us(time.Since(t)))
			if err != nil {
				endOp()
				return err
			}
			end = r.begin("workload.Window.Append")
			win.Append(s.Label, st)
			end()
			t = time.Now()
			end = r.begin("alerter.Stream.Observe")
			_, err = str.Observe(ctx, st)
			end()
			observeUS = append(observeUS, us(time.Since(t)))
			if err != nil {
				endOp()
				return err
			}
		}
		// Like advisord: a first solve once the window holds 25
		// statements, then one per drift alert.
		if alerted || (!solved && win.Len() >= 25) {
			alerted, solved = false, true
			if err := solve(); err != nil {
				endOp()
				return err
			}
		}
		endOp()
	}
	got["durable.append_us_p50"] = quantile(appendUS, 0.5)
	got["durable.append_us_p99"] = quantile(appendUS, 0.99)
	got["alerter.observe_us_p50"] = quantile(observeUS, 0.5)
	got["alerter.observe_us_p99"] = quantile(observeUS, 0.99)
	got["alerter.alerts"] = float64(alerts)
	spans := r.snapshot()
	got["calib.replay_ms"] = median(spansNamed(spans, "calib.Calibrate"))
	sum := summarizeTrace(spans, "op")
	if sum.ops == 0 {
		return errors.New("no time left for the in-process service replay")
	}
	for _, l := range []string{"durable", "alerter", "calib"} {
		got["self."+l+"_ms"] = ms(sum.self[l]) / float64(sum.ops)
	}
	return nil
}
