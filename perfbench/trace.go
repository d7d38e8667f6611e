package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"elpc/internal/churn"
	"elpc/internal/engine"
	"elpc/internal/fleet"
	"elpc/internal/journal"
	"elpc/internal/model"
	"elpc/internal/service"
	"elpc/internal/service/wire"
	"elpc/internal/telemetry"
	"elpc/internal/wal"
)

// The traced run: the same workload and seed as an end-to-end run, with the
// server in-process (service.NewServer / NewDurableServer, the options
// elpcd runs with) behind a loopback listener. It collects layer numbers
// three ways, all from outside the program:
//
//   - handler spans: Server.Handler wrapped with one span per request,
//     against the client's round trip;
//   - replayed calls: the same inputs replayed through the exported
//     functions each layer offers, one span around every call;
//   - registry deltas: before/after differences of the histograms and
//     counters the program already keeps (telemetry.Default(), /v1/stats).

// perLayer lists the per-layer metrics and their units; every traced run
// reports all of them, 0 where a workload does not exercise the layer.
var perLayer = []struct{ name, unit string }{
	{"service.decode_ms", "ms"},
	{"service.encode_ms", "ms"},
	{"service.http_overhead_ms", "ms"},
	{"service.hash_ms", "ms"},
	{"service.solve_ms", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.cache_lookups", "count"},
	{"engine.pool_wait_ms", "ms"},
	{"core.mindelay_ms", "ms"},
	{"core.maxframerate_ms", "ms"},
	{"core.solves", "count"},
	{"core.warm_hit_ratio", "ratio"},
	{"fleet.deploy_ms", "ms"},
	{"fleet.release_ms", "ms"},
	{"fleet.batch_ms_per_req", "ms"},
	{"fleet.bookkeeping_ms", "ms"},
	{"fleet.lock_wait_ms", "ms"},
	{"fleet.slo_report_ms", "ms"},
	{"fleet.admit_ratio", "ratio"},
	{"churn.apply_ms", "ms"},
	{"churn.repair_ms", "ms"},
	{"wal.tax_ms", "ms"},
	{"wal.bytes_per_op", "B"},
	{"wal.appends_per_op", "count"},
	{"wal.fsyncs_per_op", "count"},
	{"wal.recover_ms", "ms"},
	{"journal.events_per_op", "count"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.gc_per_kop", "count"},
	{"trace.self_coverage", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// traceOpts are the service options the traced server runs with: elpcd's
// defaults, with snapshots held off as in the end-to-end run.
func traceOpts(dataDir string) service.Options {
	o := service.Options{DataDir: dataDir}
	if dataDir != "" {
		o.SnapshotEvery, _ = strconv.Atoi(noSnapshots)
	}
	return o
}

// inproc is an in-process server behind a loopback listener.
type inproc struct {
	s    *service.Server
	hs   *http.Server
	done chan struct{}
	c    *client
}

// startInproc serves s on loopback; with rec, every request gets a handler
// span whose parent is the client span named in its headers.
func startInproc(s *service.Server, rec *recorder) (*inproc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := s.Handler()
	if rec != nil {
		next := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			op, err1 := strconv.Atoi(r.Header.Get(opHeader))
			parent, err2 := strconv.Atoi(r.Header.Get(spanHeader))
			if err1 != nil || err2 != nil {
				next.ServeHTTP(w, r)
				return
			}
			i := rec.begin("service.handler", parent, op)
			next.ServeHTTP(w, r)
			rec.end(i)
		})
	}
	p := &inproc{s: s, hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		_ = p.hs.Serve(ln) // returns ErrServerClosed on close
		close(p.done)
	}()
	p.c = newClient("http://" + ln.Addr().String())
	p.c.rec = rec
	return p, nil
}

// close stops the listener, waits for the serve loop and closes the server.
func (p *inproc) close() {
	p.c.close()
	_ = p.hs.Close() // the listener error is ErrServerClosed
	<-p.done
	p.s.Close()
}

// scrape reads the process metrics registry.
func scrape() (exposition, error) {
	var buf bytes.Buffer
	if err := telemetry.Default().WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return parseExposition(&buf)
}

// statsWire is the part of GET /v1/stats the traced run reads.
type statsWire struct {
	Solver struct {
		Cache struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"cache"`
	} `json:"solver"`
	Journal struct {
		LastSeq uint64 `json:"last_seq"`
	} `json:"journal"`
}

func getStats(c *client) (statsWire, error) {
	var st statsWire
	r := c.do(http.MethodGet, "/v1/stats")
	if r.err != nil || r.status != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: status %d, %v", r.status, r.err)
	}
	return st, json.Unmarshal(r.body, &st)
}

// memDelta measures allocation and GC counts across fn.
func memDelta(fn func() error) (allocBytes, gcs uint64, err error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	err = fn()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc, uint64(m1.NumGC - m0.NumGC), err
}

// layerRun accumulates what a traced run measured.
type layerRun struct {
	m     map[string]float64
	notes []string
	res   *e2e
	// handlerMs is the mean handler span of the HTTP phase per op, the time
	// trace.self_coverage is measured against; waitMs is the wait per op
	// that registry series measured in that phase and the replay, which runs
	// on one goroutine, cannot show.
	handlerMs, waitMs float64
}

func (l *layerRun) set(name string, v float64) { l.m[name] = v }

// httpNumbers fills the metrics read around the HTTP phase: client and
// handler spans, registry deltas and /v1/stats deltas.
func (l *layerRun) httpNumbers(rec *recorder, before, after exposition, st0, st1 statsWire, ops float64) {
	clientMs, handlerMs := 0.0, 0.0
	for _, s := range rec.spans {
		switch s.Name {
		case "client":
			clientMs += float64(s.dur()) / 1e6
		case "service.handler":
			handlerMs += float64(s.dur()) / 1e6
		}
	}
	l.set("service.http_overhead_ms", (clientMs-handlerMs)/ops)
	l.handlerMs = handlerMs / ops
	hits := float64(st1.Solver.Cache.Hits - st0.Solver.Cache.Hits)
	misses := float64(st1.Solver.Cache.Misses - st0.Solver.Cache.Misses)
	l.set("service.cache_lookups", hits+misses)
	l.set("service.cache_hit_ratio", ratio(hits, hits+misses))
	l.set("journal.events_per_op", float64(st1.Journal.LastSeq-st0.Journal.LastSeq)/ops)
	_, wait := histDelta(before, after, "elpc_solver_pool_wait_seconds")
	l.set("engine.pool_wait_ms", 1000*wait/ops)
	nMin, sMin := histDelta(before, after, `elpc_core_solve_seconds{op="mindelay"}`)
	nFR, sFR := histDelta(before, after, `elpc_core_solve_seconds{op="maxframerate"}`)
	l.set("core.mindelay_ms", 1000*sMin/ops)
	l.set("core.maxframerate_ms", 1000*sFR/ops)
	nAll, _ := histDelta(before, after, "elpc_core_solve_seconds")
	l.set("core.solves", nAll)
	hit := counterDelta(before, after, `elpc_solve_warm_total{outcome="hit"}`) +
		counterDelta(before, after, `elpc_solve_warm_total{outcome="partial"}`)
	l.set("core.warm_hit_ratio", ratio(hit, counterDelta(before, after, "elpc_solve_warm_total")))
	nWait, sWait := histDelta(before, after, "elpc_fleet_lock_wait_seconds")
	l.set("fleet.lock_wait_ms", 1000*ratio(sWait, nWait))
	adm := counterDelta(before, after, `elpc_fleet_admissions_total{outcome="admitted"}`)
	l.set("fleet.admit_ratio", ratio(adm, counterDelta(before, after, "elpc_fleet_admissions_total")))
	l.set("wal.appends_per_op", counterDelta(before, after, "elpc_wal_appends_total")/ops)
	l.set("wal.fsyncs_per_op", counterDelta(before, after, "elpc_wal_fsyncs_total")/ops)
	l.notes = append(l.notes, fmt.Sprintf("registry: %v mindelay and %v maxframerate core solves, %v cache hits, %v misses in %v timed ops",
		nMin, nFR, hits, misses, ops))
}

// replayNumbers fills the self-time metrics of a spans-on replay.
// trace.self_coverage is the layer self time per replayed op, plus the
// measured waits, as a share of the handler time per op of the HTTP phase:
// work the handlers do that the replay leaves out lowers it.
func (l *layerRun) replayNumbers(spans []span, ops float64) {
	self := layerSelf(spans)
	l.set("service.decode_ms", self["service.decode"]/ops)
	l.set("service.encode_ms", self["service.encode"]/ops)
	layers := 0.0
	for name, ms := range self {
		if name != "op" {
			layers += ms
		}
	}
	l.set("trace.self_coverage", ratio(layers/ops+l.waitMs, l.handlerMs))
	l.notes = append(l.notes, fmt.Sprintf("coverage: layer self time %.4g ms and waits %.4g ms per replayed op against %.4g ms per handler span",
		layers/ops, l.waitMs, l.handlerMs))
}

// traced runs a workload with the server in-process and reports per-layer
// metrics.
func traced(bin, workload string, seed uint64, seconds int, work string) (result, []string, error) {
	l := &layerRun{m: map[string]float64{}}
	var err error
	switch workload {
	case planHit, planCold:
		build := buildPlanHit
		if workload == planCold {
			build = buildPlanCold
		}
		var in *planInputs
		if in, err = build(seed, seconds); err == nil {
			err = tracePlan(l, in, work)
		}
	case fleetDurable:
		var in *fleetInputs
		if in, err = buildFleet(seed, seconds); err == nil {
			err = traceFleet(l, bin, in, work)
		}
	default:
		err = fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return result{}, nil, err
	}
	out := result{
		Correct:   l.res.tally.failed == 0 && l.res.finalErr == nil,
		Attempted: l.res.tally.attempted,
		Failed:    l.res.tally.failed,
		Metrics:   map[string]metric{},
	}
	for _, p := range perLayer {
		out.Metrics[p.name] = metric{l.m[p.name], p.unit}
	}
	l.notes = append(l.notes, "failures: "+l.res.tally.summary())
	if l.res.finalErr != nil {
		l.notes = append(l.notes, "final check failed: "+l.res.finalErr.Error())
	}
	return out, l.notes, nil
}

// writeSpans writes the recorder's spans into the run's work dir parent,
// next to the build outputs, where they outlive the run.
func writeSpans(rec *recorder, work, name string) (string, error) {
	path := filepath.Join(filepath.Dir(work), name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := rec.write(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// planWire mirrors the planning endpoints' request body.
type planWire struct {
	Network  *model.Network  `json:"network"`
	Pipeline *model.Pipeline `json:"pipeline"`
	Src      model.NodeID    `json:"src"`
	Dst      model.NodeID    `json:"dst"`
}

// tracePlan runs a plan workload in-process, then replays its timed ops
// through the solver twice, with spans on and off.
func tracePlan(l *layerRun, in *planInputs, work string) error {
	rec := newRecorder()
	p, err := startInproc(service.NewServer(traceOpts("")), rec)
	if err != nil {
		return err
	}
	defer p.close()
	l.res = newE2E(len(in.timed), false)
	// Warm-up outside the trace, as in the end-to-end setup.
	p.c.rec = nil
	for _, it := range in.warm {
		r := p.c.do(http.MethodPost, "/v1/"+it.op, it.head, it.tail)
		if err := judge(r, func(st int, b []byte) error { return checkPlan(it, false, st, b) }); err != nil && !errors.Is(err, errNeedRef) {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	p.c.rec = rec
	st0, err := getStats(p.c)
	if err != nil {
		return err
	}
	before, err := scrape()
	if err != nil {
		return err
	}
	if err := timedPlan(p.c, in, l.res, nil); err != nil {
		return err
	}
	after, err := scrape()
	if err != nil {
		return err
	}
	st1, err := getStats(p.c)
	if err != nil {
		return err
	}
	ops := float64(len(in.timed))
	l.httpNumbers(rec, before, after, st0, st1, ops)

	// Replay: spans on, then the same with spans off for the overhead and
	// the allocation counts.
	replay := newRecorder()
	onWall, err := replayPlan(in, replay)
	if err != nil {
		return err
	}
	var offWall time.Duration
	alloc, gcs, err := memDelta(func() error {
		var err error
		offWall, err = replayPlan(in, nil)
		return err
	})
	if err != nil {
		return err
	}
	l.replayNumbers(replay.spans, ops)
	self := layerSelf(replay.spans)
	l.set("service.hash_ms", self["service.hash"]/ops)
	solveMs := 0.0
	for _, s := range replay.spans {
		if s.Name == "service.solve" {
			solveMs += float64(s.dur()) / 1e6
		}
	}
	l.set("service.solve_ms", solveMs/ops)
	l.set("runtime.alloc_kb_per_op", float64(alloc)/1024/ops)
	l.set("runtime.gc_per_kop", 1000*float64(gcs)/ops)
	l.set("trace.overhead_frac", ratio(float64(onWall-offWall), float64(offWall)))
	return l.saveSpans(rec, replay, work, "plan")
}

// saveSpans writes both span sets and notes where.
func (l *layerRun) saveSpans(httpRec, replay *recorder, work, kind string) error {
	for _, s := range []struct {
		r    *recorder
		name string
	}{{httpRec, kind + "-http-spans.json"}, {replay, kind + "-replay-spans.json"}} {
		path, err := writeSpans(s.r, work, s.name)
		if err != nil {
			return err
		}
		l.notes = append(l.notes, fmt.Sprintf("%d spans written to %s", len(s.r.spans), path))
	}
	return nil
}

// replayPlan replays the timed plan ops through a fresh solver warmed with
// the workload's warm-up set: decode the body as the handler does, solve,
// encode the answer as the handler does. With rec, each op is a span tree;
// the solver's own trace supplies the hash, cache lookup, pool wait and DP
// spans under the solve.
func replayPlan(in *planInputs, rec *recorder) (time.Duration, error) {
	solver := service.NewSolver(traceOpts(""))
	defer solver.Close()
	request := func(it *planItem, body []byte) (service.Request, error) {
		var w planWire
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&w); err != nil {
			return service.Request{}, err
		}
		return service.Request{
			Op:      service.Op(it.op),
			Problem: &model.Problem{Net: w.Network, Pipe: w.Pipeline, Src: w.Src, Dst: w.Dst, Cost: model.DefaultCostOptions()},
		}, nil
	}
	bodies := make([][]byte, len(in.timed))
	for i, it := range in.timed {
		bodies[i] = append(append([]byte(nil), it.head...), it.tail...)
	}
	for _, it := range in.warm {
		req, err := request(it, append(append([]byte(nil), it.head...), it.tail...))
		if err != nil {
			return 0, err
		}
		if _, err := solver.Solve(context.Background(), req); err != nil {
			return 0, err
		}
	}
	names := map[string]string{"hash": "service.hash", "cache_lookup": "service.cache_lookup", "pool_wait": "engine.pool_wait", "solve": "core.dp"}
	t0 := time.Now()
	for i, it := range in.timed {
		root := rec.begin("op", -1, i)
		sp := rec.begin("service.decode", root, i)
		req, err := request(it, bodies[i])
		rec.end(sp)
		if err != nil {
			return 0, err
		}
		ctx := context.Background()
		var tracer *telemetry.Tracer
		var tr *telemetry.Trace
		if rec != nil {
			tracer = telemetry.NewTracer(1)
			tr = tracer.Start("solve")
			ctx = telemetry.ContextWithSpan(ctx, tr.Root())
		}
		sp = rec.begin("service.solve", root, i)
		res, err := solver.Solve(ctx, req)
		rec.end(sp)
		tr.Finish()
		if err != nil {
			return 0, err
		}
		for _, t := range tracer.Slowest() {
			base := rec.at(t.Start)
			for _, c := range t.Root.Children {
				start := base + int64(c.StartMs*1e6)
				rec.add(span{Name: names[c.Name], Start: start, End: start + int64(c.DurationMs*1e6), Parent: sp, Op: i})
			}
		}
		sp = rec.begin("service.encode", root, i)
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		err = enc.Encode(res)
		rec.end(sp)
		rec.end(root)
		if err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// traceFleet runs fleet-durable in-process, then replays its timed ops
// through the fleet manager and churn reconciler three times: WAL and spans
// on, WAL on and spans off, both off. The data dir they all start from is
// the one the end-to-end run recovers: built by elpcd and killed.
func traceFleet(l *layerRun, bin string, in *fleetInputs, work string) error {
	killed := filepath.Join(work, "data-killed")
	before, err := buildDataDir(bin, work, killed, in)
	if err != nil {
		return err
	}
	// wal.recover_ms: wal.Open + fleet.Recover on fresh copies.
	var recov []float64
	for k := 0; k < setupRuns; k++ {
		dir := filepath.Join(work, fmt.Sprintf("data-recover-%d", k))
		if err := copyDir(killed, dir); err != nil {
			return err
		}
		t0 := time.Now()
		lg, rc, err := wal.Open(dir, wal.Options{})
		if err != nil {
			return err
		}
		r, err := fleet.Recover(rc, nil)
		recov = append(recov, float64(time.Since(t0))/1e6)
		lg.Close()
		if err != nil {
			return err
		}
		if err := sameFleet(before, wireList(r.Manager.List())); err != nil {
			return fmt.Errorf("recovered fleet: %w", err)
		}
	}
	l.set("wal.recover_ms", median(recov))

	dir := filepath.Join(work, "data-http")
	if err := copyDir(killed, dir); err != nil {
		return err
	}
	s, err := service.NewDurableServer(traceOpts(dir))
	if err != nil {
		return err
	}
	rec := newRecorder()
	p, err := startInproc(s, rec)
	if err != nil {
		s.Close()
		return err
	}
	defer p.close()
	l.res = newE2E(len(in.timed), true)
	f := &fleetRunner{c: p.c, in: in, led: newLedger(before), res: l.res}
	st0, err := getStats(p.c)
	if err != nil {
		return err
	}
	before0, err := scrape()
	if err != nil {
		return err
	}
	size0, err := dirBytes(dir)
	if err != nil {
		return err
	}
	if err := timedFleet(f, nil); err != nil {
		return err
	}
	after, err := scrape()
	if err != nil {
		return err
	}
	st1, err := getStats(p.c)
	if err != nil {
		return err
	}
	size1, err := dirBytes(dir)
	if err != nil {
		return err
	}
	ops := float64(len(in.timed))
	l.httpNumbers(rec, before0, after, st0, st1, ops)
	l.set("wal.bytes_per_op", float64(size1-size0)/ops)
	_, lockSec := histDelta(before0, after, "elpc_fleet_lock_wait_seconds")
	_, poolSec := histDelta(before0, after, "elpc_solver_pool_wait_seconds")
	l.waitMs = 1000 * (lockSec + poolSec) / ops
	mutating := float64(l.res.admitted.Load()) + float64(in.count(opRelease)+in.count(opChurn))
	l.notes = append(l.notes, fmt.Sprintf("WAL appends per mutating op (admitted deploy items, releases, churn batches): %.4g",
		counterDelta(before0, after, "elpc_wal_appends_total")/mutating))

	replay := newRecorder()
	var coreSec float64
	onWall, err := func() (time.Duration, error) {
		b, err := scrape()
		if err != nil {
			return 0, err
		}
		w, err := replayFleet(in, killed, filepath.Join(work, "data-replay-a"), true, replay)
		if err != nil {
			return 0, err
		}
		a, err := scrape()
		if err != nil {
			return 0, err
		}
		_, coreSec = histDelta(b, a, "elpc_core_solve_seconds")
		return w, nil
	}()
	if err != nil {
		return err
	}
	var walWall, plainWall time.Duration
	alloc, gcs, err := memDelta(func() error {
		var err error
		walWall, err = replayFleet(in, killed, filepath.Join(work, "data-replay-b"), true, nil)
		return err
	})
	if err != nil {
		return err
	}
	if plainWall, err = replayFleet(in, killed, filepath.Join(work, "data-replay-c"), false, nil); err != nil {
		return err
	}
	l.replayNumbers(replay.spans, ops)
	total := map[string]float64{}
	count := map[string]float64{}
	for _, s := range replay.spans {
		total[s.Name] += float64(s.dur()) / 1e6
		count[s.Name]++
	}
	l.set("fleet.deploy_ms", ratio(total["fleet.deploy"], count["fleet.deploy"]))
	l.set("fleet.release_ms", ratio(total["fleet.release"], count["fleet.release"]))
	l.set("fleet.batch_ms_per_req", ratio(total["fleet.batch"], batchSize*count["fleet.batch"]))
	l.set("fleet.slo_report_ms", ratio(total["fleet.slo_report"], count["fleet.slo_report"]))
	l.set("churn.apply_ms", ratio(total["churn.apply"], count["churn.apply"]))
	fleetMs := total["fleet.deploy"] + total["fleet.release"] + total["fleet.batch"]
	l.set("fleet.bookkeeping_ms", ratio(fleetMs-1000*coreSec, count["fleet.deploy"]+count["fleet.release"]+count["fleet.batch"]))
	l.set("wal.tax_ms", float64(walWall-plainWall)/1e6/ops)
	l.set("runtime.alloc_kb_per_op", float64(alloc)/1024/ops)
	l.set("runtime.gc_per_kop", 1000*float64(gcs)/ops)
	l.set("trace.overhead_frac", ratio(float64(onWall-walWall), float64(walWall)))
	l.notes = append(l.notes, fmt.Sprintf("replay wall: spans+WAL %v, WAL %v, no WAL %v; recoveries %v ms", onWall, walWall, plainWall, recov))
	if err := l.repairProbe(in, killed, filepath.Join(work, "data-probe")); err != nil {
		return err
	}
	return l.saveSpans(rec, replay, work, "fleet")
}

// Repair probe size: rounds of degrade then restore, over the most used
// links of the recovered fleet.
const (
	probeRounds = 16
	probeLinks  = 4
	// probeFactor is the bandwidth share a degraded link keeps: low enough
	// that most tenants on it no longer fit and are re-solved.
	probeFactor = 0.2
)

// repairProbe measures churn repair, which the timed ops leave alone: their
// churn touches only links no tenant uses (see churnEvents). On a fresh
// recovery of the killed data dir, with the WAL on, it cuts the
// bandwidth of one of the most used links and restores it, round after
// round, so the tenants on it are re-solved from their retained DP grids,
// migrated or parked, and parked ones requeued on the restore. It sets
// churn.repair_ms (per Apply) and core.warm_hit_ratio (warm hits and
// partial hits over all warm-state solves of the probe).
func (l *layerRun) repairProbe(in *fleetInputs, killed, dir string) error {
	if err := copyDir(killed, dir); err != nil {
		return err
	}
	lg, rc, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	defer lg.Close()
	r, err := fleet.Recover(rc, nil)
	if err != nil {
		return err
	}
	f := r.Manager
	pool := engine.NewPool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	f.UsePool(pool)
	f.UseWAL(lg)
	recon := churn.New(f, churn.Options{Workers: pool.Workers()})
	recon.UseWAL(lg)

	uses := newLedger(wireList(f.List())).linkUses(in.net)
	links := make([]int, 0, len(uses))
	for id := range uses {
		links = append(links, id)
	}
	sort.Slice(links, func(i, j int) bool {
		if uses[links[i]] != uses[links[j]] {
			return uses[links[i]] > uses[links[j]]
		}
		return links[i] < links[j]
	})
	if len(links) > probeLinks {
		links = links[:probeLinks]
	}
	if len(links) == 0 {
		return fmt.Errorf("repair probe: no tenant uses any link")
	}
	before, err := scrape()
	if err != nil {
		return err
	}
	var applyMs float64
	var sum churn.Record
	for k := 0; k < probeRounds; k++ {
		id := links[k%len(links)]
		for _, ev := range []model.ChurnEvent{
			{Kind: model.LinkDegrade, Link: id, Factor: probeFactor},
			{Kind: model.LinkRestore, Link: id},
		} {
			t0 := time.Now()
			cr, err := recon.Apply([]model.ChurnEvent{ev})
			applyMs += float64(time.Since(t0)) / 1e6
			if err != nil {
				return fmt.Errorf("repair probe: %w", err)
			}
			sum.Affected += cr.Affected
			sum.Resolved += cr.Resolved
			sum.Migrated += cr.Migrated
			sum.Parked += cr.Parked
			sum.Requeued += cr.Requeued
		}
	}
	after, err := scrape()
	if err != nil {
		return err
	}
	if sum.Resolved == 0 {
		return fmt.Errorf("repair probe re-solved nothing")
	}
	warm := counterDelta(before, after, "elpc_solve_warm_total")
	hit := counterDelta(before, after, `elpc_solve_warm_total{outcome="hit"}`) +
		counterDelta(before, after, `elpc_solve_warm_total{outcome="partial"}`)
	l.set("churn.repair_ms", applyMs/(2*probeRounds))
	l.set("core.warm_hit_ratio", ratio(hit, warm))
	l.notes = append(l.notes, fmt.Sprintf("repair probe on links %v: %d batches, %d affected, %d re-solved, %d migrated, %d parked, %d requeued, %v warm-state solves, %v hit or partial, %d still parked",
		links, 2*probeRounds, sum.Affected, sum.Resolved, sum.Migrated, sum.Parked, sum.Requeued, warm, hit, len(recon.Parked())))
	return nil
}

// wireList renders fleet deployments the way GET /v1/fleet does.
func wireList(ds []fleet.Deployment) []wire.Deployment {
	out := make([]wire.Deployment, len(ds))
	for i, d := range ds {
		out[i] = toWire(d)
	}
	return out
}

// toWire renders one deployment in the wire shape.
func toWire(d fleet.Deployment) wire.Deployment {
	op := "mindelay"
	if d.Objective == model.MaxFrameRate {
		op = "maxframerate"
	}
	return wire.Deployment{
		ID: d.ID, Tenant: d.Tenant, Op: op, Assignment: d.Assignment, Mapping: d.Mapping,
		DelayMs: d.DelayMs, RateFPS: d.RateFPS, ReservedFPS: d.ReservedFPS, SLO: d.SLO, Seq: d.Seq,
	}
}

// fleetReq converts a deploy body into the fleet's request form.
func fleetReq(q wire.FleetDeploy) fleet.Request {
	return fleet.Request{
		Tenant: q.Tenant, Pipeline: q.Pipeline, Src: q.Src, Dst: q.Dst, Objective: objective(q.Op),
		SLO: fleet.SLO{MaxDelayMs: q.MaxDelayMs, MinRateFPS: q.MinRateFPS, Class: fleet.Class(q.Class)},
	}
}

// replayFleet recovers the killed data dir into a fresh copy and replays
// the timed fleet ops on one goroutine through fleet.Manager and
// churn.Reconciler, with or without the WAL attached. Each op decodes its
// body, calls the layer and encodes the answer, as the handlers do.
func replayFleet(in *fleetInputs, killed, dir string, useWAL bool, rec *recorder) (time.Duration, error) {
	if err := copyDir(killed, dir); err != nil {
		return 0, err
	}
	lg, rc, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return 0, err
	}
	defer lg.Close()
	r, err := fleet.Recover(rc, nil)
	if err != nil {
		return 0, err
	}
	f := r.Manager
	pool := engine.NewPool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	jr := journal.New(0)
	f.UsePool(pool)
	f.UseJournal(jr)
	recon := churn.New(f, churn.Options{Workers: pool.Workers(), Journal: jr})
	if useWAL {
		f.UseWAL(lg)
		recon.UseWAL(lg)
	}
	led := newLedger(wireList(f.List()))
	runner := &fleetRunner{in: in, led: led}
	encode := func(v any) error {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}
	// After a deploy the handlers hand preempted tenants to the reconciler,
	// and after every change they re-score the fleet's SLOs.
	drain := func(root, i int) {
		sp := rec.begin("fleet.drain_preempted", root, i)
		recon.AdoptPreempted()
		rec.end(sp)
	}
	sloReport := func(root, i int) {
		sp := rec.begin("fleet.slo_report", root, i)
		f.SLOReport()
		rec.end(sp)
	}
	t0 := time.Now()
	for i, op := range in.timed {
		root := rec.begin("op", -1, i)
		var out any
		switch op.kind {
		case opDeploy:
			var q wire.FleetDeploy
			sp := rec.begin("service.decode", root, i)
			err = json.Unmarshal(op.body, &q)
			rec.end(sp)
			if err != nil {
				return 0, err
			}
			sp = rec.begin("fleet.deploy", root, i)
			d, derr := f.Deploy(fleetReq(q))
			rec.end(sp)
			if derr == nil {
				drain(root, i)
				sloReport(root, i)
				w := toWire(d)
				out = w
				err = led.add(w)
			} else {
				out = wire.ErrorEnvelope{Error: wire.Error{Code: wire.CodeConflict, Message: derr.Error()}}
			}
		case opBatch:
			var q wire.DeployBatch
			sp := rec.begin("service.decode", root, i)
			err = json.Unmarshal(op.body, &q)
			rec.end(sp)
			if err != nil {
				return 0, err
			}
			reqs := make([]fleet.Request, len(q.Requests))
			for j, x := range q.Requests {
				reqs[j] = fleetReq(x)
			}
			sp = rec.begin("fleet.batch", root, i)
			outcomes := f.DeployBatch(reqs)
			rec.end(sp)
			drain(root, i)
			sloReport(root, i)
			resp := wire.DeployBatchResponse{Results: make([]wire.DeployBatchItem, len(outcomes))}
			for j, o := range outcomes {
				resp.Results[j].Index = o.Index
				if o.Err != nil {
					resp.Results[j].Error = &wire.Error{Code: wire.CodeConflict, Message: o.Err.Error()}
					continue
				}
				w := toWire(o.Deployment)
				resp.Results[j].Deployment = &w
				resp.Admitted++
				if err = led.add(w); err != nil {
					break
				}
			}
			out = resp
		case opRelease:
			id, ok := led.takeOldest()
			if !ok {
				return 0, fmt.Errorf("replay: no resident deployment to release")
			}
			var q wire.FleetRelease
			sp := rec.begin("service.decode", root, i)
			err = json.Unmarshal([]byte(`{"id":`+strconv.Quote(id)+`}`), &q)
			rec.end(sp)
			if err != nil {
				return 0, err
			}
			sp = rec.begin("fleet.release", root, i)
			err = f.Release(q.ID)
			rec.end(sp)
			if err == nil {
				sloReport(root, i)
			}
			led.released(id, err == nil)
			out = struct {
				Released string `json:"released"`
			}{q.ID}
		case opChurn:
			evs, cerr := runner.churnEvents(op.pick)
			if cerr != nil {
				return 0, cerr
			}
			body, merr := json.Marshal(wire.Events{Events: evs})
			if merr != nil {
				return 0, merr
			}
			var q wire.Events
			sp := rec.begin("service.decode", root, i)
			err = json.Unmarshal(body, &q)
			rec.end(sp)
			if err != nil {
				return 0, err
			}
			sp = rec.begin("churn.apply", root, i)
			var cr churn.Record
			cr, err = recon.Apply(q.Events)
			rec.end(sp)
			if err == nil {
				sloReport(root, i)
			}
			out = cr
		}
		if err != nil {
			return 0, fmt.Errorf("replay op %d (%s): %w", i, op.kind, err)
		}
		sp := rec.begin("service.encode", root, i)
		err = encode(out)
		rec.end(sp)
		rec.end(root)
		if err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}
