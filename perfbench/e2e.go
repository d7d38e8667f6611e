package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"elpc/internal/churn"
	"elpc/internal/model"
	"elpc/internal/service/wire"
)

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 5

// noSnapshots keeps the snapshot loop from firing during a run: it is
// driven by a one-second ticker, so snapshots would land at different ops
// in different runs. The data dir still starts from one snapshot, taken at
// a clean shutdown, so recovery reads a snapshot and replays a log suffix.
const noSnapshots = "1000000000"

// e2e is what one end-to-end run measured.
type e2e struct {
	setups []float64
	// lat and failed are indexed by op; the timed ops run in consecutive
	// blocks (blockCount), whose wall and server CPU times are kept apart.
	lat         []float64
	failed      []bool
	wall        []time.Duration
	cpu         []time.Duration
	rssMB       float64
	tally       tally
	fleet       bool
	deployItems atomic.Int64
	admitted    atomic.Int64
	resident    int
	// finalErr is a whole-run check that failed after the timed ops: the
	// fleet list against the ledger.
	finalErr error
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newE2E(ops int, fleet bool) *e2e {
	return &e2e{lat: make([]float64, ops), failed: make([]bool, ops), fleet: fleet}
}

// runBlocks runs the timed ops block by block, each a closed loop of its
// own, and records every block's wall time and the server CPU time it cost
// (cpu reads the server's CPU clock; nil skips it).
func (r *e2e) runBlocks(cpu func() (time.Duration, error), op func(i int) error) error {
	n := len(r.lat)
	nb := blockCount(n)
	for b := 0; b < nb; b++ {
		lo, hi := b*n/nb, (b+1)*n/nb
		var c0, c1 time.Duration
		var err error
		if cpu != nil {
			if c0, err = cpu(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		err = closedLoop(hi-lo, conns, func(j int) {
			err := op(lo + j)
			if errors.Is(err, errNeedRef) {
				return // the caller settles it after the last block
			}
			r.failed[lo+j] = err != nil
			r.tally.record(err)
		})
		r.wall = append(r.wall, time.Since(t0))
		if err != nil {
			return err
		}
		if cpu != nil {
			if c1, err = cpu(); err != nil {
				return err
			}
		}
		r.cpu = append(r.cpu, c1-c0)
	}
	return nil
}

// metrics computes the end-to-end metrics: timings are medians over the
// blocks; notes describes them for the human reading the output.
func (r *e2e) metrics() (map[string]metric, []string, error) {
	n := len(r.lat)
	nb := blockCount(n)
	var p50s, p99s, thr, cpu []float64
	var total time.Duration
	for b := 0; b < nb; b++ {
		lo, hi := b*n/nb, (b+1)*n/nb
		lat := append([]float64(nil), r.lat[lo:hi]...)
		sort.Float64s(lat)
		p50, err := percentile(lat, 0.50)
		if err != nil {
			return nil, nil, err
		}
		p99, err := percentile(lat, 0.99)
		if err != nil {
			return nil, nil, err
		}
		ok := 0
		for _, f := range r.failed[lo:hi] {
			if !f {
				ok++
			}
		}
		p50s = append(p50s, p50)
		p99s = append(p99s, p99)
		thr = append(thr, float64(ok)/r.wall[b].Seconds())
		cpu = append(cpu, float64(r.cpu[b])/float64(time.Millisecond)/float64(hi-lo))
		total += r.wall[b]
	}
	admit := 1.0 // the plan workloads send no deploy requests, so refuse none
	if r.fleet {
		admit = ratio(float64(r.admitted.Load()), float64(r.deployItems.Load()))
	}
	m := map[string]metric{
		"setup_s":        {median(r.setups), "s"},
		"p50_ms":         {median(p50s), "ms"},
		"p99_ms":         {median(p99s), "ms"},
		"throughput_ops": {median(thr), "1/s"},
		"cpu_ms_per_op":  {median(cpu), "ms"},
		"peak_rss_mb":    {r.rssMB, "MB"},
		"ok_frac":        {r.tally.okFrac(), "ratio"},
		"admit_frac":     {admit, "ratio"},
	}
	per := n / nb
	notes := []string{
		fmt.Sprintf("timed ops %d in %.3f s on %d connections, as %d blocks of %d or more; each block's p99 has at least %d samples beyond it",
			n, total.Seconds(), conns, nb, per, per-int(math.Ceil(0.99*float64(per)))),
		fmt.Sprintf("per block, in run order: p50_ms %.4g, p99_ms %.4g, throughput_ops %.4g, cpu_ms_per_op %.4g", p50s, p99s, thr, cpu),
		fmt.Sprintf("setup_s runs: %.4g", r.setups),
		"failures: " + r.tally.summary(),
	}
	if r.fleet {
		notes = append(notes, fmt.Sprintf("deploy items %d, admitted %d, resident at end %d", r.deployItems.Load(), r.admitted.Load(), r.resident))
	}
	if r.finalErr != nil {
		notes = append(notes, "final check failed: "+r.finalErr.Error())
	}
	return m, notes, nil
}

// waitReady polls the server until path answers 200, the server exits or
// the deadline passes, and returns the answer.
func waitReady(c *client, s *server, path string) ([]byte, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		r := c.do(http.MethodGet, path)
		if r.err == nil && r.status == http.StatusOK {
			return r.body, nil
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("server exited before answering %s", path)
		default:
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("server not ready on %s: status %d, %v", path, r.status, r.err)
		}
		time.Sleep(time.Millisecond)
	}
}

// runPlanE2E runs a plan workload against a real elpcd.
func runPlanE2E(bin, work string, in *planInputs) (*e2e, error) {
	res := newE2E(len(in.timed), false)
	logPath := filepath.Join(work, "elpcd.log")
	var srv *server
	var c *client
	defer func() {
		if srv != nil {
			srv.stop(syscall.SIGKILL)
		}
	}()
	for k := 0; k < setupRuns; k++ {
		if srv != nil {
			srv.stop(syscall.SIGKILL)
			c.close()
		}
		start := time.Now()
		s, err := startServer(bin, logPath)
		if err != nil {
			return nil, err
		}
		srv, c = s, newClient(s.base)
		if _, err := waitReady(c, srv, "/healthz"); err != nil {
			return nil, err
		}
		var mu sync.Mutex
		var werr error
		err = closedLoop(len(in.warm), conns, func(i int) {
			it := in.warm[i]
			r := c.do(http.MethodPost, "/v1/"+it.op, it.head, it.tail)
			if err := judge(r, func(st int, b []byte) error { return checkPlan(it, false, st, b) }); err != nil && !errors.Is(err, errNeedRef) {
				mu.Lock()
				werr = fmt.Errorf("warm-up op %d: %w", i, err)
				mu.Unlock()
			}
		})
		if err == nil {
			err = werr
		}
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, time.Since(start).Seconds())
	}
	defer c.close()

	if err := timedPlan(c, in, res, srv.cpuTime); err != nil {
		return nil, err
	}
	var err error
	if res.rssMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	return res, nil
}

// timedPlan runs the timed plan ops and checks every answer. A 422 on a
// problem outside the reference sample is settled after the last block,
// once a reference solve no longer competes with the server for the CPU.
func timedPlan(c *client, in *planInputs, res *e2e, cpu func() (time.Duration, error)) error {
	type late struct {
		i int
		r reply
	}
	var mu sync.Mutex
	var deferred []late
	err := res.runBlocks(cpu, func(i int) error {
		it := in.timed[i]
		r := c.doOp(i, http.MethodPost, "/v1/"+it.op, it.head, it.tail)
		res.lat[i] = float64(r.latency) / float64(time.Millisecond)
		err := judge(r, func(st int, b []byte) error { return checkPlan(it, in.wantCached, st, b) })
		if errors.Is(err, errNeedRef) {
			mu.Lock()
			deferred = append(deferred, late{i, r})
			mu.Unlock()
		}
		return err
	})
	if err != nil {
		return err
	}
	for _, d := range deferred {
		it := in.timed[d.i]
		it.ref = reference(it)
		err := checkPlan(it, in.wantCached, d.r.status, d.r.body)
		res.failed[d.i] = err != nil
		res.tally.record(err)
	}
	return nil
}

// fleetRunner sends fleet-durable ops and keeps the client's ledger.
type fleetRunner struct {
	c   *client
	in  *fleetInputs
	led *ledger
	res *e2e
	// gate lets churn batches run alone: every other op holds it shared,
	// so a churn op sees a ledger no request in flight can change.
	gate sync.RWMutex
}

// fetchFleet fetches the server's deployments.
func fetchFleet(c *client) ([]wire.Deployment, error) {
	r := c.do(http.MethodGet, "/v1/fleet")
	if r.err != nil || r.status != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/fleet: status %d, %v", r.status, r.err)
	}
	var fl wire.FleetList
	if err := json.Unmarshal(r.body, &fl); err != nil {
		return nil, fmt.Errorf("GET /v1/fleet: %w", err)
	}
	return fl.Deployments, nil
}

// rejected reports whether a non-200 answer is an admission rejection,
// which is a correct answer for a saturated fleet.
func rejected(status int, body []byte) error {
	var env wire.ErrorEnvelope
	if status == http.StatusConflict && json.Unmarshal(body, &env) == nil && env.Error.Code == wire.CodeConflict {
		return nil
	}
	return fmt.Errorf("wrong answer: status %d: %s", status, trim(body))
}

// admit checks and records one admitted deployment.
func (f *fleetRunner) admit(tmpl int, d wire.Deployment) error {
	if err := checkDeployment(f.in.net, f.in.templates[tmpl].req, d); err != nil {
		return err
	}
	f.res.admitted.Add(1)
	return f.led.add(d)
}

// run sends one op and returns its reply (for its latency) and outcome.
func (f *fleetRunner) run(i int, op fleetOp) (reply, error) {
	if op.kind == opChurn {
		f.gate.Lock()
		defer f.gate.Unlock()
	} else {
		f.gate.RLock()
		defer f.gate.RUnlock()
	}
	switch op.kind {
	case opDeploy:
		f.res.deployItems.Add(1)
		r := f.c.doOp(i, http.MethodPost, "/v1/fleet/deploy", op.body)
		return r, judge(r, func(st int, b []byte) error {
			if st != http.StatusOK {
				return rejected(st, b)
			}
			var d wire.Deployment
			if err := json.Unmarshal(b, &d); err != nil {
				return fmt.Errorf("wrong answer: %v", err)
			}
			return f.admit(op.tmpls[0], d)
		})
	case opRelease:
		id, ok := f.led.takeOldest()
		if !ok {
			return reply{}, fmt.Errorf("wrong answer: no resident deployment to release")
		}
		r := f.c.doOp(i, http.MethodPost, "/v1/fleet/release", []byte(`{"id":`+strconv.Quote(id)+`}`))
		err := judge(r, func(st int, b []byte) error {
			var out struct{ Released string }
			if st != http.StatusOK || json.Unmarshal(b, &out) != nil || out.Released != id {
				return fmt.Errorf("wrong answer: release %s: status %d: %s", id, st, trim(b))
			}
			return nil
		})
		f.led.released(id, err == nil)
		return r, err
	case opBatch:
		f.res.deployItems.Add(int64(len(op.tmpls)))
		r := f.c.doOp(i, http.MethodPost, "/v1/fleet/deploy-batch", op.body)
		return r, judge(r, func(st int, b []byte) error {
			var out wire.DeployBatchResponse
			if st != http.StatusOK || json.Unmarshal(b, &out) != nil || len(out.Results) != len(op.tmpls) {
				return fmt.Errorf("wrong answer: deploy-batch: status %d: %s", st, trim(b))
			}
			admitted := 0
			for _, it := range out.Results {
				switch {
				case it.Index < 0 || it.Index >= len(op.tmpls):
					return fmt.Errorf("wrong answer: deploy-batch item index %d", it.Index)
				case it.Deployment != nil:
					admitted++
					if err := f.admit(op.tmpls[it.Index], *it.Deployment); err != nil {
						return err
					}
				case it.Error == nil || it.Error.Code != wire.CodeConflict:
					return fmt.Errorf("wrong answer: deploy-batch item %d: %+v", it.Index, it.Error)
				}
			}
			if admitted != out.Admitted {
				return fmt.Errorf("wrong answer: deploy-batch says %d admitted, items show %d", out.Admitted, admitted)
			}
			return nil
		})
	case opChurn:
		evs, err := f.churnEvents(op.pick)
		if err != nil {
			return reply{}, err
		}
		body, err := json.Marshal(wire.Events{Events: evs})
		if err != nil {
			return reply{}, err
		}
		r := f.c.doOp(i, http.MethodPost, "/v1/events", body)
		return r, judge(r, func(st int, b []byte) error {
			var rec churn.Record
			if st != http.StatusOK || json.Unmarshal(b, &rec) != nil {
				return fmt.Errorf("wrong answer: events: status %d: %s", st, trim(b))
			}
			if rec.Migrated != 0 || rec.Parked != 0 || rec.Requeued != 0 {
				return fmt.Errorf("wrong answer: churn %v left every placement valid but displaced tenants: %+v", evs, rec)
			}
			return nil
		})
	}
	return reply{}, fmt.Errorf("unknown op kind %d", op.kind)
}

// churnEvents picks a churn batch: a link no resident deployment uses is
// degraded to half its bandwidth and restored, or drifted down to 80% and
// back to nominal (a drift by 2 clamps at nominal), within one batch. The
// batch goes through the whole apply, identify, repair and log path, and no
// tenant is displaced, so the ledger stays exact. Batches that touch used
// elements are left out: repair can park a tenant (a node taken down, and
// also a link drifted back up to nominal after a tenant landed on it at
// 80%), and the reconciler's background loop re-admits parked tenants under
// new ids at times the client cannot see. The caller holds the gate
// exclusively.
func (f *fleetRunner) churnEvents(pick uint64) ([]model.ChurnEvent, error) {
	links := f.led.linkUses(f.in.net)
	var free []int
	for id := 0; id < f.in.net.M(); id++ {
		if links[id] == 0 {
			free = append(free, id)
		}
	}
	if len(free) == 0 {
		return nil, fmt.Errorf("no unused link for churn")
	}
	id := free[(pick/2)%uint64(len(free))]
	if pick%2 == 0 {
		return []model.ChurnEvent{
			{Kind: model.LinkDegrade, Link: id, Factor: 0.5},
			{Kind: model.LinkRestore, Link: id},
		}, nil
	}
	return []model.ChurnEvent{
		{Kind: model.CapacityDrift, Target: model.TargetLink, Link: id, Factor: 0.8},
		{Kind: model.CapacityDrift, Target: model.TargetLink, Link: id, Factor: 2},
	}, nil
}

// sequential runs ops one at a time and stops at the first failure.
func (f *fleetRunner) sequential(phase string, ops []fleetOp) error {
	for i, op := range ops {
		if _, err := f.run(-1, op); err != nil {
			return fmt.Errorf("%s op %d (%s): %w", phase, i, op.kind, err)
		}
	}
	return nil
}

// buildDataDir prepares the data dir recovery starts from and returns the
// fleet it holds. The history is replayed into a fresh server, which shuts
// down cleanly and so writes one compacted snapshot; a second server logs
// the suffix on top and is killed while idle.
func buildDataDir(bin, work, dir string, in *fleetInputs) ([]wire.Deployment, error) {
	logPath := filepath.Join(work, "elpcd-build.log")
	res := &e2e{fleet: true}
	led := newLedger(nil)
	for phase, ops := range [][]fleetOp{in.history, in.suffix} {
		s, err := startServer(bin, logPath, "-data", dir, "-snapshot-every", noSnapshots)
		if err != nil {
			return nil, err
		}
		c := newClient(s.base)
		err = func() error {
			if _, err := waitReady(c, s, "/healthz"); err != nil {
				return err
			}
			if phase == 0 {
				if r := c.do(http.MethodPost, "/v1/fleet/network", in.install); r.err != nil || r.status != http.StatusOK {
					return fmt.Errorf("installing the network: status %d, %v: %s", r.status, r.err, trim(r.body))
				}
			} else {
				got, err := fetchFleet(c)
				if err != nil {
					return err
				}
				if err := sameFleet(led.list(), got); err != nil {
					return fmt.Errorf("after clean restart: %w", err)
				}
			}
			f := &fleetRunner{c: c, in: in, led: led, res: res}
			return f.sequential([]string{"history", "suffix"}[phase], ops)
		}()
		c.close()
		if phase == 0 {
			s.stop(syscall.SIGTERM)
		} else {
			s.stop(syscall.SIGKILL)
		}
		if err != nil {
			return nil, err
		}
	}
	return led.list(), nil
}

// runFleetE2E runs fleet-durable against a real elpcd with -data.
func runFleetE2E(bin, work string, in *fleetInputs) (*e2e, error) {
	base := filepath.Join(work, "data")
	before, err := buildDataDir(bin, work, base, in)
	if err != nil {
		return nil, err
	}
	res := newE2E(len(in.timed), true)
	logPath := filepath.Join(work, "elpcd.log")
	var srv *server
	var c *client
	defer func() {
		if srv != nil {
			srv.stop(syscall.SIGKILL)
		}
	}()
	var dir string
	for k := 0; k < setupRuns; k++ {
		if srv != nil {
			srv.stop(syscall.SIGKILL)
			c.close()
		}
		dir = filepath.Join(work, fmt.Sprintf("data-%d", k))
		if err := copyDir(base, dir); err != nil {
			return nil, err
		}
		start := time.Now()
		s, err := startServer(bin, logPath, "-data", dir, "-snapshot-every", noSnapshots)
		if err != nil {
			return nil, err
		}
		srv, c = s, newClient(s.base)
		body, err := waitReady(c, srv, "/v1/fleet")
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		var fl wire.FleetList
		if err := json.Unmarshal(body, &fl); err != nil {
			return nil, err
		}
		if err := sameFleet(before, fl.Deployments); err != nil {
			return nil, fmt.Errorf("recovered fleet differs from the fleet before the kill: %w", err)
		}
		res.setups = append(res.setups, elapsed.Seconds())
	}
	defer c.close()

	f := &fleetRunner{c: c, in: in, led: newLedger(before), res: res}
	if err := timedFleet(f, srv.cpuTime); err != nil {
		return nil, err
	}
	if res.rssMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	return res, nil
}

// timedFleet runs the timed fleet ops, then checks the server's fleet
// against the ledger.
func timedFleet(f *fleetRunner, cpu func() (time.Duration, error)) error {
	res := f.res
	err := res.runBlocks(cpu, func(i int) error {
		r, err := f.run(i, f.in.timed[i])
		res.lat[i] = float64(r.latency) / float64(time.Millisecond)
		return err
	})
	if err != nil {
		return err
	}
	got, err := fetchFleet(f.c)
	if err != nil {
		return err
	}
	res.resident = len(got)
	res.finalErr = sameFleet(f.led.list(), got)
	return nil
}
