package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"elpc/internal/model"
	"elpc/internal/service"
	"elpc/internal/service/wire"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	sorted := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	if _, err := percentile(sorted(999), 0.99); err == nil {
		t.Error("p99 of 999 samples (9 beyond it) was reported")
	}
	v, err := percentile(sorted(1000), 0.99)
	if err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with 10 samples beyond", v, err)
	}
	if v, err := percentile(sorted(5), 0.5); err != nil || v != 3 {
		t.Errorf("p50 of 1..5 = %v, %v; want 3", v, err)
	}
}

type timeoutErr struct{}

func (timeoutErr) Error() string   { return "deadline exceeded" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

func TestFailureAccounting(t *testing.T) {
	wrong := func(int, []byte) error { return fmt.Errorf("wrong answer: objective differs") }
	right := func(int, []byte) error { return nil }
	conflict, err := json.Marshal(wire.ErrorEnvelope{Error: wire.Error{Code: wire.CodeConflict}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		r     reply
		check func(int, []byte) error
		fail  bool
	}{
		{"shed", reply{status: http.StatusTooManyRequests}, right, true},
		{"server error", reply{status: http.StatusServiceUnavailable}, right, true},
		{"internal error", reply{status: http.StatusInternalServerError}, right, true},
		{"timeout", reply{err: timeoutErr{}}, right, true},
		{"transport", reply{err: io.ErrUnexpectedEOF}, right, true},
		{"wrong answer", reply{status: http.StatusOK}, wrong, true},
		{"answered", reply{status: http.StatusOK}, right, false},
		{"admission rejection", reply{status: http.StatusConflict, body: conflict}, rejected, false},
		{"other 409", reply{status: http.StatusConflict, body: []byte(`{}`)}, rejected, true},
	}
	var tl tally
	want := 0
	for _, c := range cases {
		err := judge(c.r, c.check)
		if (err != nil) != c.fail {
			t.Errorf("%s: judged %v, want failure=%v", c.name, err, c.fail)
		}
		if c.fail {
			want++
		}
		tl.record(err)
	}
	if tl.attempted != len(cases) || tl.failed != want {
		t.Errorf("tally %d attempted %d failed, want %d and %d", tl.attempted, tl.failed, len(cases), want)
	}
	if got := tl.okFrac(); got != float64(len(cases)-want)/float64(len(cases)) {
		t.Errorf("okFrac %v", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past the parent
		{Name: "d", Start: 15, End: 20, Parent: 1},
	}
	self := selfTimes(spans)
	// op: 100 minus the union [10,60] and [90,100].
	want := []int64{40, 25, 30, 30, 5}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
	if byName := layerSelf(spans); byName["op"] != 40/1e6 || byName["b"] != 30/1e6 {
		t.Errorf("layerSelf op %v b %v", byName["op"], byName["b"])
	}
}

func TestRestartCheckFlagsMismatch(t *testing.T) {
	list := []wire.Deployment{
		{ID: "d-000001", Tenant: "t01", Op: "mindelay", Assignment: []model.NodeID{0, 3, 4}, Seq: 1},
		{ID: "d-000002", Tenant: "t02", Op: "maxframerate", Assignment: []model.NodeID{1, 2, 5}, Seq: 2},
	}
	clone := func() []wire.Deployment {
		out := make([]wire.Deployment, len(list))
		for i, d := range list {
			d.Assignment = append([]model.NodeID(nil), d.Assignment...)
			out[i] = d
		}
		return out
	}
	if err := sameFleet(list, clone()); err != nil {
		t.Fatalf("identical lists: %v", err)
	}
	moved := clone()
	moved[1].Assignment[1] = 7
	lost := clone()[:1]
	renamed := clone()
	renamed[0].ID = "d-000009"
	extra := append(clone(), wire.Deployment{ID: "d-000003", Seq: 3})
	for name, got := range map[string][]wire.Deployment{"moved": moved, "lost": lost, "renamed": renamed, "extra": extra} {
		if err := sameFleet(list, got); err == nil {
			t.Errorf("%s deployment not flagged", name)
		}
	}
}

// corrupting wraps a handler and rewrites the delay of its nth planning
// answer.
func corrupting(next http.Handler, nth int64) http.Handler {
	var count atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		next.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if strings.HasPrefix(r.URL.Path, "/v1/") && r.Method == http.MethodPost {
			if count.Add(1) == nth {
				var m map[string]any
				if json.Unmarshal(body, &m) == nil {
					m["delay_ms"] = m["delay_ms"].(float64) * 0.9
					body, _ = json.Marshal(m)
				}
			}
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(body) // a failed write fails the op, which the test sees
	})
}

func TestCorruptedAnswerIsCaught(t *testing.T) {
	in, err := buildPlanHit(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	in.timed = in.timed[:100]
	s := service.NewServer(service.Options{})
	defer s.Close()
	for _, nth := range []int64{0, int64(len(in.warm)) + 17} {
		ts := httptest.NewServer(corrupting(s.Handler(), nth))
		c := newClient(ts.URL)
		for _, it := range in.warm {
			c.do(http.MethodPost, "/v1/"+it.op, it.head, it.tail)
		}
		res := newE2E(len(in.timed), false)
		if err := timedPlan(c, in, res, nil); err != nil {
			t.Fatal(err)
		}
		c.close()
		ts.Close()
		want := 0
		if nth > 0 {
			want = 1
		}
		if res.tally.failed != want {
			t.Errorf("corrupting answer %d: %d failed (%s), want %d", nth, res.tally.failed, res.tally.summary(), want)
		}
	}
}

func TestCheckPlan(t *testing.T) {
	in, err := buildPlanHit(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	solver := service.NewSolver(service.Options{})
	defer solver.Close()
	it := in.warm[0]
	res, err := solver.Solve(context.Background(), service.Request{Op: service.Op(it.op), Problem: it.prob})
	if err != nil {
		t.Fatal(err)
	}
	good, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPlan(it, false, http.StatusOK, good); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	for name, mutate := range map[string]func(r *service.Result){
		"cached flag": func(r *service.Result) { r.Cached = true },
		"delay":       func(r *service.Result) { r.DelayMs *= 1.01 },
		"bottleneck":  func(r *service.Result) { r.BottleneckMs *= 1.01 },
		"op":          func(r *service.Result) { r.Op = "front" },
		"assignment":  func(r *service.Result) { r.Assignment = r.Assignment[1:] },
	} {
		bad := *res
		bad.Assignment = append([]model.NodeID(nil), res.Assignment...)
		mutate(&bad)
		b, err := json.Marshal(&bad)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkPlan(it, false, http.StatusOK, b); err == nil {
			t.Errorf("corrupted %s accepted", name)
		}
	}
	if err := checkPlan(it, false, http.StatusUnprocessableEntity, nil); err == nil {
		t.Error("422 on a problem the reference solves accepted")
	}
}

func TestCheckDeployment(t *testing.T) {
	in, err := buildFleet(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := service.NewServer(service.Options{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := newClient(ts.URL)
	defer c.close()
	if r := c.do(http.MethodPost, "/v1/fleet/network", in.install); r.status != http.StatusOK {
		t.Fatalf("install: %d %s", r.status, r.body)
	}
	q := in.templates[1].req // an interactive tenant with a delay SLO
	r := c.do(http.MethodPost, "/v1/fleet/deploy", in.templates[1].body)
	var d wire.Deployment
	if r.status != http.StatusOK || json.Unmarshal(r.body, &d) != nil {
		t.Fatalf("deploy: %d %s", r.status, r.body)
	}
	if err := checkDeployment(in.net, q, d); err != nil {
		t.Fatalf("admitted deployment rejected: %v", err)
	}
	for name, mutate := range map[string]func(d *wire.Deployment){
		"delay over SLO": func(d *wire.Deployment) { d.DelayMs = 2 * q.MaxDelayMs },
		"rate under SLO": func(d *wire.Deployment) { d.RateFPS = q.MinRateFPS / 2 },
		"tenant":         func(d *wire.Deployment) { d.Tenant = "someone" },
		"delay too good": func(d *wire.Deployment) { d.DelayMs /= 10 },
		"bad mapping":    func(d *wire.Deployment) { d.Assignment = d.Assignment[:1] },
	} {
		bad := d
		bad.Assignment = append([]model.NodeID(nil), d.Assignment...)
		mutate(&bad)
		if err := checkDeployment(in.net, q, bad); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestStreamIsDeterministic(t *testing.T) {
	for _, w := range []string{planHit, planCold, fleetDurable} {
		a, err := streamDigest(w, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := streamDigest(w, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		c, err := streamDigest(w, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: seed 1 gave two different op streams", w)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same op stream", w)
		}
	}
}

func TestOpCountIsFixedPerRunLength(t *testing.T) {
	for _, w := range []string{planHit, planCold, fleetDurable} {
		n := opCount(w, 20, 7)
		nb := blockCount(n)
		if n%7 != 0 || nb < minBlocks || n/nb < minBlockOps || n != opCount(w, 20, 7) {
			t.Errorf("%s: %d ops in %d blocks", w, n, nb)
		}
	}
}

func TestParseProc(t *testing.T) {
	stat := "4242 (elpcd (x)) S 1 4242 4242 0 -1 4194560 900 0 0 0 250 37 0 0 20 0 9 0 100 0 0"
	cpu, err := parseCPU(stat)
	if err != nil || cpu != 287*clockTick {
		t.Errorf("parseCPU = %v, %v; want %v", cpu, err, 287*clockTick)
	}
	mb, err := parseHWM(strings.NewReader("Name:\telpcd\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n"))
	if err != nil || mb != 20 {
		t.Errorf("parseHWM = %v, %v; want 20", mb, err)
	}
}

func TestRegistryDeltas(t *testing.T) {
	before, err := parseExposition(bytes.NewBufferString(`# TYPE elpc_x_seconds histogram
elpc_x_seconds_bucket{le="+Inf"} 2
elpc_x_seconds_sum 0.5
elpc_x_seconds_count 2
elpc_w_total{outcome="hit"} 3
elpc_w_total{outcome="miss"} 1
`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseExposition(bytes.NewBufferString(`elpc_x_seconds_bucket{le="+Inf"} 5
elpc_x_seconds_sum 1.25
elpc_x_seconds_count 5
elpc_w_total{outcome="hit"} 7
elpc_w_total{outcome="miss"} 2
elpc_w_total{outcome="new"} 4
`))
	if err != nil {
		t.Fatal(err)
	}
	if n, s := histDelta(before, after, "elpc_x_seconds"); n != 3 || s != 0.75 {
		t.Errorf("histDelta = %v, %v", n, s)
	}
	if d := counterDelta(before, after, "elpc_w_total"); d != 9 {
		t.Errorf("family delta = %v, want 9", d)
	}
	if d := counterDelta(before, after, `elpc_w_total{outcome="hit"}`); d != 4 {
		t.Errorf("series delta = %v, want 4", d)
	}
}
