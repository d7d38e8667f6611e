package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"elpc/internal/core"
	"elpc/internal/model"
	"elpc/internal/service/wire"
	"elpc/internal/sim"
)

func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(opt)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func wireFor(p *model.Problem) wireRequest {
	return wireRequest{
		Network:  &model.NetworkJSON{Nodes: p.Net.Nodes, Links: p.Net.Links},
		Pipeline: &model.PipelineJSON{Modules: p.Pipe.Modules},
		Src:      p.Src,
		Dst:      p.Dst,
	}
}

func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response (status %d): %v", resp.StatusCode, err)
		}
	}
	return resp
}

func TestServerMinDelayEndToEnd(t *testing.T) {
	p := buildSuiteProblem(t, 0)
	want, err := core.MinDelay(p)
	if err != nil {
		t.Fatal(err)
	}
	wantDelay := model.TotalDelay(p.Net, p.Pipe, want, p.Cost)

	_, ts := newTestServer(t, Options{})
	var res Result
	resp := postJSON(t, ts.URL+"/v1/mindelay", wireFor(p), &res)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if math.Abs(res.DelayMs-wantDelay) > 1e-9 {
		t.Errorf("server delay %.6f != direct MinDelay %.6f", res.DelayMs, wantDelay)
	}
	if res.Cached {
		t.Error("first request reported cached")
	}

	// The identical request is served from the cache.
	var res2 Result
	postJSON(t, ts.URL+"/v1/mindelay", wireFor(p), &res2)
	if !res2.Cached || res2.DelayMs != res.DelayMs {
		t.Errorf("second request: cached=%v delay=%v, want cache hit with same delay", res2.Cached, res2.DelayMs)
	}

	var st statsResponse
	resp, err2 := http.Get(ts.URL + "/v1/stats")
	if err2 != nil {
		t.Fatal(err2)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Solver.Cache.Hits != 1 || st.Solver.Cache.Misses != 1 {
		t.Errorf("cache counters = %+v, want 1 hit / 1 miss", st.Solver.Cache)
	}
}

func TestServerMaxFrameRateEndToEnd(t *testing.T) {
	p := buildSuiteProblem(t, 0)
	want, err := core.MaxFrameRate(p)
	if err != nil {
		t.Fatal(err)
	}
	wantRate := model.FrameRate(model.Bottleneck(p.Net, p.Pipe, want))

	_, ts := newTestServer(t, Options{})
	var res Result
	resp := postJSON(t, ts.URL+"/v1/maxframerate", wireFor(p), &res)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if math.Abs(res.RateFPS-wantRate) > 1e-9 {
		t.Errorf("server rate %.6f != direct MaxFrameRate %.6f", res.RateFPS, wantRate)
	}

	// Budgeted request reaches the bicriteria DP and caches separately.
	budgeted := wireFor(p)
	budgeted.DelayBudgetMs = res.DelayMs * 2
	var res2 Result
	postJSON(t, ts.URL+"/v1/maxframerate", budgeted, &res2)
	if res2.Cached {
		t.Error("budgeted request hit the unbudgeted entry")
	}
}

func TestServerFront(t *testing.T) {
	p := buildSuiteProblem(t, 0)
	_, ts := newTestServer(t, Options{})
	wire := wireFor(p)
	wire.Points = 5
	var res Result
	resp := postJSON(t, ts.URL+"/v1/front", wire, &res)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if res.Op != OpFront || len(res.Front) == 0 {
		t.Fatalf("bad front result: %+v", res)
	}
}

func TestServerSimulate(t *testing.T) {
	p := buildSuiteProblem(t, 0)
	_, ts := newTestServer(t, Options{})
	wire := wireFor(p)
	wire.Frames = 50
	var res simResponse
	resp := postJSON(t, ts.URL+"/v1/simulate", wire, &res)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if res.Plan == nil || res.Plan.Op != OpMaxFrameRate {
		t.Fatalf("missing plan in %+v", res)
	}
	predicted := sim.PredictDelay(p, model.NewMapping(res.Plan.Assignment))
	if math.Abs(res.FirstFrameDelay-predicted) > 1e-6 {
		t.Errorf("first frame delay %.6f != Eq.1 prediction %.6f", res.FirstFrameDelay, predicted)
	}
	if res.MeasuredRateFPS <= 0 || res.Events == 0 {
		t.Errorf("degenerate simulation: %+v", res)
	}
}

func TestServerBatch(t *testing.T) {
	p := buildSuiteProblem(t, 0)
	delayReq := wireFor(p)
	delayReq.Op = OpMinDelay
	rateReq := wireFor(p)
	rateReq.Op = OpMaxFrameRate
	bad := wireRequest{Op: OpMinDelay} // missing network/pipeline

	_, ts := newTestServer(t, Options{Workers: 2})
	var out struct {
		Results []batchItemWire `json:"results"`
	}
	resp := postJSON(t, ts.URL+"/v1/batch", batchWire{Requests: []wireRequest{delayReq, rateReq, bad, delayReq}}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(out.Results) != 4 {
		t.Fatalf("got %d results", len(out.Results))
	}
	if out.Results[0].Error != "" || out.Results[1].Error != "" {
		t.Errorf("valid items errored: %+v", out.Results)
	}
	if out.Results[2].Error == "" {
		t.Error("invalid item succeeded")
	}
	// Exactly one of the two identical requests does the DP work; the other
	// is served from the cache or coalesced onto the in-flight solve.
	first, dup := out.Results[0].Result, out.Results[3].Result
	if dup == nil || first == nil {
		t.Fatalf("missing results: %+v", out.Results)
	}
	if first.Cached == dup.Cached {
		t.Errorf("identical requests both cached=%v, want one leader and one follower", first.Cached)
	}
	if first.DelayMs != dup.DelayMs {
		t.Errorf("identical requests disagree: %v vs %v", first.DelayMs, dup.DelayMs)
	}
	if out.Results[0].Result.Op != OpMinDelay || out.Results[1].Result.Op != OpMaxFrameRate {
		t.Errorf("ops mixed up: %+v", out.Results)
	}
}

func TestServerBatchLimit(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	reqs := make([]wireRequest, MaxBatchRequests+1)
	resp := postJSON(t, ts.URL+"/v1/batch", batchWire{Requests: reqs}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d, want 400", resp.StatusCode)
	}
}

// TestServerBatchInvalidItem pins that an item whose network or pipeline
// fails validation rejects the whole batch as invalid_request, while a
// missing one is a per-item error (TestServerBatch).
func TestServerBatchInvalidItem(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	good := wireFor(buildSuiteProblem(t, 0))
	bad := wireFor(buildSuiteProblem(t, 0))
	links := append([]model.Link(nil), bad.Network.Links...)
	links[0].BWMbps = -1
	bad.Network = &model.NetworkJSON{Nodes: bad.Network.Nodes, Links: links}
	body, err := json.Marshal(batchWire{Requests: []wireRequest{good, bad}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env wire.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || env.Error.Code != wire.CodeInvalidRequest {
		t.Errorf("batch with an invalid network: status %d code %q, want 400 %q", resp.StatusCode, env.Error.Code, wire.CodeInvalidRequest)
	}
}

func TestServerErrorStatuses(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	// Malformed JSON body.
	resp, err := http.Post(ts.URL+"/v1/mindelay", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: status %d, want 400", resp.StatusCode)
	}

	// Infeasible problem: pipeline longer than any simple path, no reuse.
	nodes := []model.Node{{ID: 0, Power: 100}, {ID: 1, Power: 100}}
	links := []model.Link{{ID: 0, From: 0, To: 1, BWMbps: 10}}
	net, err := model.NewNetwork(nodes, links)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := model.NewPipeline([]model.Module{
		{ID: 0, InBytes: 10, OutBytes: 10},
		{ID: 1, Complexity: 1, InBytes: 10, OutBytes: 10},
		{ID: 2, Complexity: 1, InBytes: 10, OutBytes: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	infeasible := wireFor(&model.Problem{Net: net, Pipe: pipe, Src: 0, Dst: 1})
	resp2 := postJSON(t, ts.URL+"/v1/maxframerate", infeasible, nil)
	if resp2.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("infeasible: status %d, want 422", resp2.StatusCode)
	}

	// Wrong method.
	resp3, err := http.Get(ts.URL + "/v1/mindelay")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on planning endpoint: status %d, want 405", resp3.StatusCode)
	}
}

func TestServerHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
}

func TestServerSharedSolverServesEmbeddersAndHTTP(t *testing.T) {
	p := buildSuiteProblem(t, 1)
	srv, ts := newTestServer(t, Options{})
	// Warm the cache in-process...
	if _, err := srv.Solver().Solve(context.Background(), Request{Op: OpMinDelay, Problem: p}); err != nil {
		t.Fatal(err)
	}
	// ...and observe the hit over HTTP.
	var res Result
	postJSON(t, ts.URL+"/v1/mindelay", wireFor(p), &res)
	if !res.Cached {
		t.Error("HTTP request missed a cache warmed in-process")
	}
}

func ExampleServer() {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	fmt.Println(resp.StatusCode)
	// Output: 200
}
