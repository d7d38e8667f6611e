package elpc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"elpc"
)

// postPlan POSTs a problem to a planning endpoint and decodes the result.
func postPlan(t *testing.T, url string, p *elpc.Problem, out any) int {
	t.Helper()
	body, err := json.Marshal(struct {
		Network  *elpc.Network  `json:"network"`
		Pipeline *elpc.Pipeline `json:"pipeline"`
		Src      elpc.NodeID    `json:"src"`
		Dst      elpc.NodeID    `json:"dst"`
	}{Network: p.Net, Pipeline: p.Pipe, Src: p.Src, Dst: p.Dst})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response (status %d): %v", resp.StatusCode, err)
		}
	}
	return resp.StatusCode
}

// TestPlanningServiceEndToEnd starts elpcd via httptest, plans a Suite20
// case over HTTP under both objectives, and checks the answers match the
// library calls exactly; the repeated POSTs must come from the cache.
func TestPlanningServiceEndToEnd(t *testing.T) {
	spec := elpc.Suite20()[0]
	p, err := elpc.BuildCase(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv := elpc.NewPlanningServer(elpc.ServiceOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Min delay: HTTP result == elpc.MinDelayMapping.
	md, err := elpc.MinDelayMapping(p)
	if err != nil {
		t.Fatal(err)
	}
	wantDelay := elpc.TotalDelay(p, md)
	var delayRes elpc.SolveResult
	if code := postPlan(t, ts.URL+"/v1/mindelay", p, &delayRes); code != http.StatusOK {
		t.Fatalf("mindelay status %d", code)
	}
	if math.Abs(delayRes.DelayMs-wantDelay) > 1e-9 {
		t.Errorf("service delay %.9f != MinDelayMapping delay %.9f", delayRes.DelayMs, wantDelay)
	}
	if delayRes.Cached {
		t.Error("first mindelay POST reported cached")
	}

	// Max frame rate: HTTP result == elpc.MaxFrameRateMapping.
	mr, err := elpc.MaxFrameRateMapping(p)
	if err != nil {
		t.Fatal(err)
	}
	wantRate := elpc.FrameRateOf(p, mr)
	var rateRes elpc.SolveResult
	if code := postPlan(t, ts.URL+"/v1/maxframerate", p, &rateRes); code != http.StatusOK {
		t.Fatalf("maxframerate status %d", code)
	}
	if math.Abs(rateRes.RateFPS-wantRate) > 1e-9 {
		t.Errorf("service rate %.9f != MaxFrameRateMapping rate %.9f", rateRes.RateFPS, wantRate)
	}

	// Identical POSTs are served from the cache and the hit counter moves.
	before := srv.Solver().Stats().Cache.Hits
	var delayRes2, rateRes2 elpc.SolveResult
	postPlan(t, ts.URL+"/v1/mindelay", p, &delayRes2)
	postPlan(t, ts.URL+"/v1/maxframerate", p, &rateRes2)
	if !delayRes2.Cached || !rateRes2.Cached {
		t.Errorf("repeat POSTs not cached: mindelay=%v maxframerate=%v", delayRes2.Cached, rateRes2.Cached)
	}
	if delayRes2.DelayMs != delayRes.DelayMs || rateRes2.RateFPS != rateRes.RateFPS {
		t.Error("cached responses diverge from the originals")
	}
	after := srv.Solver().Stats().Cache.Hits
	if after != before+2 {
		t.Errorf("cache hits went %d -> %d, want +2", before, after)
	}

	// Both problems hash identically across requests.
	hash, err := elpc.CanonicalProblemHash(p)
	if err != nil {
		t.Fatal(err)
	}
	if delayRes.Hash != hash || rateRes.Hash != hash {
		t.Errorf("service hashes %q/%q != CanonicalProblemHash %q", delayRes.Hash, rateRes.Hash, hash)
	}
}

// TestSolverEmbeddedBatch exercises the re-exported embeddable solver.
func TestSolverEmbeddedBatch(t *testing.T) {
	p, err := elpc.BuildCase(elpc.SmallCase())
	if err != nil {
		t.Fatal(err)
	}
	s := elpc.NewSolver(elpc.ServiceOptions{Workers: 2})
	items := s.SolveBatch(context.Background(), []elpc.SolveRequest{
		{Op: elpc.OpMinDelay, Problem: p},
		{Op: elpc.OpMaxFrameRate, Problem: p},
		{Op: elpc.OpFront, Problem: p, Points: 4},
	})
	for i, it := range items {
		if it.Err != nil {
			t.Fatalf("batch item %d: %v", i, it.Err)
		}
	}
	if items[2].Result == nil || len(items[2].Result.Front) == 0 {
		t.Errorf("front sweep empty: %+v", items[2].Result)
	}
	st := s.Stats()
	if st.ColdSolves != 3 {
		t.Errorf("cold solves = %d, want 3 distinct ops", st.ColdSolves)
	}
}

// TestCanonicalProblemHashRejectsNonFinite checks that a problem holding a
// NaN or infinite attribute has no canonical hash. NewNetwork accepts a NaN
// power, so such a problem is reachable through the public API.
func TestCanonicalProblemHashRejectsNonFinite(t *testing.T) {
	nan, err := elpc.NewNetwork(
		[]elpc.Node{{ID: 0, Power: math.NaN()}, {ID: 1, Power: 1}},
		[]elpc.Link{{ID: 0, From: 0, To: 1, BWMbps: 1}},
	)
	if err != nil {
		t.Fatalf("NewNetwork rejected a NaN power (%v); the case below is then only reachable by field writes", err)
	}
	p, err := elpc.BuildCase(elpc.SmallCase())
	if err != nil {
		t.Fatal(err)
	}
	if h, err := elpc.CanonicalProblemHash(&elpc.Problem{Net: nan, Pipe: p.Pipe, Src: 0, Dst: 1}); err == nil {
		t.Errorf("NaN power from NewNetwork: hash %s, want an error", h)
	}
	fields := map[string]func(p *elpc.Problem, v float64){
		"power":      func(p *elpc.Problem, v float64) { p.Net.Nodes[0].Power = v },
		"bandwidth":  func(p *elpc.Problem, v float64) { p.Net.Links[0].BWMbps = v },
		"mld":        func(p *elpc.Problem, v float64) { p.Net.Links[0].MLDms = v },
		"complexity": func(p *elpc.Problem, v float64) { p.Pipe.Modules[1].Complexity = v },
	}
	for name, set := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			p, err := elpc.BuildCase(elpc.SmallCase())
			if err != nil {
				t.Fatal(err)
			}
			set(p, v)
			if h, err := elpc.CanonicalProblemHash(p); err == nil {
				t.Errorf("%s = %v: hash %s, want an error", name, v, h)
			}
		}
	}
}
