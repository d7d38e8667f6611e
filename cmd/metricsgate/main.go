// Command metricsgate is the CI observability gate: it boots the elpcd
// service on a loopback listener, drives representative traffic through
// every instrumented layer (cold solve, cache hit, Pareto front, fleet
// deploy, deploy-batch, churn event, health probe, deployment timeline,
// debug dump, an unmatched route, and a forced best-effort shed on a
// brownout-drill instance), scrapes GET /metrics, and validates the
// response as Prometheus text exposition format line by line. It exits
// non-zero when any line is malformed, when fewer than -min-series distinct
// time series are exposed, when a required metric family (elpc_slo_*,
// elpc_journal_*, elpc_admission_*) is missing, when the shed response
// lacks the 429/Retry-After/envelope contract, or when the debug dump does
// not round-trip as JSON — so a refactor that silently drops
// instrumentation fails the build, not the first production scrape.
//
//	metricsgate              # gate with the default 20-series floor
//	metricsgate -min-series 30 -v
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"elpc/internal/gen"
	"elpc/internal/model"
	"elpc/internal/service"
)

func main() {
	minSeries := flag.Int("min-series", 20, "fail when /metrics exposes fewer distinct time series")
	verbose := flag.Bool("v", false, "print the scraped exposition to stderr")
	flag.Parse()
	if err := run(*minSeries, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "metricsgate:", err)
		os.Exit(1)
	}
}

func run(minSeries int, verbose bool) error {
	// The shed drill runs first, on its own brownout instance (negative
	// intake bound sheds all best-effort traffic deterministically): the
	// counters it increments are process-global, so they appear in the main
	// scrape, while the main server — built after — owns the scrape-time
	// gauges (registering replaces).
	if err := driveShed(); err != nil {
		return fmt.Errorf("shed drill: %w", err)
	}

	// Real listener, real scrape: the gate exercises the same handler chain
	// (telemetry middleware included) a production scraper would hit.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := service.NewServer(service.Options{})
	defer srv.Close()
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	if err := driveTraffic(base); err != nil {
		return fmt.Errorf("driving traffic: %w", err)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		return fmt.Errorf("GET /metrics: content-type %q", ct)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		return err
	}
	if verbose {
		fmt.Fprint(os.Stderr, body.String())
	}

	rep, err := validateExposition(bytes.NewReader(body.Bytes()))
	if err != nil {
		return fmt.Errorf("malformed exposition: %w", err)
	}
	if rep.Series < minSeries {
		return fmt.Errorf("only %d distinct series exposed, want >= %d", rep.Series, minSeries)
	}
	for _, family := range []string{
		"elpc_slo_evaluated", "elpc_slo_compliant", "elpc_slo_violating",
		"elpc_slo_burn_rate", "elpc_slo_evaluate_seconds",
		"elpc_journal_depth", "elpc_journal_events_total",
		"elpc_admission_queued_total", "elpc_admission_shed_total",
		"elpc_admission_preempted_total", "elpc_admission_queue_depth",
		"elpc_wal_appends_total", "elpc_wal_fsyncs_total",
		"elpc_wal_replayed_events_total", "elpc_wal_truncated_tail_total",
	} {
		if !rep.Seen[family] {
			return fmt.Errorf("required metric family %q missing from exposition", family)
		}
	}
	fmt.Printf("metricsgate: OK — %d series across %d families\n", rep.Series, rep.Families)
	return nil
}

// driveTraffic sends one request per instrumented path class: a cold
// min-delay solve, the identical request again (cache hit), a budgeted
// max-frame-rate solve, a small Pareto front, a fleet install/deploy/churn
// cycle (SLO evaluation + journal events), the health, timeline, journal,
// stats, traces, and debug-dump reads, and one unmatched route (404
// status-class accounting).
func driveTraffic(base string) error {
	p, err := gen.Suite20()[0].Build()
	if err != nil {
		return err
	}
	body, err := json.Marshal(map[string]any{
		"network": p.Net, "pipeline": p.Pipe, "src": p.Src, "dst": p.Dst,
	})
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: 30 * time.Second}
	posts := []string{"/v1/mindelay", "/v1/mindelay", "/v1/maxframerate", "/v1/front"}
	for _, path := range posts {
		resp, err := client.Post(base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST %s: status %d", path, resp.StatusCode)
		}
	}

	depID, err := driveFleet(client, base, p)
	if err != nil {
		return fmt.Errorf("fleet cycle: %w", err)
	}
	if err := driveBatch(client, base, p); err != nil {
		return fmt.Errorf("deploy-batch cycle: %w", err)
	}

	gets := map[string]int{
		"/v1/stats":                        http.StatusOK,
		"/v1/traces":                       http.StatusOK,
		"/v1/health":                       http.StatusOK,
		"/v1/journal":                      http.StatusOK,
		"/v1/fleet/" + depID + "/timeline": http.StatusOK,
		"/v1/fleet/no-such-dep/timeline":   http.StatusNotFound,
		"/healthz":                         http.StatusOK,
		"/no/such":                         http.StatusNotFound,
	}
	for path, want := range gets {
		resp, err := client.Get(base + path)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			return fmt.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
	return checkDump(client, base, depID)
}

// postJSON posts v and decodes the response into out (when non-nil),
// requiring a 200.
func postJSON(client *http.Client, url string, v, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: status %d", url, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// driveFleet installs the problem's network as the fleet network, deploys
// one tenant, and applies one churn event so the SLO engine and journal see
// a full admit/churn/repair cycle. Returns the deployment ID.
func driveFleet(client *http.Client, base string, p *model.Problem) (string, error) {
	if err := postJSON(client, base+"/v1/fleet/network", map[string]any{"network": p.Net}, nil); err != nil {
		return "", err
	}
	var dep struct {
		ID string `json:"id"`
	}
	err := postJSON(client, base+"/v1/fleet/deploy", map[string]any{
		"tenant": "gate", "pipeline": p.Pipe, "src": p.Src, "dst": p.Dst,
	}, &dep)
	if err != nil {
		return "", err
	}
	if dep.ID == "" {
		return "", fmt.Errorf("deploy returned no ID")
	}
	// Drift a node the gate tenant may or may not use: either way the
	// reconciler applies the batch and the SLO engine re-evaluates.
	err = postJSON(client, base+"/v1/events", map[string]any{
		"events": []map[string]any{{"kind": "capacity_drift", "target": "node", "node": 0, "factor": 0.9}},
	}, nil)
	if err != nil {
		return "", err
	}
	return dep.ID, nil
}

// driveBatch posts a small mixed-class burst to /v1/fleet/deploy-batch and
// checks the per-item outcome array and tallies, so the batch admission
// path (and its elpc_admission_queued_total accounting) is exercised by the
// gate.
func driveBatch(client *http.Client, base string, p *model.Problem) error {
	req := func(tenant, class string) map[string]any {
		return map[string]any{
			"tenant": tenant, "pipeline": p.Pipe, "src": p.Src, "dst": p.Dst,
			"class": class,
		}
	}
	var out struct {
		Results []struct {
			Index      int             `json:"index"`
			Deployment json.RawMessage `json:"deployment"`
			Error      *struct {
				Code string `json:"code"`
			} `json:"error"`
		} `json:"results"`
		Admitted int `json:"admitted"`
	}
	err := postJSON(client, base+"/v1/fleet/deploy-batch", map[string]any{
		"requests": []map[string]any{
			req("gate-batch-g", "guaranteed"),
			req("gate-batch-s", ""),
			req("gate-batch-b", "best_effort"),
		},
	}, &out)
	if err != nil {
		return err
	}
	if len(out.Results) != 3 {
		return fmt.Errorf("deploy-batch returned %d results, want 3", len(out.Results))
	}
	if out.Admitted == 0 {
		return fmt.Errorf("deploy-batch admitted nothing")
	}
	for i, r := range out.Results {
		if r.Index != i {
			return fmt.Errorf("deploy-batch result %d has index %d", i, r.Index)
		}
		if r.Deployment == nil && r.Error == nil {
			return fmt.Errorf("deploy-batch result %d has neither deployment nor error", i)
		}
	}
	return nil
}

// driveShed boots a brownout-drill server (negative intake bound) and posts
// one best-effort deploy, asserting the full shed contract: 429, a
// Retry-After hint, and the structured error envelope with the retryable
// "shed" code.
func driveShed() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := service.NewServer(service.Options{IntakeBound: -1})
	defer srv.Close()
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()

	body, err := json.Marshal(map[string]any{"tenant": "drill", "class": "best_effort"})
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Post("http://"+ln.Addr().String()+"/v1/fleet/deploy", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		return fmt.Errorf("best-effort deploy under brownout: status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got == "" {
		return fmt.Errorf("shed response missing Retry-After header")
	}
	var env struct {
		Error struct {
			Code      string `json:"code"`
			Message   string `json:"message"`
			Retryable bool   `json:"retryable"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return fmt.Errorf("shed response is not the error envelope: %w", err)
	}
	if env.Error.Code != "shed" || env.Error.Message == "" || !env.Error.Retryable {
		return fmt.Errorf("shed envelope = %+v, want retryable code \"shed\" with a message", env.Error)
	}
	return nil
}

// checkDump fetches /v1/debug/dump and verifies the JSON round-trips with
// the sections an operator relies on populated.
func checkDump(client *http.Client, base, depID string) error {
	resp, err := client.Get(base + "/v1/debug/dump")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /v1/debug/dump: status %d", resp.StatusCode)
	}
	var dump struct {
		Service string `json:"service"`
		Stats   struct {
			Journal struct {
				Depth   int    `json:"depth"`
				LastSeq uint64 `json:"last_seq"`
			} `json:"journal"`
		} `json:"stats"`
		SLO *struct {
			Evaluated int `json:"evaluated"`
		} `json:"slo"`
		Fleet []struct {
			ID string `json:"id"`
		} `json:"fleet"`
		Journal struct {
			Events []map[string]any `json:"events"`
		} `json:"journal"`
		Metrics []struct {
			Name string `json:"name"`
		} `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		return fmt.Errorf("debug dump does not round-trip as JSON: %w", err)
	}
	if dump.Service != "elpcd" {
		return fmt.Errorf("dump.service = %q, want elpcd", dump.Service)
	}
	if len(dump.Journal.Events) == 0 || dump.Stats.Journal.Depth == 0 {
		return fmt.Errorf("dump journal is empty after fleet traffic")
	}
	if dump.SLO == nil || dump.SLO.Evaluated == 0 {
		return fmt.Errorf("dump SLO evaluation is empty after fleet traffic")
	}
	found := false
	for _, d := range dump.Fleet {
		if d.ID == depID {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("dump fleet listing is missing deployment %s", depID)
	}
	return nil
}
