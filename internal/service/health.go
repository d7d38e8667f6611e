package service

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"elpc/internal/fleet"
)

// This file is elpcd's SLO health engine. Every state-changing fleet
// operation (deploy, release, churn batch, rebalance) re-scores the live
// deployments against their admission SLOs on the current residual network
// (fleet.Manager.SLOReport) and feeds the result here; GET /v1/health folds
// the latest evaluation, burn-rate windows, and operational gauges (parked
// queue, worker-queue depth, 2PC abort rate) into one green/degraded/red
// verdict with machine-readable reasons.

// Health status values, ordered by severity.
const (
	HealthGreen    = "green"
	HealthDegraded = "degraded"
	HealthRed      = "red"
)

// Health thresholds.
const (
	// redViolatingFraction escalates degraded to red when at least this
	// fraction of evaluated deployments are violating their SLO.
	redViolatingFraction = 0.5
	// degradedQueueFactor flags the worker queue when its depth exceeds
	// this multiple of the pool size (requests are waiting longer than one
	// full pool rotation).
	degradedQueueFactor = 2
	// degradedAbortRate flags cross-region admission when more than this
	// fraction of coordinator admissions end in a two-phase abort.
	degradedAbortRate = 0.05
	// burnShortWindow and burnLongWindow are the compliance burn-rate
	// windows exposed by /v1/health and elpc_slo_burn_rate.
	burnShortWindow = time.Minute
	burnLongWindow  = 10 * time.Minute
)

// burnSample is one timestamped SLO evaluation outcome.
type burnSample struct {
	at        time.Time
	violating int
	evaluated int
}

// healthEngine retains the most recent SLO evaluation and a sliding window
// of evaluation outcomes for burn-rate computation. All methods are safe
// for concurrent use.
type healthEngine struct {
	mu      sync.Mutex
	last    fleet.SLOReport
	lastAt  time.Time
	samples []burnSample
}

// observe folds one evaluation into the engine, pruning samples older than
// the long burn window.
func (h *healthEngine) observe(rep fleet.SLOReport) {
	now := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.last = rep
	h.lastAt = now
	h.samples = append(h.samples, burnSample{at: now, violating: rep.Violating, evaluated: rep.Evaluated})
	cutoff := now.Add(-burnLongWindow)
	drop := 0
	for drop < len(h.samples) && h.samples[drop].at.Before(cutoff) {
		drop++
	}
	if drop > 0 {
		h.samples = append(h.samples[:0], h.samples[drop:]...)
	}
}

// snapshot returns the latest report and the burn rates over both windows.
func (h *healthEngine) snapshot() (rep fleet.SLOReport, burn1m, burn10m float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.last, h.burnLocked(burnShortWindow), h.burnLocked(burnLongWindow)
}

// burnLocked is the mean violating fraction across the evaluations inside
// the window (0 when nothing was evaluated — an idle fleet is not burning).
func (h *healthEngine) burnLocked(window time.Duration) float64 {
	cutoff := time.Now().Add(-window)
	var sum float64
	n := 0
	for _, s := range h.samples {
		if s.at.Before(cutoff) || s.evaluated == 0 {
			continue
		}
		sum += float64(s.violating) / float64(s.evaluated)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// evaluateSLO runs one SLO evaluation against the installed fleet, times it
// into elpc_slo_evaluate_seconds and records it in the health engine; a
// no-fleet state records nothing. Called after every state-changing fleet
// operation and by GET /v1/health.
func (s *Server) evaluateSLO() {
	start := time.Now()
	var rep fleet.SLOReport
	if err := s.fleet.withFleet(func(f fleet.Manager) error {
		rep = f.SLOReport()
		return nil
	}); err != nil {
		return
	}
	sloEvaluateSeconds.ObserveSince(start)
	s.health.observe(rep)
}

// healthReason is one machine-readable contribution to a non-green verdict.
type healthReason struct {
	// Code is a stable identifier ("slo_violations", "parked_tenants",
	// "queue_depth", "two_phase_aborts"); Detail is the human rendering.
	Code   string `json:"code"`
	Detail string `json:"detail"`
}

// healthResponse is the GET /v1/health payload.
type healthResponse struct {
	Status  string         `json:"status"`
	Reasons []healthReason `json:"reasons"`
	// SLO summarizes the evaluation this verdict is based on; absent before
	// a fleet network is installed.
	SLO *sloSummaryWire `json:"slo,omitempty"`
	// Parked is the displaced-tenant queue length; QueueDepth is the
	// solver's worker-queue depth; TwoPhaseAbortRate is the fraction of
	// coordinator admissions abandoned after exhausting every 2PC round
	// (sharded fleets only).
	Parked            int     `json:"parked"`
	QueueDepth        int     `json:"queue_depth"`
	TwoPhaseAbortRate float64 `json:"two_phase_abort_rate"`
}

// sloSummaryWire is the compliance summary shared by /v1/health and
// /v1/stats.
type sloSummaryWire struct {
	Evaluated int `json:"evaluated"`
	Compliant int `json:"compliant"`
	Violating int `json:"violating"`
	// ViolatingTenants names the tenants behind the violating count.
	ViolatingTenants []string `json:"violating_tenants,omitempty"`
	// Burn1m and Burn10m are the mean violating fractions across the
	// evaluations inside each window.
	Burn1m  float64 `json:"burn_1m"`
	Burn10m float64 `json:"burn_10m"`
}

// twoPhaseAbortRate computes the coordinator abort fraction from sharded
// stats (0 for unsharded fleets and idle coordinators).
func twoPhaseAbortRate(st *fleet.ShardedStats) float64 {
	if st == nil {
		return 0
	}
	attempts := st.Coordinator.Admitted + st.Coordinator.Rejected
	if attempts == 0 {
		return 0
	}
	return float64(st.Coordinator.TwoPhaseAborts) / float64(attempts)
}

// handleHealth evaluates fleet health live and reports the verdict:
// GET /v1/health. Always 200 — the verdict is in the body, so load
// balancers probing liveness keep using /healthz.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.evaluateSLO()
	rep, burn1m, burn10m := s.health.snapshot()

	out := healthResponse{
		Status:     HealthGreen,
		Reasons:    []healthReason{},
		QueueDepth: int(s.solver.queueDepth.Load()),
	}
	if st := s.churnStats(); st != nil {
		out.Parked = st.ParkedNow
	}
	out.TwoPhaseAbortRate = twoPhaseAbortRate(s.fleetShardStats())

	configured := s.fleet.withFleet(func(fleet.Manager) error { return nil }) == nil
	if configured {
		out.SLO = &sloSummaryWire{
			Evaluated:        rep.Evaluated,
			Compliant:        rep.Compliant,
			Violating:        rep.Violating,
			ViolatingTenants: rep.ViolatingTenants(),
			Burn1m:           burn1m,
			Burn10m:          burn10m,
		}
	}

	degrade := func(code, detail string) {
		out.Status = HealthDegraded
		out.Reasons = append(out.Reasons, healthReason{Code: code, Detail: detail})
	}
	if rep.Violating > 0 {
		degrade("slo_violations", joinDetail("deployments violating their SLO", rep.ViolatingTenants(), rep.Violating))
	}
	if out.Parked > 0 {
		degrade("parked_tenants", joinDetail("tenants parked awaiting capacity", nil, out.Parked))
	}
	if workers := s.solver.opt.Workers; out.QueueDepth > degradedQueueFactor*workers {
		degrade("queue_depth", joinDetail("requests queued beyond the worker pool", nil, out.QueueDepth))
	}
	if out.TwoPhaseAbortRate > degradedAbortRate {
		degrade("two_phase_aborts", fmt.Sprintf("%.1f%% of coordinator admissions aborting", out.TwoPhaseAbortRate*100))
	}
	if rep.Evaluated > 0 && float64(rep.Violating) >= redViolatingFraction*float64(rep.Evaluated) && rep.Violating > 0 {
		out.Status = HealthRed
	}
	writeJSON(w, http.StatusOK, out)
}

// joinDetail renders a reason detail like "3 deployments violating their SLO
// (tenant-a, tenant-b)".
func joinDetail(what string, names []string, n int) string {
	detail := fmt.Sprintf("%d %s", n, what)
	if len(names) > 0 {
		detail += " (" + strings.Join(names, ", ") + ")"
	}
	return detail
}

// sloSummary snapshots the latest evaluation for /v1/stats (nil before a
// fleet network is installed).
func (s *Server) sloSummary() *sloSummaryWire {
	if err := s.fleet.withFleet(func(fleet.Manager) error { return nil }); err != nil {
		return nil
	}
	rep, burn1m, burn10m := s.health.snapshot()
	return &sloSummaryWire{
		Evaluated:        rep.Evaluated,
		Compliant:        rep.Compliant,
		Violating:        rep.Violating,
		ViolatingTenants: rep.ViolatingTenants(),
		Burn1m:           burn1m,
		Burn10m:          burn10m,
	}
}
