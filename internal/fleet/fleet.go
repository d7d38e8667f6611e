// Package fleet is the multi-tenant placement subsystem: a Fleet owns one
// shared transport network and admits many concurrently deployed pipelines
// onto it, each solved by the paper's single-pipeline algorithms against the
// *residual* network (node powers and link bandwidths scaled down by the
// capacity already reserved by earlier tenants — model.ResidualNetwork).
//
// The paper maps one pipeline onto an uncontended network; a production
// service must colocate many. Fleet closes that gap with three mechanisms:
//
//   - Admission control: Deploy solves the request's objective on the
//     residual network and rejects it (ErrRejected) when no mapping meets
//     the request's SLO or when reserving it would overcommit any resource.
//   - Capacity accounting: an admitted deployment reserves, on every node
//     and link its mapping touches, the utilization it imposes at its
//     reserved frame rate. Release returns exactly that capacity; the
//     outstanding-set recompute guarantees the empty fleet is bit-for-bit
//     identical to a fresh one.
//   - Live rebalancing: Rebalance re-solves deployments against the
//     capacity freed since they were admitted and migrates the ones whose
//     improvement clears a migration-cost guard.
//   - Incremental repair: when churn events mutate the network's capacity
//     (ApplyChurn), Affected identifies exactly the deployments whose
//     placements touch the mutated elements and Repair re-solves only the
//     broken ones — migrating what fits, parking (evicting with a
//     reusable admission request) what does not. internal/churn drives
//     this cycle and re-queues parked deployments when capacity returns.
package fleet

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"elpc/internal/core"
	"elpc/internal/engine"
	"elpc/internal/journal"
	"elpc/internal/model"
	"elpc/internal/telemetry"
	"elpc/internal/wal"
)

// ErrRejected is returned (wrapped, with a reason) when admission control
// declines a deployment: no feasible mapping on the residual network, the
// SLO cannot be met, or reserving the mapping would overcommit a resource.
var ErrRejected = errors.New("admission rejected")

// ErrNotFound is returned for operations on unknown deployment IDs.
var ErrNotFound = errors.New("deployment not found")

// DefaultInteractiveFPS is the demand rate reserved for min-delay
// deployments that do not state one: interactive sessions still occupy
// capacity per processed frame, so admission must account for some rate.
const DefaultInteractiveFPS = 1.0

// Class is a deployment's SLO class: the priority band admission, repair,
// and rebalancing order work by, and the currency preemption trades in (a
// guaranteed deploy may displace best-effort tenants; see Deploy).
type Class string

const (
	// ClassGuaranteed deployments are admitted first and may preempt
	// best-effort tenants when normal admission fails.
	ClassGuaranteed Class = "guaranteed"
	// ClassStandard is the default band (an empty Class means standard).
	ClassStandard Class = "standard"
	// ClassBestEffort deployments are admitted last, shed first under
	// intake pressure, and eligible for preemption.
	ClassBestEffort Class = "best_effort"
)

// Valid reports whether c names a known class (empty = standard is valid).
func (c Class) Valid() bool {
	switch c {
	case "", ClassGuaranteed, ClassStandard, ClassBestEffort:
		return true
	}
	return false
}

// Canon maps the empty class to ClassStandard.
func (c Class) Canon() Class {
	if c == "" {
		return ClassStandard
	}
	return c
}

// Rank orders classes for admission preference: higher ranks admit first.
func (c Class) Rank() int {
	switch c {
	case ClassGuaranteed:
		return 2
	case ClassBestEffort:
		return 0
	default:
		return 1
	}
}

// SLO states what a deployment requires from its placement. Zero fields are
// unconstrained.
type SLO struct {
	// MaxDelayMs caps the end-to-end delay (Eq. 1, evaluated on the
	// residual network at admission).
	MaxDelayMs float64 `json:"max_delay_ms,omitempty"`
	// MinRateFPS is the frame rate the tenant will sustain. It is both an
	// SLO (reject if unachievable) and the demand the deployment reserves
	// capacity for.
	MinRateFPS float64 `json:"min_rate_fps,omitempty"`
	// Class is the SLO class ("guaranteed", "standard", "best_effort");
	// empty selects standard.
	Class Class `json:"class,omitempty"`
}

// Request asks the fleet to place one pipeline.
type Request struct {
	// Tenant labels the owner (informational; reported by List/Describe).
	Tenant string
	// Pipeline is the linear pipeline to place.
	Pipeline *model.Pipeline
	// Src and Dst are the designated data source and end-user nodes.
	Src, Dst model.NodeID
	// Objective selects min-delay (interactive) or max-frame-rate
	// (streaming) placement.
	Objective model.Objective
	// SLO constrains admission.
	SLO SLO
	// Cost overrides the cost-model options; nil selects the defaults.
	Cost *model.CostOptions
	// RequeueOf names the parked entry this request re-admits (set by the
	// churn reconciler's requeue loop). It does not affect admission; it is
	// recorded in the WAL so recovery drains the parked pool identically.
	RequeueOf string

	// warm carries the retained DP grids of a previously admitted deployment
	// back into admission (parked and preempted entries keep their grids so a
	// requeue solves warm). It never affects the solved result — a warm solve
	// is byte-identical to a cold one — so it is invisible to callers.
	warm *core.WarmState
}

// Deployment is one admitted pipeline: its mapping, the metrics it was
// admitted with (evaluated on the residual network it was solved against),
// and the capacity it holds.
type Deployment struct {
	// ID is the fleet-assigned handle ("d-000001", dense per fleet).
	ID string `json:"id"`
	// Tenant echoes Request.Tenant.
	Tenant string `json:"tenant,omitempty"`
	// Objective is the placement objective.
	Objective model.Objective `json:"-"`
	// Assignment maps module j to Assignment[j].
	Assignment []model.NodeID `json:"assignment"`
	// Mapping is the human-readable group rendering of Assignment.
	Mapping string `json:"mapping"`
	// DelayMs is the Eq. 1 delay on the residual network the mapping was
	// last solved against (admission or the latest applied migration).
	DelayMs float64 `json:"delay_ms"`
	// RateFPS is the sustainable frame rate (1000 / shared bottleneck) on
	// the residual network the mapping was last solved against.
	RateFPS float64 `json:"rate_fps"`
	// ReservedFPS is the frame rate the deployment reserves capacity for:
	// SLO.MinRateFPS when stated, otherwise the achieved rate (streaming)
	// or DefaultInteractiveFPS (interactive), fixed at admission.
	// Rebalancing never changes it — migrations move the mapping, not the
	// tenant's demand.
	ReservedFPS float64 `json:"reserved_fps"`
	// SLO echoes the admission constraints.
	SLO SLO `json:"slo"`
	// Seq orders deployments by admission (monotonic per fleet, never
	// reused; rebalanced deployments keep their seq).
	Seq uint64 `json:"seq"`

	pipe        *model.Pipeline
	cost        model.CostOptions
	src, dst    model.NodeID
	reservation model.Reservation

	// warm retains the deployment's DP grids between solves, so repair and
	// rebalance re-solves after churn recompute only the cells the capacity
	// delta invalidated. Nil when warm-start is disabled or the deployment was
	// recovered from the WAL (it re-warms on its first re-solve). Owned by the
	// fleet lock; parallel proposal goroutines touch disjoint deployments.
	warm *core.WarmState
}

// clone returns a caller-owned copy of the public view. The warm state stays
// behind: it is single-threaded scratch owned by the fleet's copy.
func (d *Deployment) clone() Deployment {
	c := *d
	c.warm = nil
	c.Assignment = append([]model.NodeID(nil), d.Assignment...)
	return c
}

// Stats is a point-in-time snapshot of fleet counters and utilization
// gauges.
type Stats struct {
	// Deployments is the number currently admitted.
	Deployments int `json:"deployments"`
	// Admitted, Rejected, Released, and Moves are monotonic lifecycle
	// counters (Moves counts applied rebalance migrations).
	Admitted uint64 `json:"admitted"`
	Rejected uint64 `json:"rejected"`
	Released uint64 `json:"released"`
	Moves    uint64 `json:"rebalance_moves"`
	// Repaired counts deployments examined by Repair passes; RepairMoves
	// the migrations they applied; ParkEvictions the deployments evicted
	// because no feasible placement remained after churn.
	Repaired      uint64 `json:"repaired"`
	RepairMoves   uint64 `json:"repair_moves"`
	ParkEvictions uint64 `json:"park_evictions"`
	// Preemptions counts best-effort deployments displaced (parked) so a
	// guaranteed deploy could admit.
	Preemptions uint64 `json:"preemptions"`
	// GuaranteedActive / StandardActive / BestEffortActive count the
	// currently admitted deployments per SLO class.
	GuaranteedActive int `json:"guaranteed_active"`
	StandardActive   int `json:"standard_active"`
	BestEffortActive int `json:"best_effort_active"`
	// SolverCalls counts every objective solve run on the fleet's behalf.
	SolverCalls uint64 `json:"solver_calls"`
	// ReservedFPS is the total frame rate reserved across deployments.
	ReservedFPS float64 `json:"reserved_fps"`
	// MeanNodeUtil / MaxNodeUtil (MeanLinkUtil / MaxLinkUtil) gauge the
	// outstanding load fraction over all nodes (links).
	MeanNodeUtil float64 `json:"mean_node_util"`
	MaxNodeUtil  float64 `json:"max_node_util"`
	MeanLinkUtil float64 `json:"mean_link_util"`
	MaxLinkUtil  float64 `json:"max_link_util"`
}

// Fleet is the stateful multi-tenant placement manager. All methods are safe
// for concurrent use; admission is serialized internally so the solve and
// the reservation it justifies are atomic.
type Fleet struct {
	mu       sync.Mutex
	base     *model.Network
	residual *model.ResidualNetwork
	deps     map[string]*Deployment
	order    []string // admission order; recompute accumulates in this order
	seq      uint64
	pool     *engine.Pool // shared parallel substrate for rebalance re-solves

	// idPrefix namespaces deployment IDs ("s3-" on shard 3 of a
	// ShardedFleet) so IDs stay unique and routable across shards; empty for
	// a standalone fleet — and for shard 0 of a one-shard fleet, which keeps
	// K=1 byte-identical to a plain Fleet.
	idPrefix string
	// region, when non-nil, restricts every solve to the region's
	// sub-network: the solver runs on an extraction of the residual snapshot
	// holding only region nodes and internal links, and the winning mapping
	// is translated back to global node IDs. Set only by ShardedFleet.
	region *model.RegionView
	// external is a static load overlay (the sharded coordinator's summed
	// cross-region reservations) re-added on every recompute; a zero-length
	// reservation means none.
	external model.Reservation
	// jr, when non-nil, receives one typed event per state transition
	// (admission, rejection, release, repair outcome, rebalance move) —
	// the same sites the WAL appends at. Nil (the default, and the
	// benchmark configuration) makes every record a single pointer check.
	jr *journal.Journal
	// wal, when non-nil, durably logs one wal.Record per mutating lock
	// epoch before the operation is acknowledged; walScope labels the
	// records ("" standalone, "s<i>" on shard i). See wal.go.
	wal      *wal.Log
	walScope string
	// txn is the record under construction for the current lock epoch
	// (between beginTxnLocked and endTxnLocked); txnPre is the counter
	// state at epoch start, so counter-only epochs still log.
	txn    *wal.Record
	txnPre wal.Counters

	admitted    uint64
	rejected    uint64
	released    uint64
	moves       uint64
	repaired    uint64
	repairMoves uint64
	parkEvicts  uint64
	preempts    uint64

	// preemptedQ holds deployments displaced by guaranteed admissions until
	// the owner drains them (TakePreempted) into the re-queue loop.
	preemptedQ []ParkedDeployment

	// resScratch is recomputeLocked's reusable reservation-header slice.
	resScratch []model.Reservation

	// solves counts every objective solve run on the fleet's behalf
	// (admission, rebalance proposals, repair re-solves). Atomic because
	// parallel proposal phases increment it from pool goroutines while the
	// coordinating call holds mu. Tests use it to assert repair is
	// incremental: an event touching k deployments costs exactly k solves.
	solves atomic.Uint64

	// warmOff disables warm-start incremental solving (SetWarmStart); the
	// zero value keeps it on. Warm solves are byte-identical to cold ones —
	// the differential equivalence suite runs the same trace both ways and
	// asserts identical mappings and stats — so the toggle only trades CPU
	// for retained-grid memory.
	warmOff bool
	// Warm solve outcome counters (see core.WarmOutcome), atomic for the
	// same reason as solves.
	warmRebuilds atomic.Uint64
	warmPartials atomic.Uint64
	warmHits     atomic.Uint64
	warmBypasses atomic.Uint64

	// lockWait is the per-shard Deploy lock-wait histogram, resolved lazily
	// because idPrefix is assigned after construction (see lockWaitHist).
	lockWaitOnce sync.Once
	lockWait     *telemetry.Histogram
}

// New builds an empty fleet over the shared base network.
func New(base *model.Network) (*Fleet, error) {
	if base == nil {
		return nil, fmt.Errorf("fleet: nil network")
	}
	return &Fleet{
		base:     base,
		residual: model.NewResidualNetwork(base),
		deps:     make(map[string]*Deployment),
	}, nil
}

// Network returns the shared base network (full nominal capacity).
func (f *Fleet) Network() *model.Network { return f.base }

// UsePool installs the engine pool that parallel rebalance passes fan their
// re-solves out over. Sharing the planning service's pool keeps fleet and
// planning solves on one bounded concurrency budget, so neither can starve
// the other. A nil pool (the default) makes parallel passes spin up a
// transient pool per call.
func (f *Fleet) UsePool(p *engine.Pool) {
	f.mu.Lock()
	f.pool = p
	f.mu.Unlock()
}

// UseJournal installs the event journal every state transition is recorded
// into. A nil journal (the default) disables recording.
func (f *Fleet) UseJournal(j *journal.Journal) {
	f.mu.Lock()
	f.jr = j
	f.mu.Unlock()
}

// record appends one event to the installed journal, stamping the fleet's
// actor layer and shard label; it is a no-op without a journal.
func (f *Fleet) record(ev journal.Event) {
	if f.jr == nil {
		return
	}
	if ev.Actor == "" {
		ev.Actor = journal.ActorFleet
	}
	if ev.Shard == "" {
		ev.Shard = shardLabel(f.idPrefix)
	}
	f.jr.Append(ev)
}

// recomputeLocked rebuilds the residual loads as the exact ordered sum of
// outstanding reservations. Caller holds f.mu. The reservation-header
// scratch is reused across calls (SetLoad retains nothing).
func (f *Fleet) recomputeLocked() {
	outstanding := f.resScratch[:0]
	for _, id := range f.order {
		outstanding = append(outstanding, f.deps[id].reservation)
	}
	f.resScratch = outstanding
	if err := f.residual.SetLoad(outstanding); err != nil {
		// Reservations are built against f.base; shapes cannot mismatch.
		panic(fmt.Sprintf("fleet: recompute: %v", err))
	}
	if len(f.external.NodeFrac) > 0 {
		if err := f.residual.AddLoad(f.external); err != nil {
			// The overlay is built against the same base network.
			panic(fmt.Sprintf("fleet: recompute external: %v", err))
		}
	}
}

// reject records and wraps an admission failure, journaling the rejection
// with the requesting tenant.
func (f *Fleet) reject(req Request, format string, args ...any) error {
	f.rejected++
	rejectedTotal.Inc()
	reason := fmt.Sprintf(format, args...)
	f.record(journal.Event{Kind: journal.DeployRejected, Tenant: req.Tenant, Detail: reason})
	return fmt.Errorf("fleet: %w: %s", ErrRejected, reason)
}

// warmPool recycles WarmStates between deployments: released deployments and
// declined admissions return their (Reset) state here, so steady-state churn
// never allocates fresh grids.
var warmPool = sync.Pool{New: func() any { return core.NewWarmState() }}

// solve runs the objective's solver against the residual snapshot and
// evaluates the mapping on it. A non-nil ws solves through the warm state's
// retained grids (byte-identical results, see core.WarmState); nil is the
// cold path.
func solve(snap *model.Network, req Request, cost model.CostOptions, ws *core.WarmState) (*model.Mapping, float64, float64, error) {
	p := &model.Problem{Net: snap, Pipe: req.Pipeline, Src: req.Src, Dst: req.Dst, Cost: cost}
	var m *model.Mapping
	var err error
	switch req.Objective {
	case model.MinDelay:
		if ws != nil {
			m, err = ws.MinDelay(p)
		} else {
			m, err = core.MinDelay(p)
		}
	case model.MaxFrameRate:
		if ws != nil {
			m, err = ws.MaxFrameRate(p, core.FrameRateOptions{})
		} else {
			m, err = core.MaxFrameRate(p)
		}
	default:
		return nil, 0, 0, fmt.Errorf("fleet: unknown objective %v", req.Objective)
	}
	if err != nil {
		return nil, 0, 0, err
	}
	delay := model.TotalDelay(snap, req.Pipeline, m, cost)
	period := model.SharedBottleneck(snap, req.Pipeline, m)
	return m, delay, model.FrameRate(period), nil
}

// solveCounted is solve plus the fleet's solver-call accounting; every
// fleet-initiated solve goes through it, materializing its own snapshot of
// the given residual view. On a region-scoped fleet the snapshot is the
// region's sub-network alone (model.ResidualNetwork.RegionSnapshot — the
// O(region) hot path sharding's speedup rests on); node powers and link
// bandwidths are scaled bit-identically to a full snapshot, so the returned
// delay and rate match a full-network evaluation of the same mapping, and
// the mapping comes back in global node IDs.
func (f *Fleet) solveCounted(rn *model.ResidualNetwork, req Request, cost model.CostOptions, ws *core.WarmState) (*model.Mapping, float64, float64, error) {
	f.solves.Add(1)
	if f.warmOff {
		ws = nil
	}
	if f.region == nil {
		var snap *model.Network
		if ws != nil {
			// Materialize into the warm state's free snapshot buffer: the
			// grids retain at most one previous snapshot, so double
			// buffering makes the per-solve snapshot allocation-free.
			snap = rn.SnapshotInto(ws.SnapshotScratch())
			ws.TrackSnapshot(snap)
		} else {
			snap = rn.Snapshot()
		}
		m, delay, rate, err := solve(snap, req, cost, ws)
		f.noteWarm(ws)
		return m, delay, rate, err
	}
	ls, ld := f.region.LocalNode[req.Src], f.region.LocalNode[req.Dst]
	if ls < 0 || ld < 0 {
		return nil, 0, 0, fmt.Errorf("fleet: %w: endpoints %d -> %d leave region %d", model.ErrInfeasible, req.Src, req.Dst, f.region.Region)
	}
	local := req
	local.Src, local.Dst = model.NodeID(ls), model.NodeID(ld)
	var snap *model.Network
	if ws != nil {
		snap = rn.RegionSnapshotInto(f.region, ws.SnapshotScratch())
		ws.TrackSnapshot(snap)
	} else {
		snap = rn.RegionSnapshot(f.region)
	}
	m, delay, rate, err := solve(snap, local, cost, ws)
	f.noteWarm(ws)
	if err != nil {
		return nil, 0, 0, err
	}
	return f.region.ToGlobal(m), delay, rate, nil
}

// noteWarm folds the outcome of the warm solve that just ran into the
// fleet's counters; a nil ws (cold solve) is a no-op.
func (f *Fleet) noteWarm(ws *core.WarmState) {
	if ws == nil {
		return
	}
	switch ws.Last().Outcome {
	case core.WarmRebuild:
		f.warmRebuilds.Add(1)
	case core.WarmPartial:
		f.warmPartials.Add(1)
	case core.WarmHit:
		f.warmHits.Add(1)
	case core.WarmBypass:
		f.warmBypasses.Add(1)
	}
}

// warmFor returns the deployment's warm state, lazily attaching a pooled one
// when warm-start is enabled. Deployments recovered from the WAL and
// coordinator-admitted cross-region deployments start without grids; they
// re-warm on their first repair or rebalance re-solve.
func (f *Fleet) warmFor(d *Deployment) *core.WarmState {
	if f.warmOff {
		return nil
	}
	if d.warm == nil {
		d.warm = warmPool.Get().(*core.WarmState)
	}
	return d.warm
}

// recycleWarm resets and pools a deployment's warm state on release/eviction.
func recycleWarm(ws *core.WarmState) {
	if ws == nil {
		return
	}
	ws.Reset()
	warmPool.Put(ws)
}

// SetWarmStart toggles warm-start incremental solving (on by default).
// Turning it off detaches nothing: retained grids stay with their
// deployments, they are just bypassed until re-enabled.
func (f *Fleet) SetWarmStart(on bool) {
	f.mu.Lock()
	f.warmOff = !on
	f.mu.Unlock()
}

// WarmSolveStats snapshots the warm-start outcome counters.
func (f *Fleet) WarmSolveStats() WarmSolveStats {
	return WarmSolveStats{
		Rebuilds: f.warmRebuilds.Load(),
		Partials: f.warmPartials.Load(),
		Hits:     f.warmHits.Load(),
		Bypasses: f.warmBypasses.Load(),
	}
}

// WarmSolveStats counts warm-start solves by outcome. It is reported
// separately from Stats so a warm and a cold fleet replaying the same trace
// produce byte-identical Stats — the invariant the differential equivalence
// suite enforces.
type WarmSolveStats struct {
	// Rebuilds are solves that recomputed the full grid (first solve of a
	// deployment, signature change, or structural network change).
	Rebuilds uint64 `json:"rebuilds"`
	// Partials recomputed only the cells a capacity delta invalidated.
	Partials uint64 `json:"partials"`
	// Hits served the retained grids unchanged.
	Hits uint64 `json:"hits"`
	// Bypasses delegated to the cold path (problem over the retention caps).
	Bypasses uint64 `json:"bypasses"`
}

// Total is the number of solves that ran through a warm state.
func (w WarmSolveStats) Total() uint64 {
	return w.Rebuilds + w.Partials + w.Hits + w.Bypasses
}

// HitRatio is the fraction of warm solves that reused retained work (hits
// plus partials); 0 when no warm solves ran.
func (w WarmSolveStats) HitRatio() float64 {
	t := w.Total()
	if t == 0 {
		return 0
	}
	return float64(w.Hits+w.Partials) / float64(t)
}

// SolveCount returns the number of objective solves the fleet has run
// (admission, rebalance proposals, repair re-solves).
func (f *Fleet) SolveCount() uint64 { return f.solves.Load() }

// admissionRate resolves the frame rate a deployment reserves capacity for
// given its achieved sustainable rate.
func admissionRate(req Request, rateFPS float64) float64 {
	if req.SLO.MinRateFPS > 0 {
		return req.SLO.MinRateFPS
	}
	if req.Objective == model.MinDelay {
		return DefaultInteractiveFPS
	}
	return rateFPS
}

// validateRequest runs the lock-free structural checks a request must pass
// before admission is attempted. Structural errors never wrap ErrRejected.
func (f *Fleet) validateRequest(req Request) error {
	if req.Pipeline == nil {
		return fmt.Errorf("fleet: request missing pipeline")
	}
	if !f.base.ValidNode(req.Src) || !f.base.ValidNode(req.Dst) {
		return fmt.Errorf("fleet: invalid endpoints %d -> %d", req.Src, req.Dst)
	}
	if req.SLO.MaxDelayMs < 0 || req.SLO.MinRateFPS < 0 {
		return fmt.Errorf("fleet: negative SLO")
	}
	if !req.SLO.Class.Valid() {
		return fmt.Errorf("fleet: unknown SLO class %q", req.SLO.Class)
	}
	return nil
}

// tryAdmitLocked runs the admission core against the current residual state
// and commits on success. It returns (dep, "", nil) when the deployment was
// admitted, (zero, reason, nil) when admission control declines — without
// counting or journaling the rejection, so callers (Deploy, DeployBatch,
// the preemption retry loop) decide whether a given attempt is final — and
// (zero, "", err) on a structural or solver error. Caller holds f.mu.
func (f *Fleet) tryAdmitLocked(req Request, cost model.CostOptions) (Deployment, string, error) {
	// Solve warm: a requeued request brings the parked deployment's grids
	// back; a fresh request warms a pooled state so post-churn repairs of
	// this deployment recompute only invalidated cells. Declined or failed
	// admissions return a pool-acquired state (requeue-owned grids stay with
	// the request — the reconciler re-parks it on failure).
	ws := req.warm
	retained := ws != nil
	if ws == nil && !f.warmOff {
		ws = warmPool.Get().(*core.WarmState)
	}
	defer func() {
		if ws != nil && !retained {
			recycleWarm(ws)
		}
	}()
	m, delay, rate, err := f.solveCounted(f.residual, req, cost, ws)
	if err != nil {
		if errors.Is(err, model.ErrInfeasible) {
			return Deployment{}, fmt.Sprintf("no feasible mapping on residual network: %v", err), nil
		}
		return Deployment{}, "", err
	}
	// The solver can still route zero-cost modules (the pinned source or
	// sink, in particular) through a down node — the residual snapshot
	// floors it at MinResidualFraction rather than removing it, and a
	// zero-cost module reserves nothing there, so Fits would pass. A
	// mapping with a hostless module must never be admitted; this is the
	// admission-side twin of the Repair/Rebalance down-node guards, so
	// repair, rebalance, requeue, and deploy agree.
	if v, down := f.residual.DownNode(m.Assign); down {
		return Deployment{}, fmt.Sprintf("no feasible placement: node v%d is down", v), nil
	}
	if req.SLO.MaxDelayMs > 0 && delay > req.SLO.MaxDelayMs {
		return Deployment{}, fmt.Sprintf("delay %.3f ms exceeds SLO %.3f ms", delay, req.SLO.MaxDelayMs), nil
	}
	reserved := admissionRate(req, rate)
	if rate < reserved || math.IsInf(delay, 1) {
		return Deployment{}, fmt.Sprintf("sustainable rate %.3f fps below demand %.3f fps", rate, reserved), nil
	}
	res, err := model.MappingReservation(f.base, req.Pipeline, m, reserved)
	if err != nil {
		return Deployment{}, "", err
	}
	res.Class = string(req.SLO.Class.Canon())
	if !f.residual.Fits(res) {
		return Deployment{}, fmt.Sprintf("reservation at %.3f fps overcommits the network", reserved), nil
	}

	f.seq++
	d := &Deployment{
		ID:          fmt.Sprintf("%sd-%06d", f.idPrefix, f.seq),
		Tenant:      req.Tenant,
		Objective:   req.Objective,
		Assignment:  m.Assign,
		Mapping:     m.String(),
		DelayMs:     delay,
		RateFPS:     rate,
		ReservedFPS: reserved,
		SLO:         req.SLO,
		Seq:         f.seq,
		pipe:        req.Pipeline,
		cost:        cost,
		src:         req.Src,
		dst:         req.Dst,
		reservation: res,
		warm:        ws,
	}
	retained = true
	f.deps[d.ID] = d
	f.order = append(f.order, d.ID)
	f.recomputeLocked()
	f.admitted++
	admittedTotal.Inc()
	f.record(journal.Event{
		Kind:       journal.DeployAdmitted,
		Deployment: d.ID,
		Tenant:     d.Tenant,
		Detail:     fmt.Sprintf("reserved %.3f fps", reserved),
		Mapping:    d.Mapping,
		DelayMs:    delay,
		RateFPS:    rate,
	})
	f.txnDeploy(d, req.RequeueOf)
	return d.clone(), "", nil
}

// MaxPreemptionVictims bounds how many best-effort deployments one
// guaranteed admission may displace before giving up.
const MaxPreemptionVictims = 4

// preemptLocked retries a rejected guaranteed admission by displacing
// best-effort deployments: victims are removed latest-admitted-first, one at
// a time, with the admission core retried after each removal. On success the
// displaced deployments are journaled (DeployPreempted) and queued for
// re-admission (TakePreempted); on exhaustion the fleet state is restored
// exactly (the residual recompute is an ordered sum, so restoration is
// bit-identical) and ok is false. Caller holds f.mu.
func (f *Fleet) preemptLocked(req Request, cost model.CostOptions) (Deployment, bool) {
	var victims []*Deployment
	for i := len(f.order) - 1; i >= 0 && len(victims) < MaxPreemptionVictims; i-- {
		if d := f.deps[f.order[i]]; d.SLO.Class == ClassBestEffort {
			victims = append(victims, d)
		}
	}
	if len(victims) == 0 {
		return Deployment{}, false
	}
	savedOrder := append([]string(nil), f.order...)
	var removed []*Deployment
	for _, v := range victims {
		delete(f.deps, v.ID)
		for i, oid := range f.order {
			if oid == v.ID {
				f.order = append(f.order[:i], f.order[i+1:]...)
				break
			}
		}
		removed = append(removed, v)
		f.recomputeLocked()
		d, reason, err := f.tryAdmitLocked(req, cost)
		if err != nil {
			break
		}
		if reason == "" {
			for _, vd := range removed {
				f.preempts++
				preemptedTotal.Inc()
				f.record(journal.Event{
					Kind:       journal.DeployPreempted,
					Deployment: vd.ID,
					Tenant:     vd.Tenant,
					Detail:     fmt.Sprintf("displaced by guaranteed deploy %s (tenant %s)", d.ID, req.Tenant),
				})
				entry := ParkedDeployment{
					ID:     vd.ID,
					Tenant: vd.Tenant,
					Reason: fmt.Sprintf("preempted by guaranteed deploy %s", d.ID),
					Req:    requestOf(vd),
				}
				f.preemptedQ = append(f.preemptedQ, entry)
				f.txnRemove(vd.ID)
				f.txnPark(entry)
			}
			return d, true
		}
	}
	// No prefix of the victim list frees enough residual: restore exactly.
	for _, vd := range removed {
		f.deps[vd.ID] = vd
	}
	f.order = savedOrder
	f.recomputeLocked()
	return Deployment{}, false
}

// Deploy admits one pipeline: it solves the objective against the residual
// network, checks the SLO, reserves capacity, and returns the deployment.
// A guaranteed-class request that fails admission additionally attempts
// preemption — displacing up to MaxPreemptionVictims best-effort tenants
// (parked and journaled, recoverable via TakePreempted) when that frees
// enough residual to admit. Rejections wrap ErrRejected; structural errors
// (bad request) do not.
func (f *Fleet) Deploy(req Request) (Deployment, error) {
	if err := f.validateRequest(req); err != nil {
		return Deployment{}, err
	}
	cost := model.DefaultCostOptions()
	if req.Cost != nil {
		cost = *req.Cost
	}

	t0 := time.Now()
	defer deploySeconds.ObserveSince(t0)
	lockWait := f.lockWaitHist()
	f.mu.Lock()
	lockWait.ObserveSince(t0)
	f.beginTxnLocked(wal.KindDeploy)
	d, err := f.deployLocked(req, cost)
	commit := f.endTxnLocked()
	f.mu.Unlock()
	commit()
	return d, err
}

// deployLocked is the admission attempt plus the guaranteed-class preemption
// fallback, with rejection accounting. Caller holds f.mu.
func (f *Fleet) deployLocked(req Request, cost model.CostOptions) (Deployment, error) {
	d, reason, err := f.tryAdmitLocked(req, cost)
	if err != nil {
		return Deployment{}, err
	}
	if reason == "" {
		return d, nil
	}
	if req.SLO.Class == ClassGuaranteed {
		if d, ok := f.preemptLocked(req, cost); ok {
			return d, nil
		}
	}
	return Deployment{}, f.reject(req, "%s", reason)
}

// BatchOutcome is the per-request result of DeployBatch, reported at the
// request's original index.
type BatchOutcome struct {
	// Index is the request's position in the submitted batch.
	Index int
	// Deployment is the admitted deployment when Err is nil.
	Deployment Deployment
	// Err is the admission error (wrapping ErrRejected) or structural error.
	Err error
}

// batchOrder returns the admission order for a batch: SLO class rank
// descending (guaranteed first), then reserved demand descending (scarcer
// requests pack first, first-fit-decreasing style), then delay-SLO tightness
// ascending, then submission order. Invalid indices (out[i].Err already set)
// are excluded.
func batchOrder(reqs []Request, out []BatchOutcome) []int {
	order := make([]int, 0, len(reqs))
	for i := range reqs {
		if out[i].Err == nil {
			order = append(order, i)
		}
	}
	sortByPriority(reqs, order)
	return order
}

// sortByPriority sorts the index list order in place by the batch admission
// key (see batchOrder). Shared with the sharded coordinator pass.
func sortByPriority(reqs []Request, order []int) {
	slack := func(r Request) float64 {
		if r.SLO.MaxDelayMs <= 0 {
			return math.Inf(1)
		}
		return r.SLO.MaxDelayMs
	}
	sort.SliceStable(order, func(a, b int) bool {
		ra, rb := reqs[order[a]], reqs[order[b]]
		if ka, kb := ra.SLO.Class.Rank(), rb.SLO.Class.Rank(); ka != kb {
			return ka > kb
		}
		if ra.SLO.MinRateFPS != rb.SLO.MinRateFPS {
			return ra.SLO.MinRateFPS > rb.SLO.MinRateFPS
		}
		if sa, sb := slack(ra), slack(rb); sa != sb {
			return sa < sb
		}
		return order[a] < order[b]
	})
}

// DeployBatch admits a burst of requests under one lock epoch: structurally
// invalid requests fail fast without the lock, the rest are sorted by SLO
// class and scarcity (batchOrder) and placed in a single residual pass —
// one mutex acquisition for the whole burst instead of one per request.
// Outcomes are reported at each request's original index. The class-ordered
// single pass is why a batch admits at least as much guaranteed/high-demand
// traffic as the same requests deployed sequentially in arrival order.
func (f *Fleet) DeployBatch(reqs []Request) []BatchOutcome {
	out := make([]BatchOutcome, len(reqs))
	for i := range reqs {
		out[i].Index = i
		if err := f.validateRequest(reqs[i]); err != nil {
			out[i].Err = err
		}
	}
	order := batchOrder(reqs, out)
	if len(order) == 0 {
		return out
	}

	t0 := time.Now()
	defer batchDeploySeconds.ObserveSince(t0)
	lockWait := f.lockWaitHist()
	f.mu.Lock()
	lockWait.ObserveSince(t0)
	f.beginTxnLocked(wal.KindBatch)
	for _, i := range order {
		req := reqs[i]
		cost := model.DefaultCostOptions()
		if req.Cost != nil {
			cost = *req.Cost
		}
		out[i].Deployment, out[i].Err = f.deployLocked(req, cost)
	}
	commit := f.endTxnLocked()
	f.mu.Unlock()
	commit()
	return out
}

// TakePreempted drains and returns the deployments displaced by guaranteed
// admissions since the last call, oldest first. The owner (internal/churn's
// reconciler, via the service layer) re-queues them when capacity returns.
func (f *Fleet) TakePreempted() []ParkedDeployment {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := f.preemptedQ
	f.preemptedQ = nil
	return out
}

// Release returns a deployment's capacity to the fleet.
func (f *Fleet) Release(id string) error {
	f.mu.Lock()
	f.beginTxnLocked(wal.KindRelease)
	err := f.releaseLocked(id)
	commit := f.endTxnLocked()
	f.mu.Unlock()
	commit()
	return err
}

// releaseLocked removes the deployment and recomputes the residual loads.
// Caller holds f.mu inside a WAL epoch.
func (f *Fleet) releaseLocked(id string) error {
	d, ok := f.deps[id]
	if !ok {
		return fmt.Errorf("fleet: %w: %q", ErrNotFound, id)
	}
	delete(f.deps, id)
	recycleWarm(d.warm)
	d.warm = nil
	for i, oid := range f.order {
		if oid == id {
			f.order = append(f.order[:i], f.order[i+1:]...)
			break
		}
	}
	f.recomputeLocked()
	f.released++
	f.record(journal.Event{Kind: journal.ReleaseDone, Deployment: id, Tenant: d.Tenant})
	f.txnRemove(id)
	return nil
}

// Describe returns a copy of one deployment.
func (f *Fleet) Describe(id string) (Deployment, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	d, ok := f.deps[id]
	if !ok {
		return Deployment{}, false
	}
	return d.clone(), true
}

// List returns copies of all deployments in admission order.
func (f *Fleet) List() []Deployment {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Deployment, 0, len(f.order))
	for _, id := range f.order {
		out = append(out, f.deps[id].clone())
	}
	return out
}

// Stats snapshots counters and utilization gauges.
func (f *Fleet) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := Stats{
		Deployments:   len(f.deps),
		Admitted:      f.admitted,
		Rejected:      f.rejected,
		Released:      f.released,
		Moves:         f.moves,
		Repaired:      f.repaired,
		RepairMoves:   f.repairMoves,
		ParkEvictions: f.parkEvicts,
		Preemptions:   f.preempts,
		SolverCalls:   f.solves.Load(),
	}
	// Sum in admission order so the gauge is deterministic (map iteration
	// order would reorder the float additions run to run).
	for _, id := range f.order {
		d := f.deps[id]
		s.ReservedFPS += d.ReservedFPS
		switch d.SLO.Class.Canon() {
		case ClassGuaranteed:
			s.GuaranteedActive++
		case ClassBestEffort:
			s.BestEffortActive++
		default:
			s.StandardActive++
		}
	}
	for v := 0; v < f.base.N(); v++ {
		u := f.residual.NodeLoad(model.NodeID(v))
		s.MeanNodeUtil += u
		if u > s.MaxNodeUtil {
			s.MaxNodeUtil = u
		}
	}
	if n := f.base.N(); n > 0 {
		s.MeanNodeUtil /= float64(n)
	}
	for l := 0; l < f.base.M(); l++ {
		u := f.residual.LinkLoad(l)
		s.MeanLinkUtil += u
		if u > s.MaxLinkUtil {
			s.MaxLinkUtil = u
		}
	}
	if m := f.base.M(); m > 0 {
		s.MeanLinkUtil /= float64(m)
	}
	return s
}

// Utilization returns the outstanding load fraction per node and per link
// (copies; indices match the base network's node and link IDs).
func (f *Fleet) Utilization() (node, link []float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	node = make([]float64, f.base.N())
	for v := range node {
		node[v] = f.residual.NodeLoad(model.NodeID(v))
	}
	link = make([]float64, f.base.M())
	for l := range link {
		link[l] = f.residual.LinkLoad(l)
	}
	return node, link
}

// RebalanceOptions tunes a rebalance pass.
type RebalanceOptions struct {
	// MaxMoves caps applied migrations per pass; <= 0 selects
	// DefaultMaxMoves.
	MaxMoves int `json:"max_moves,omitempty"`
	// MinGain is the migration-cost guard: a re-solve is applied only when
	// its relative improvement (delay decrease or rate increase) is at
	// least this fraction; <= 0 selects DefaultMinGain.
	MinGain float64 `json:"min_gain,omitempty"`
	// Workers > 1 enables the concurrent proposal phase: candidate
	// re-solves run ahead of the application loop in chunks, each against
	// its own residual snapshot of the committed state at chunk time (the
	// candidate's reservation removed, everyone else's kept), then
	// proposals are applied sequentially in the usual latest-first order
	// with every guard re-validated against the live residual network.
	// Concurrency is capped at Workers (further bounded by the installed
	// engine pool — UsePool — or a transient pool). <= 1 keeps the fully
	// sequential pass, whose re-solves additionally observe every earlier
	// move of the same pass rather than only earlier chunks'.
	Workers int `json:"workers,omitempty"`
}

// Defaults for RebalanceOptions.
const (
	DefaultMaxMoves = 4
	DefaultMinGain  = 0.05
)

// Move reports one rebalance decision for a deployment.
type Move struct {
	ID string `json:"id"`
	// OldValue and NewValue are delays in ms (min-delay deployments) or
	// rates in fps (streaming deployments), both evaluated on the same
	// freed residual network: OldValue is the existing mapping re-scored
	// there, NewValue the re-solved one. An unchanged mapping therefore
	// gains exactly zero — freed capacity alone never counts as a
	// migration.
	OldValue float64 `json:"old_value"`
	NewValue float64 `json:"new_value"`
	// Gain is the relative improvement ((old-new)/old for delay,
	// (new-old)/old for rate).
	Gain float64 `json:"gain"`
	// Applied reports whether the migration was committed.
	Applied bool `json:"applied"`
	// Reason explains skipped moves.
	Reason string `json:"reason,omitempty"`
}

// Report summarizes one rebalance pass.
type Report struct {
	Considered int    `json:"considered"`
	Applied    int    `json:"applied"`
	Moves      []Move `json:"moves"`
	// MeanGain averages the relative improvement of applied moves.
	MeanGain float64 `json:"mean_gain"`
}

// proposal is one precomputed rebalance re-solve from the concurrent
// proposal phase.
type proposal struct {
	m   *model.Mapping
	err error
}

// proposeLocked concurrently re-solves the candidates ids[start:end], each
// against its own residual snapshot of the current committed state (the
// candidate's reservation removed, everyone else's kept), writing into
// out[start:end]. Concurrency is capped at width on top of the pool's own
// bound. Caller holds f.mu, which is exactly what makes the unlocked reads
// inside the workers safe: nothing can mutate deployments or reservations
// while the chunk solves. Per-goroutine snapshots and solver scratch make
// the chunk embarrassingly parallel.
func (f *Fleet) proposeLocked(ids []string, out []proposal, start, end, width int, pool *engine.Pool) {
	pool.ParallelForN(width, end-start, func(i int) {
		i += start
		d := f.deps[ids[i]]
		others := make([]model.Reservation, 0, len(f.order)-1)
		for _, oid := range f.order {
			if oid != ids[i] {
				others = append(others, f.deps[oid].reservation)
			}
		}
		// CloneEmpty keeps the churn capacity factors: a proposal solved
		// against a fresh NewResidualNetwork would see every down node at
		// full nominal power and re-propose it, making the parallel path
		// diverge from the sequential one on churned networks.
		rn := f.residual.CloneEmpty()
		if err := rn.SetLoad(others); err != nil {
			out[i] = proposal{err: err}
			return
		}
		req := Request{
			Tenant:    d.Tenant,
			Pipeline:  d.pipe,
			Src:       d.src,
			Dst:       d.dst,
			Objective: d.Objective,
			SLO:       d.SLO,
		}
		// Safe off the coordinating goroutine: each worker solves a distinct
		// deployment, so the warm states never alias.
		m, _, _, err := f.solveCounted(rn, req, d.cost, f.warmFor(d))
		out[i] = proposal{m: m, err: err}
	})
}

// Rebalance re-solves deployments against the capacity freed since they
// were admitted: each candidate's own reservation is removed, its objective
// re-solved on the resulting residual network, and the migration applied
// only when the relative improvement clears opt.MinGain (the migration-cost
// guard) and the new reservation fits. Deployments admitted latest are
// considered first — they were solved against the most contended network,
// so freed capacity helps them most.
//
// With opt.Workers > 1 the re-solves run concurrently in chunks ahead of
// the application loop (see RebalanceOptions.Workers); applications stay
// sequential and every guard — gain, SLO, reserved rate, fit — is evaluated
// against the live residual network at application time, so a stale
// proposal can be skipped but never corrupt capacity accounting.
func (f *Fleet) Rebalance(opt RebalanceOptions) Report {
	if opt.MaxMoves <= 0 {
		opt.MaxMoves = DefaultMaxMoves
	}
	if opt.MinGain <= 0 {
		opt.MinGain = DefaultMinGain
	}
	t0 := time.Now()
	defer rebalanceSeconds.ObserveSince(t0)
	f.mu.Lock()
	f.beginTxnLocked(wal.KindRebalance)
	rep := f.rebalanceLocked(opt)
	commit := f.endTxnLocked()
	f.mu.Unlock()
	commit()
	return rep
}

// rebalanceLocked is the rebalance pass body. Caller holds f.mu inside a
// WAL epoch.
func (f *Fleet) rebalanceLocked(opt RebalanceOptions) Report {
	// Higher SLO classes are considered first; within a class, deployments
	// admitted latest first — they were solved against the most contended
	// network, so freed capacity helps them most.
	ids := append([]string(nil), f.order...)
	sort.SliceStable(ids, func(i, j int) bool {
		di, dj := f.deps[ids[i]], f.deps[ids[j]]
		if ri, rj := di.SLO.Class.Rank(), dj.SLO.Class.Rank(); ri != rj {
			return ri > rj
		}
		return di.Seq > dj.Seq
	})

	// Parallel mode solves candidates ahead of the application loop in
	// chunks, so a pass that stops at MaxMoves applied migrations wastes at
	// most one chunk of speculative solves — and every Deploy/Release
	// blocked on f.mu waits for at most the current chunk, not all of ids.
	parallel := opt.Workers > 1 && len(ids) > 1
	var proposals []proposal
	var pool *engine.Pool
	proposed := 0
	chunk := 0
	if parallel {
		proposals = make([]proposal, len(ids))
		pool = f.pool
		if pool == nil {
			transient := engine.NewPool(opt.Workers)
			defer transient.Close()
			pool = transient
		}
		chunk = 2 * opt.Workers
		if chunk < opt.MaxMoves {
			chunk = opt.MaxMoves
		}
	}

	var rep Report
	for ci, id := range ids {
		if rep.Applied >= opt.MaxMoves {
			break
		}
		if parallel && ci >= proposed {
			end := ci + chunk
			if end > len(ids) {
				end = len(ids)
			}
			f.proposeLocked(ids, proposals, ci, end, opt.Workers, pool)
			proposed = end
		}
		d := f.deps[id]
		rep.Considered++

		// Free the candidate's own reservation for the scoring snapshot
		// (and, in the sequential pass, the re-solve).
		saved := d.reservation
		d.reservation = model.Reservation{
			NodeFrac: make([]float64, f.base.N()),
			LinkFrac: make([]float64, f.base.M()),
		}
		f.recomputeLocked()
		snap := f.residual.Snapshot()

		var m *model.Mapping
		var err error
		if parallel {
			m, err = proposals[ci].m, proposals[ci].err
		} else {
			req := Request{
				Tenant:    d.Tenant,
				Pipeline:  d.pipe,
				Src:       d.src,
				Dst:       d.dst,
				Objective: d.Objective,
				SLO:       d.SLO,
			}
			m, _, _, err = f.solveCounted(f.residual, req, d.cost, f.warmFor(d))
		}
		move := Move{ID: id}
		restore := func(reason string) {
			d.reservation = saved
			f.recomputeLocked()
			move.Applied = false
			move.Reason = reason
			rep.Moves = append(rep.Moves, move)
		}
		if err != nil {
			restore(fmt.Sprintf("re-solve failed: %v", err))
			continue
		}
		// Never migrate onto a down node: a zero-cost module (pinned
		// source/sink) reserves nothing there, so the capacity guards
		// alone would let a hostless mapping commit. Deploy and Repair
		// carry the same guard.
		if v, down := f.residual.DownNode(m.Assign); down {
			restore(fmt.Sprintf("proposed mapping uses down node v%d", v))
			continue
		}
		// Score the proposed mapping on the live freed snapshot. In the
		// sequential pass this snapshot is the one the solve ran against;
		// in the parallel pass it additionally reflects moves applied
		// earlier in this pass, keeping the guards honest for stale
		// proposals.
		delay := model.TotalDelay(snap, d.pipe, m, d.cost)
		rate := model.FrameRate(model.SharedBottleneck(snap, d.pipe, m))
		// Baseline: the existing mapping re-scored on the same freed
		// snapshot, so gain measures better placement rather than the
		// freed capacity both mappings would enjoy.
		curM := model.NewMapping(d.Assignment)
		curDelay := model.TotalDelay(snap, d.pipe, curM, d.cost)
		curRate := model.FrameRate(model.SharedBottleneck(snap, d.pipe, curM))
		if d.Objective == model.MinDelay {
			move.OldValue, move.NewValue = curDelay, delay
			if curDelay > 0 && !math.IsInf(curDelay, 1) {
				move.Gain = (curDelay - delay) / curDelay
			}
		} else {
			move.OldValue, move.NewValue = curRate, rate
			if curRate > 0 {
				move.Gain = (rate - curRate) / curRate
			}
		}
		if move.Gain < opt.MinGain {
			restore("gain below migration-cost guard")
			continue
		}
		if d.SLO.MaxDelayMs > 0 && delay > d.SLO.MaxDelayMs {
			restore("migration would violate the delay SLO")
			continue
		}
		if rate < d.ReservedFPS {
			restore("re-solve cannot sustain reserved rate")
			continue
		}
		res, err := model.MappingReservation(f.base, d.pipe, m, d.ReservedFPS)
		if err != nil {
			restore(fmt.Sprintf("reservation: %v", err))
			continue
		}
		if !f.residual.Fits(res) {
			restore("new reservation does not fit")
			continue
		}
		// Commit the migration; the reserved rate is unchanged.
		d.Assignment = m.Assign
		d.Mapping = m.String()
		d.DelayMs = delay
		d.RateFPS = rate
		d.reservation = res
		f.recomputeLocked()
		f.moves++
		f.record(journal.Event{
			Kind:       journal.RebalanceMove,
			Deployment: id,
			Tenant:     d.Tenant,
			Detail:     fmt.Sprintf("gain %.4f (%.3f -> %.3f)", move.Gain, move.OldValue, move.NewValue),
			Mapping:    d.Mapping,
			DelayMs:    delay,
			RateFPS:    rate,
		})
		f.txnUpdate(d)
		move.Applied = true
		rep.Moves = append(rep.Moves, move)
		rep.Applied++
		rep.MeanGain += move.Gain
	}
	if rep.Applied > 0 {
		rep.MeanGain /= float64(rep.Applied)
	}
	rebalanceMovesTotal.Add(uint64(rep.Applied))
	return rep
}
