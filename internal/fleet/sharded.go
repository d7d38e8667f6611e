package fleet

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"elpc/internal/engine"
	"elpc/internal/journal"
	"elpc/internal/model"
	"elpc/internal/wal"
)

// This file is the sharded fleet manager: a region partition of the shared
// network (model.PartitionNetwork over graph.PartitionK) with one
// independently locked Fleet per region, so deployments in different
// regions admit, release, and repair concurrently instead of serializing on
// one global mutex. Single-region traffic never takes more than its own
// shard's lock; cross-region traffic falls back to a coordinator that
// two-phase-reserves the boundary links between regions.

// Manager is the placement-management surface shared by Fleet and
// ShardedFleet: everything the planning service, the churn reconciler, and
// the harness scenarios need from a multi-tenant placement engine. A plain
// Fleet is a Manager with one global lock; a ShardedFleet is a Manager
// whose regions make progress independently.
type Manager interface {
	// Deploy admits one pipeline (rejections wrap ErrRejected).
	Deploy(Request) (Deployment, error)
	// DeployBatch admits a burst of requests in one class/scarcity-ordered
	// pass (one scatter per shard plus one coordinator pass when sharded),
	// reporting per-request outcomes at the original indices.
	DeployBatch([]Request) []BatchOutcome
	// TakePreempted drains the deployments displaced by guaranteed
	// admissions since the last call, for re-queueing.
	TakePreempted() []ParkedDeployment
	// Release returns a deployment's capacity (unknown IDs wrap ErrNotFound).
	Release(id string) error
	// Describe returns a copy of one deployment.
	Describe(id string) (Deployment, bool)
	// List returns copies of all deployments.
	List() []Deployment
	// Stats snapshots counters and utilization gauges.
	Stats() Stats
	// Rebalance runs one rebalance pass.
	Rebalance(RebalanceOptions) Report
	// ApplyChurn applies a transactional batch of network-mutation events.
	ApplyChurn([]model.ChurnEvent) error
	// Affected returns the IDs of deployments whose placements touch any
	// element the events mutate.
	Affected([]model.ChurnEvent) []string
	// Repair re-solves exactly the given deployments after churn.
	Repair([]string, RepairOptions) RepairReport
	// Network returns the shared base network.
	Network() *model.Network
	// UsePool installs the engine pool parallel passes fan out over.
	UsePool(*engine.Pool)
	// UseJournal installs the event journal state transitions are recorded
	// into (nil disables recording).
	UseJournal(*journal.Journal)
	// UseWAL installs the write-ahead log every mutating transition is
	// durably recorded into before acknowledgment (nil disables logging).
	UseWAL(*wal.Log)
	// SLOReport re-scores every live deployment's delivered delay and rate
	// on the current residual network against its admission SLO.
	SLOReport() SLOReport
	// SolveCount returns the number of objective solves run so far.
	SolveCount() uint64
	// SetWarmStart toggles warm-start incremental solving (on by default).
	// Warm and cold solves are byte-identical; the toggle trades CPU for
	// retained-grid memory.
	SetWarmStart(bool)
	// WarmSolveStats snapshots the warm-start solve outcome counters.
	WarmSolveStats() WarmSolveStats
}

// Compile-time checks that both managers implement the shared surface.
var (
	_ Manager = (*Fleet)(nil)
	_ Manager = (*ShardedFleet)(nil)
)

// TwoPhaseAttempts is the number of propose/commit rounds a cross-region
// deployment gets before admission control gives up: the solve runs without
// any shard lock held, so a concurrent single-shard admission can invalidate
// the proposal, in which case the coordinator re-solves against the fresher
// composed view.
const TwoPhaseAttempts = 2

// crossIDPrefix namespaces coordinator-owned deployment IDs ("x-d-000001");
// shard-owned IDs carry "s<shard>-" (empty at K=1, so a one-shard fleet's
// IDs match a plain Fleet's byte for byte).
const crossIDPrefix = "x-"

// ShardedFleet partitions the shared network into K regions and runs one
// Fleet per region, each with its own mutex, so placements in different
// regions never contend. Deployments are routed by placement affinity:
//
//   - Src and Dst in the same region: the deployment is solved entirely
//     inside that region's sub-network under that shard's lock alone. If
//     the region rejects it (no in-region path, or regional capacity
//     exhausted) and K > 1, the request falls back to the coordinator.
//   - Src and Dst in different regions — or a regional fallback: the
//     coordinator solves on the composed residual view of the whole network
//     and two-phase-reserves the result: the solve runs with no shard lock
//     held (phase 1), then every involved shard is locked in index order and
//     the reservation — including the cross-region boundary links no shard
//     owns — is re-validated against the live composed view and committed
//     atomically (phase 2), retrying the solve when a concurrent admission
//     invalidated it.
//
// Churn events are routed to the shard owning the mutated element (boundary
// links to the coordinator), so Repair stays incremental per shard: an event
// inside one region never examines, locks, or re-solves another region's
// deployments.
//
// A one-shard ShardedFleet is behaviorally identical to a plain Fleet —
// same admissions, same placements, same IDs, same stats — which is the
// invariant TestShardedK1Equivalence enforces.
//
// All methods are safe for concurrent use.
type ShardedFleet struct {
	base   *model.Network
	part   *model.Partition
	shards []*Fleet

	// Coordinator state: cross-region deployments and the boundary-link
	// capacity view. cmu serializes coordinator operations; operations that
	// also touch shard state additionally lock every shard (always in index
	// order, after cmu — single-shard traffic takes only its shard's lock,
	// so the two orders can never deadlock).
	cmu        sync.Mutex
	cres       *model.ResidualNetwork // boundary-link churn factors (loads unused)
	crossDeps  map[string]*Deployment
	crossOrder []string
	crossSum   model.Reservation // sum of cross-region reservations, overlaid on every shard
	crossSeq   uint64

	crossSolves   atomic.Uint64
	crossAdmitted uint64
	crossRejected uint64
	crossReleased uint64
	crossRepaired uint64
	crossMoves    uint64
	crossParks    uint64
	// fallbacks counts single-region rejections retried through the
	// coordinator; tpcRetries counts phase-2 validation failures that forced
	// a re-solve; tpcAborts counts admissions abandoned after exhausting
	// every two-phase round (the health engine's abort-rate signal).
	fallbacks  uint64
	tpcRetries uint64
	tpcAborts  uint64

	// jr receives coordinator-path events (2PC phases, cross-region repair
	// outcomes); shard-path events are recorded by the shards themselves.
	jr *journal.Journal
	// wal durably logs coordinator epochs (scope "x") and whole-fleet churn
	// batches; shard epochs are logged by the shards themselves. ctxn and
	// ctxnPre are the coordinator's in-flight record and its counter state
	// at epoch start (see wal.go).
	wal     *wal.Log
	ctxn    *wal.Record
	ctxnPre wal.Counters
}

// NewSharded partitions base into the given number of regions (via
// model.PartitionNetwork) and builds a ShardedFleet over them. shards must
// be in [1, base.N()]; one shard yields a fleet behaviorally identical to
// New(base).
func NewSharded(base *model.Network, shards int) (*ShardedFleet, error) {
	if base == nil {
		return nil, fmt.Errorf("fleet: nil network")
	}
	part, err := model.PartitionNetwork(base, shards)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	return NewShardedWithPartition(base, part)
}

// NewShardedWithPartition builds a ShardedFleet over a caller-supplied
// partition of base (for callers that partition along known cluster or
// datacenter boundaries instead of the default graph partitioner).
func NewShardedWithPartition(base *model.Network, part *model.Partition) (*ShardedFleet, error) {
	if base == nil {
		return nil, fmt.Errorf("fleet: nil network")
	}
	if part == nil || part.K < 1 || len(part.PartOf) != base.N() || len(part.LinkOwner) != base.M() {
		return nil, fmt.Errorf("fleet: partition does not match network shape")
	}
	s := &ShardedFleet{
		base:      base,
		part:      part,
		cres:      model.NewResidualNetwork(base),
		crossDeps: make(map[string]*Deployment),
		crossSum:  emptyReservation(base),
	}
	for r := 0; r < part.K; r++ {
		f, err := New(base)
		if err != nil {
			return nil, err
		}
		if part.K > 1 {
			f.idPrefix = fmt.Sprintf("s%d-", r)
			f.region = part.View(base, r)
		}
		s.shards = append(s.shards, f)
	}
	return s, nil
}

// Network returns the shared base network (full nominal capacity).
func (s *ShardedFleet) Network() *model.Network { return s.base }

// Partition returns the region partition the fleet is sharded along.
func (s *ShardedFleet) Partition() *model.Partition { return s.part }

// Shards returns the number of regions.
func (s *ShardedFleet) Shards() int { return s.part.K }

// UsePool installs the engine pool on every shard (see Fleet.UsePool).
func (s *ShardedFleet) UsePool(p *engine.Pool) {
	for _, sh := range s.shards {
		sh.UsePool(p)
	}
}

// UseJournal installs the event journal on every shard and the coordinator.
func (s *ShardedFleet) UseJournal(j *journal.Journal) {
	for _, sh := range s.shards {
		sh.UseJournal(j)
	}
	s.cmu.Lock()
	s.jr = j
	s.cmu.Unlock()
}

// recordCross appends one coordinator event to the installed journal
// (shard label "x", matching the crossIDPrefix namespace). Caller holds cmu.
func (s *ShardedFleet) recordCross(ev journal.Event) {
	if s.jr == nil {
		return
	}
	if ev.Actor == "" {
		ev.Actor = journal.ActorCoordinator
	}
	if ev.Shard == "" {
		ev.Shard = "x"
	}
	s.jr.Append(ev)
}

// SolveCount returns the objective solves run across all shards and the
// coordinator.
func (s *ShardedFleet) SolveCount() uint64 {
	n := s.crossSolves.Load()
	for _, sh := range s.shards {
		n += sh.SolveCount()
	}
	return n
}

// SetWarmStart toggles warm-start solving on every shard. Coordinator
// (cross-region) solves always run cold: their composed snapshots are
// rebuilt per attempt and owned by no shard, so there is no stable residual
// view to retain grids against.
func (s *ShardedFleet) SetWarmStart(on bool) {
	for _, sh := range s.shards {
		sh.SetWarmStart(on)
	}
}

// WarmSolveStats sums the warm-start outcome counters across shards.
func (s *ShardedFleet) WarmSolveStats() WarmSolveStats {
	var w WarmSolveStats
	for _, sh := range s.shards {
		ws := sh.WarmSolveStats()
		w.Rebuilds += ws.Rebuilds
		w.Partials += ws.Partials
		w.Hits += ws.Hits
		w.Bypasses += ws.Bypasses
	}
	return w
}

// lockShards acquires every shard's mutex in index order; unlockShards
// releases them. Coordinator paths always lock cmu first, then shards in
// this fixed order, so they cannot deadlock with each other or with
// single-shard operations (which take exactly one shard mutex and nothing
// else).
func (s *ShardedFleet) lockShards() {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
}

func (s *ShardedFleet) unlockShards() {
	for _, sh := range s.shards {
		sh.mu.Unlock()
	}
}

// shardOfID parses the owning shard index from a deployment ID ("s3-d-…"),
// returning -1 for coordinator ("x-d-…") and unprefixed IDs.
func shardOfID(id string) int {
	if !strings.HasPrefix(id, "s") {
		return -1
	}
	dash := strings.IndexByte(id, '-')
	if dash <= 1 {
		return -1
	}
	n, err := strconv.Atoi(id[1:dash])
	if err != nil || n < 0 {
		return -1
	}
	return n
}

// composedLocked assembles the residual view of the whole network from the
// shards' views and the coordinator's boundary ledger: every node and
// internal link reads its owning shard's load and churn factor (shard loads
// already include the cross-region overlay, so nothing is counted twice);
// boundary links read the coordinator's churn factor and the summed
// cross-region load. Caller holds every shard lock and cmu.
func (s *ShardedFleet) composedLocked() *model.ResidualNetwork {
	comp := model.NewResidualNetwork(s.base)
	nodeCap := make([]float64, s.base.N())
	linkCap := make([]float64, s.base.M())
	load := emptyReservation(s.base)
	for v := range nodeCap {
		sh := s.shards[s.part.PartOf[v]]
		nodeCap[v] = sh.residual.NodeCapacity(model.NodeID(v))
		load.NodeFrac[v] = sh.residual.NodeLoad(model.NodeID(v))
	}
	for l := range linkCap {
		if owner := s.part.LinkOwner[l]; owner != model.BoundaryOwner {
			linkCap[l] = s.shards[owner].residual.LinkCapacity(l)
			load.LinkFrac[l] = s.shards[owner].residual.LinkLoad(l)
		} else {
			linkCap[l] = s.cres.LinkCapacity(l)
			load.LinkFrac[l] = s.crossSum.LinkFrac[l]
		}
	}
	if err := comp.SetCapacityFactors(nodeCap, linkCap); err != nil {
		panic(fmt.Sprintf("fleet: composed factors: %v", err)) // shapes match by construction
	}
	if err := comp.SetLoad([]model.Reservation{load}); err != nil {
		panic(fmt.Sprintf("fleet: composed load: %v", err))
	}
	return comp
}

// rebuildCrossLocked recomputes the cross-region reservation overlay as the
// ordered sum of coordinator deployments (excluding the given ID, if any)
// and pushes it onto every shard, whose loads are then recomputed. Caller
// holds every shard lock and cmu.
func (s *ShardedFleet) rebuildCrossLocked(exclude string) {
	sum := emptyReservation(s.base)
	for _, id := range s.crossOrder {
		if id == exclude {
			continue
		}
		res := s.crossDeps[id].reservation
		for i, f := range res.NodeFrac {
			sum.NodeFrac[i] += f
		}
		for i, f := range res.LinkFrac {
			sum.LinkFrac[i] += f
		}
	}
	s.crossSum = sum
	for _, sh := range s.shards {
		sh.external = sum
		sh.recomputeLocked()
	}
}

// Deploy admits one pipeline, routed by placement affinity: same-region
// endpoints go to their shard alone; cross-region endpoints — and
// same-region requests the region rejected, when K > 1 — go through the
// coordinator's two-phase path. Rejections wrap ErrRejected; structural
// errors (bad request) do not.
func (s *ShardedFleet) Deploy(req Request) (Deployment, error) {
	if err := s.shards[0].validateRequest(req); err != nil {
		return Deployment{}, err
	}
	if s.part.SameRegion(req.Src, req.Dst) {
		d, err := s.shards[s.part.Region(req.Src)].Deploy(req)
		if err == nil || s.part.K == 1 || !errors.Is(err, ErrRejected) {
			return d, err
		}
		// The region could not host it; retry with the whole network in
		// view. The regional rejection stays counted on the shard (the
		// fallback counter reconciles fleet-level Stats).
		return s.deployCross(req, true)
	}
	return s.deployCross(req, false)
}

// DeployBatch admits a burst of requests with one scatter per shard plus
// one coordinator pass: structurally invalid requests fail fast, valid ones
// are routed by placement affinity — same-region requests join their
// shard's single-lock-epoch batch (the shards' batches run concurrently,
// each under its own lock alone), and cross-region requests, plus regional
// rejections falling back at K > 1, run through the coordinator's two-phase
// path in one class/scarcity-ordered pass. Outcomes are reported at each
// request's original index.
func (s *ShardedFleet) DeployBatch(reqs []Request) []BatchOutcome {
	if s.part.K == 1 {
		return s.shards[0].DeployBatch(reqs)
	}
	out := make([]BatchOutcome, len(reqs))
	perShard := make([][]int, s.part.K)
	var cross []int
	for i := range reqs {
		out[i].Index = i
		if err := s.shards[0].validateRequest(reqs[i]); err != nil {
			out[i].Err = err
			continue
		}
		if s.part.SameRegion(reqs[i].Src, reqs[i].Dst) {
			r := s.part.Region(reqs[i].Src)
			perShard[r] = append(perShard[r], i)
		} else {
			cross = append(cross, i)
		}
	}

	// Scatter: one batch per shard, concurrent — each goroutine takes only
	// its own shard's lock, so regions make progress independently. Each
	// goroutine writes only its own fallbacks slot and its own out indices.
	fallbacks := make([][]int, s.part.K)
	var wg sync.WaitGroup
	for r, idx := range perShard {
		if len(idx) == 0 {
			continue
		}
		wg.Add(1)
		go func(r int, idx []int) {
			defer wg.Done()
			sub := make([]Request, len(idx))
			for k, i := range idx {
				sub[k] = reqs[i]
			}
			for k, o := range s.shards[r].DeployBatch(sub) {
				i := idx[k]
				if o.Err != nil && errors.Is(o.Err, ErrRejected) {
					// The region could not host it; retry through the
					// coordinator after the scatter. The regional rejection
					// stays counted on the shard (the fallback counter
					// reconciles fleet-level Stats, as in Deploy).
					fallbacks[r] = append(fallbacks[r], i)
					continue
				}
				out[i].Deployment, out[i].Err = o.Deployment, o.Err
			}
		}(r, idx)
	}
	wg.Wait()
	fellBack := make(map[int]bool)
	for _, fb := range fallbacks {
		for _, i := range fb {
			fellBack[i] = true
		}
		cross = append(cross, fb...)
	}

	// Gather: one coordinator pass over the cross-region (and fallen-back)
	// requests in batch-priority order.
	sortByPriority(reqs, cross)
	for _, i := range cross {
		out[i].Deployment, out[i].Err = s.deployCross(reqs[i], fellBack[i])
	}
	return out
}

// TakePreempted drains the deployments displaced by guaranteed admissions
// across every shard (the coordinator's two-phase path never preempts).
func (s *ShardedFleet) TakePreempted() []ParkedDeployment {
	var out []ParkedDeployment
	for _, sh := range s.shards {
		out = append(out, sh.TakePreempted()...)
	}
	return out
}

// rejectCross records and wraps a coordinator admission failure, journaling
// the rejection with the requesting tenant. Caller holds cmu.
func (s *ShardedFleet) rejectCross(req Request, format string, args ...any) error {
	s.crossRejected++
	rejectedTotal.Inc()
	reason := fmt.Sprintf(format, args...)
	s.recordCross(journal.Event{Kind: journal.DeployRejected, Tenant: req.Tenant, Detail: reason})
	return fmt.Errorf("fleet: %w: %s", ErrRejected, reason)
}

// deployCross is the coordinator path: solve on the composed residual view
// of the whole network with no shard lock held (phase 1), then lock every
// shard and two-phase-reserve — re-validate the proposal against the live
// composed view, including the boundary links between regions, and commit
// the reservation atomically (phase 2). A proposal invalidated by a
// concurrent single-shard admission is re-solved up to TwoPhaseAttempts
// times.
func (s *ShardedFleet) deployCross(req Request, fallback bool) (Deployment, error) {
	t0 := time.Now()
	defer deploySeconds.ObserveSince(t0)
	cost := model.DefaultCostOptions()
	if req.Cost != nil {
		cost = *req.Cost
	}
	s.cmu.Lock()
	s.beginCrossTxnLocked(wal.KindDeploy)
	d, err := s.deployCrossLocked(req, fallback, cost)
	commit := s.endCrossTxnLocked()
	s.cmu.Unlock()
	commit()
	return d, err
}

// deployCrossLocked is the two-phase admission body. Caller holds s.cmu
// inside a coordinator WAL epoch.
func (s *ShardedFleet) deployCrossLocked(req Request, fallback bool, cost model.CostOptions) (Deployment, error) {
	if fallback {
		s.fallbacks++
		tpcFallbacksTotal.Inc()
	}

	for attempt := 0; attempt < TwoPhaseAttempts; attempt++ {
		// Phase 1 — propose: compose the current view (briefly locking the
		// shards), then solve with no shard lock held, so regional traffic
		// keeps flowing underneath the expensive solve.
		s.lockShards()
		comp := s.composedLocked()
		s.unlockShards()
		s.crossSolves.Add(1)
		m, _, _, err := solve(comp.Snapshot(), req, cost, nil)
		if err != nil {
			if errors.Is(err, model.ErrInfeasible) {
				return Deployment{}, s.rejectCross(req, "no feasible mapping on composed residual network: %v", err)
			}
			return Deployment{}, err
		}
		s.recordCross(journal.Event{
			Kind: journal.TwoPhaseReserve, Tenant: req.Tenant,
			Detail:  fmt.Sprintf("round %d/%d proposed", attempt+1, TwoPhaseAttempts),
			Mapping: m.String(),
		})

		// Phase 2 — reserve: under every shard lock, re-score the proposed
		// mapping on the live composed view, re-run every admission guard,
		// and commit node, internal-link, and boundary-link capacity in one
		// atomic step.
		s.lockShards()
		live := s.composedLocked()
		snap := live.Snapshot()
		if v, down := live.DownNode(m.Assign); down {
			s.unlockShards()
			return Deployment{}, s.rejectCross(req, "no feasible placement: node v%d is down", v)
		}
		delay := model.TotalDelay(snap, req.Pipeline, m, cost)
		rate := model.FrameRate(model.SharedBottleneck(snap, req.Pipeline, m))
		if req.SLO.MaxDelayMs > 0 && delay > req.SLO.MaxDelayMs {
			s.unlockShards()
			return Deployment{}, s.rejectCross(req, "delay %.3f ms exceeds SLO %.3f ms", delay, req.SLO.MaxDelayMs)
		}
		reserved := admissionRate(req, rate)
		if rate < reserved || math.IsInf(delay, 1) {
			s.unlockShards()
			return Deployment{}, s.rejectCross(req, "sustainable rate %.3f fps below demand %.3f fps", rate, reserved)
		}
		res, err := model.MappingReservation(s.base, req.Pipeline, m, reserved)
		if err != nil {
			s.unlockShards()
			return Deployment{}, err
		}
		if !live.Fits(res) {
			// A concurrent regional admission consumed the capacity the
			// proposal was solved against; re-solve against the fresher view.
			s.unlockShards()
			s.tpcRetries++
			tpcRetriesTotal.Inc()
			s.recordCross(journal.Event{
				Kind: journal.TwoPhaseValidate, Tenant: req.Tenant,
				Detail: fmt.Sprintf("round %d/%d: reservation no longer fits the live composed view", attempt+1, TwoPhaseAttempts),
			})
			continue
		}
		s.crossSeq++
		d := &Deployment{
			ID:          fmt.Sprintf("%sd-%06d", crossIDPrefix, s.crossSeq),
			Tenant:      req.Tenant,
			Objective:   req.Objective,
			Assignment:  m.Assign,
			Mapping:     m.String(),
			DelayMs:     delay,
			RateFPS:     rate,
			ReservedFPS: reserved,
			SLO:         req.SLO,
			Seq:         s.crossSeq,
			pipe:        req.Pipeline,
			cost:        cost,
			src:         req.Src,
			dst:         req.Dst,
			reservation: res,
		}
		s.crossDeps[d.ID] = d
		s.crossOrder = append(s.crossOrder, d.ID)
		s.rebuildCrossLocked("")
		s.unlockShards()
		s.crossAdmitted++
		admittedTotal.Inc()
		s.ctxnDeploy(d)
		s.recordCross(journal.Event{
			Kind: journal.TwoPhaseCommit, Deployment: d.ID, Tenant: d.Tenant,
			Detail: fmt.Sprintf("round %d/%d committed", attempt+1, TwoPhaseAttempts),
		})
		s.recordCross(journal.Event{
			Kind: journal.DeployAdmitted, Deployment: d.ID, Tenant: d.Tenant,
			Detail:  fmt.Sprintf("cross-region, reserved %.3f fps", reserved),
			Mapping: d.Mapping, DelayMs: delay, RateFPS: rate,
		})
		return d.clone(), nil
	}
	s.tpcAborts++
	tpcAbortsTotal.Inc()
	s.recordCross(journal.Event{
		Kind: journal.TwoPhaseAbort, Tenant: req.Tenant,
		Detail: fmt.Sprintf("%d two-phase rounds exhausted", TwoPhaseAttempts),
	})
	return Deployment{}, s.rejectCross(req, "cross-region reservation lost %d two-phase rounds to concurrent admissions", TwoPhaseAttempts)
}

// Release returns a deployment's capacity to the fleet, routed to the
// owning shard or the coordinator by the ID's namespace.
func (s *ShardedFleet) Release(id string) error {
	if s.part.K == 1 {
		return s.shards[0].Release(id)
	}
	if strings.HasPrefix(id, crossIDPrefix) {
		s.cmu.Lock()
		s.beginCrossTxnLocked(wal.KindRelease)
		err := s.releaseCrossLocked(id)
		commit := s.endCrossTxnLocked()
		s.cmu.Unlock()
		commit()
		return err
	}
	if r := shardOfID(id); r >= 0 && r < len(s.shards) {
		return s.shards[r].Release(id)
	}
	return fmt.Errorf("fleet: %w: %q", ErrNotFound, id)
}

// releaseCrossLocked removes a coordinator deployment and rebuilds the
// cross-region overlay. Caller holds s.cmu inside a coordinator WAL epoch.
func (s *ShardedFleet) releaseCrossLocked(id string) error {
	d, ok := s.crossDeps[id]
	if !ok {
		return fmt.Errorf("fleet: %w: %q", ErrNotFound, id)
	}
	s.lockShards()
	delete(s.crossDeps, id)
	s.crossOrder = removeID(s.crossOrder, id)
	s.rebuildCrossLocked("")
	s.unlockShards()
	s.crossReleased++
	s.recordCross(journal.Event{Kind: journal.ReleaseDone, Deployment: id, Tenant: d.Tenant})
	s.ctxnRemove(id)
	return nil
}

// removeID deletes the first occurrence of id, preserving order.
func removeID(order []string, id string) []string {
	for i, oid := range order {
		if oid == id {
			return append(order[:i], order[i+1:]...)
		}
	}
	return order
}

// Describe returns a copy of one deployment.
func (s *ShardedFleet) Describe(id string) (Deployment, bool) {
	if s.part.K == 1 {
		return s.shards[0].Describe(id)
	}
	if strings.HasPrefix(id, crossIDPrefix) {
		s.cmu.Lock()
		defer s.cmu.Unlock()
		d, ok := s.crossDeps[id]
		if !ok {
			return Deployment{}, false
		}
		return d.clone(), true
	}
	if r := shardOfID(id); r >= 0 && r < len(s.shards) {
		return s.shards[r].Describe(id)
	}
	return Deployment{}, false
}

// List returns copies of all deployments: shard 0's in admission order,
// then shard 1's, and so on, with coordinator (cross-region) deployments
// last.
func (s *ShardedFleet) List() []Deployment {
	var out []Deployment
	for _, sh := range s.shards {
		out = append(out, sh.List()...)
	}
	if s.part.K > 1 {
		s.cmu.Lock()
		for _, id := range s.crossOrder {
			out = append(out, s.crossDeps[id].clone())
		}
		s.cmu.Unlock()
	}
	return out
}

// Stats merges counters across shards and the coordinator and gauges
// utilization on the composed view. Admitted/Rejected count request
// outcomes: a regional rejection that the coordinator fallback then admits
// contributes one admission and no rejection (the fallback counter
// reconciles the per-shard tallies, which ShardStats exposes raw).
func (s *ShardedFleet) Stats() Stats {
	if s.part.K == 1 {
		return s.shards[0].Stats()
	}
	s.cmu.Lock()
	defer s.cmu.Unlock()
	s.lockShards()
	defer s.unlockShards()

	st := Stats{
		Admitted:      s.crossAdmitted,
		Rejected:      s.crossRejected,
		Released:      s.crossReleased,
		Repaired:      s.crossRepaired,
		RepairMoves:   s.crossMoves,
		ParkEvictions: s.crossParks,
		SolverCalls:   s.crossSolves.Load(),
		Deployments:   len(s.crossDeps),
	}
	tally := func(d *Deployment) {
		st.ReservedFPS += d.ReservedFPS
		switch d.SLO.Class.Canon() {
		case ClassGuaranteed:
			st.GuaranteedActive++
		case ClassBestEffort:
			st.BestEffortActive++
		default:
			st.StandardActive++
		}
	}
	for _, id := range s.crossOrder {
		tally(s.crossDeps[id])
	}
	for _, sh := range s.shards {
		st.Deployments += len(sh.deps)
		st.Admitted += sh.admitted
		st.Rejected += sh.rejected
		st.Released += sh.released
		st.Moves += sh.moves
		st.Repaired += sh.repaired
		st.RepairMoves += sh.repairMoves
		st.ParkEvictions += sh.parkEvicts
		st.Preemptions += sh.preempts
		st.SolverCalls += sh.solves.Load()
		for _, id := range sh.order {
			tally(sh.deps[id])
		}
	}
	// Every fallback begins with a regional rejection that is not a request
	// outcome — the request went on to the coordinator, which recorded its
	// own admission or rejection.
	st.Rejected -= s.fallbacks

	for v := 0; v < s.base.N(); v++ {
		u := s.shards[s.part.PartOf[v]].residual.NodeLoad(model.NodeID(v))
		st.MeanNodeUtil += u
		if u > st.MaxNodeUtil {
			st.MaxNodeUtil = u
		}
	}
	if n := s.base.N(); n > 0 {
		st.MeanNodeUtil /= float64(n)
	}
	for l := 0; l < s.base.M(); l++ {
		var u float64
		if owner := s.part.LinkOwner[l]; owner != model.BoundaryOwner {
			u = s.shards[owner].residual.LinkLoad(l)
		} else {
			u = s.crossSum.LinkFrac[l]
		}
		st.MeanLinkUtil += u
		if u > st.MaxLinkUtil {
			st.MaxLinkUtil = u
		}
	}
	if m := s.base.M(); m > 0 {
		st.MeanLinkUtil /= float64(m)
	}
	return st
}

// ShardStat is one region's gauge block in ShardedStats (raw per-shard
// tallies: a coordinator fallback appears here as a regional rejection even
// when the request was ultimately admitted).
type ShardStat struct {
	// Shard is the region index.
	Shard int `json:"shard"`
	// Nodes and Links are the region's node count and internal-link count.
	Nodes int `json:"nodes"`
	Links int `json:"links"`
	// Deployments is the number currently placed inside the region.
	Deployments int `json:"deployments"`
	// Admitted/Rejected/Released are the shard's lifecycle counters.
	Admitted uint64 `json:"admitted"`
	Rejected uint64 `json:"rejected"`
	Released uint64 `json:"released"`
	// SolverCalls counts solves run under this shard's lock.
	SolverCalls uint64 `json:"solver_calls"`
	// MaxNodeUtil and MaxLinkUtil gauge the hottest element of the region.
	MaxNodeUtil float64 `json:"max_node_util"`
	MaxLinkUtil float64 `json:"max_link_util"`
}

// CoordinatorStats gauges the cross-region path of a ShardedFleet.
type CoordinatorStats struct {
	// BoundaryLinks is the size of the cross-region boundary set.
	BoundaryLinks int `json:"boundary_links"`
	// Deployments is the number of live coordinator-owned deployments.
	Deployments int `json:"deployments"`
	// Admitted/Rejected/Released are coordinator lifecycle counters.
	Admitted uint64 `json:"admitted"`
	Rejected uint64 `json:"rejected"`
	Released uint64 `json:"released"`
	// Fallbacks counts regional rejections retried through the coordinator;
	// TwoPhaseRetries counts phase-2 validation failures that forced a
	// re-solve against a fresher composed view; TwoPhaseAborts counts
	// admissions abandoned after exhausting every round.
	Fallbacks       uint64 `json:"fallbacks"`
	TwoPhaseRetries uint64 `json:"two_phase_retries"`
	TwoPhaseAborts  uint64 `json:"two_phase_aborts"`
	// SolverCalls counts coordinator solves (cross deploys and repairs).
	SolverCalls uint64 `json:"solver_calls"`
}

// ShardedStats is the per-region breakdown behind Stats, served by elpcd's
// /v1/stats as fleet_shards.
type ShardedStats struct {
	Shards      []ShardStat      `json:"shards"`
	Coordinator CoordinatorStats `json:"coordinator"`
}

// ShardStats snapshots the per-region and coordinator gauges.
func (s *ShardedFleet) ShardStats() ShardedStats {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	s.lockShards()
	defer s.unlockShards()
	out := ShardedStats{
		Coordinator: CoordinatorStats{
			BoundaryLinks:   len(s.part.Boundary),
			Deployments:     len(s.crossDeps),
			Admitted:        s.crossAdmitted,
			Rejected:        s.crossRejected,
			Released:        s.crossReleased,
			Fallbacks:       s.fallbacks,
			TwoPhaseRetries: s.tpcRetries,
			TwoPhaseAborts:  s.tpcAborts,
			SolverCalls:     s.crossSolves.Load(),
		},
	}
	for r, sh := range s.shards {
		stat := ShardStat{
			Shard:       r,
			Nodes:       len(s.part.Regions[r]),
			Deployments: len(sh.deps),
			Admitted:    sh.admitted,
			Rejected:    sh.rejected,
			Released:    sh.released,
			SolverCalls: sh.solves.Load(),
		}
		for _, v := range s.part.Regions[r] {
			if u := sh.residual.NodeLoad(v); u > stat.MaxNodeUtil {
				stat.MaxNodeUtil = u
			}
		}
		for l, owner := range s.part.LinkOwner {
			if owner != r {
				continue
			}
			stat.Links++
			if u := sh.residual.LinkLoad(l); u > stat.MaxLinkUtil {
				stat.MaxLinkUtil = u
			}
		}
		out.Shards = append(out.Shards, stat)
	}
	return out
}

// Utilization returns the outstanding load fraction per node and per link
// on the composed view (indices match the base network).
func (s *ShardedFleet) Utilization() (node, link []float64) {
	if s.part.K == 1 {
		return s.shards[0].Utilization()
	}
	s.cmu.Lock()
	defer s.cmu.Unlock()
	s.lockShards()
	defer s.unlockShards()
	node = make([]float64, s.base.N())
	for v := range node {
		node[v] = s.shards[s.part.PartOf[v]].residual.NodeLoad(model.NodeID(v))
	}
	link = make([]float64, s.base.M())
	for l := range link {
		if owner := s.part.LinkOwner[l]; owner != model.BoundaryOwner {
			link[l] = s.shards[owner].residual.LinkLoad(l)
		} else {
			link[l] = s.crossSum.LinkFrac[l]
		}
	}
	return node, link
}

// Snapshot materializes the composed residual network (all shards' loads
// and churn factors plus the boundary ledger) as a standalone Network.
func (s *ShardedFleet) Snapshot() *model.Network {
	if s.part.K == 1 {
		return s.shards[0].Snapshot()
	}
	s.cmu.Lock()
	defer s.cmu.Unlock()
	s.lockShards()
	defer s.unlockShards()
	return s.composedLocked().Snapshot()
}

// Rebalance runs one rebalance pass per shard (the options apply to each
// shard independently, so MaxMoves caps migrations per region) and merges
// the reports. Coordinator-owned cross-region deployments are not
// rebalanced: their placements only change when churn breaks them.
func (s *ShardedFleet) Rebalance(opt RebalanceOptions) Report {
	if s.part.K == 1 {
		return s.shards[0].Rebalance(opt)
	}
	var rep Report
	var gain float64
	for _, sh := range s.shards {
		r := sh.Rebalance(opt)
		rep.Considered += r.Considered
		rep.Applied += r.Applied
		rep.Moves = append(rep.Moves, r.Moves...)
		gain += r.MeanGain * float64(r.Applied)
	}
	if rep.Applied > 0 {
		rep.MeanGain = gain / float64(rep.Applied)
	}
	return rep
}

// splitChurn routes each event to the shard owning its target element;
// boundary-link events go to the coordinator (index -1). Events naming
// out-of-range targets are routed to shard 0, whose transactional
// validation produces the canonical unknown-target error.
func (s *ShardedFleet) splitChurn(events []model.ChurnEvent) (perShard [][]model.ChurnEvent, boundary []model.ChurnEvent) {
	perShard = make([][]model.ChurnEvent, s.part.K)
	for _, ev := range events {
		owner := 0
		if ev.OnLink() {
			if ev.Link >= 0 && ev.Link < s.base.M() {
				if owner = s.part.LinkOwner[ev.Link]; owner == model.BoundaryOwner {
					boundary = append(boundary, ev)
					continue
				}
			}
		} else if s.base.ValidNode(ev.Node) {
			owner = s.part.PartOf[ev.Node]
		}
		perShard[owner] = append(perShard[owner], ev)
	}
	return perShard, boundary
}

// ApplyChurn applies the events to the owning shards' capacity views and
// the coordinator's boundary ledger, all or nothing across the whole fleet:
// every sub-batch is validated on a scratch copy first, so an invalid event
// in one region leaves every region unchanged. Event indices in error
// messages refer to the owning region's sub-batch.
func (s *ShardedFleet) ApplyChurn(events []model.ChurnEvent) error {
	perShard, boundary := s.splitChurn(events)
	s.cmu.Lock()
	s.lockShards()
	err := s.applyChurnLocked(perShard, boundary)
	var commit func()
	if err == nil {
		commit = s.walChurnLocked(events)
	}
	s.unlockShards()
	s.cmu.Unlock()
	if commit != nil {
		commit()
	}
	return err
}

// applyChurnLocked validates and commits the split churn batch. Caller
// holds s.cmu and every shard lock.
func (s *ShardedFleet) applyChurnLocked(perShard [][]model.ChurnEvent, boundary []model.ChurnEvent) error {
	// Validate every sub-batch on clones, then commit the clones' factors —
	// the commit step cannot fail, which is what makes the cross-shard batch
	// atomic.
	clones := make([]*model.ResidualNetwork, s.part.K)
	for r, sub := range perShard {
		clones[r] = s.shards[r].residual.CloneEmpty()
		if err := clones[r].ApplyChurn(sub); err != nil {
			return err
		}
	}
	bclone := s.cres.CloneEmpty()
	if err := bclone.ApplyChurn(boundary); err != nil {
		return err
	}
	for r := range s.shards {
		if err := s.shards[r].residual.SetCapacityFactors(clones[r].CapacityFactors()); err != nil {
			panic(fmt.Sprintf("fleet: churn commit: %v", err)) // clone factors are valid by construction
		}
	}
	if err := s.cres.SetCapacityFactors(bclone.CapacityFactors()); err != nil {
		panic(fmt.Sprintf("fleet: boundary churn commit: %v", err))
	}
	return nil
}

// Affected returns the IDs of deployments whose placements touch any
// element the events mutate: each shard's frontier (an event inside one
// region can only touch that region's deployments), then the coordinator's
// cross-region deployments, which may touch elements of any region and the
// boundary links between them.
func (s *ShardedFleet) Affected(events []model.ChurnEvent) []string {
	var out []string
	for _, sh := range s.shards {
		out = append(out, sh.Affected(events)...)
	}
	if s.part.K > 1 {
		nodes, links := churnTargets(events)
		s.cmu.Lock()
		for _, id := range s.crossOrder {
			if placementTouches(s.base, s.crossDeps[id], nodes, links) {
				out = append(out, id)
			}
		}
		s.cmu.Unlock()
	}
	return out
}

// Repair routes each ID to its owning shard's incremental Repair pass —
// regions repair independently, holding only their own lock — and repairs
// coordinator-owned deployments against the composed view. Unknown IDs are
// skipped. The merged report lists shard outcomes first, coordinator
// outcomes last.
func (s *ShardedFleet) Repair(ids []string, opt RepairOptions) RepairReport {
	if s.part.K == 1 {
		return s.shards[0].Repair(ids, opt)
	}
	perShard := make([][]string, s.part.K)
	var cross []string
	for _, id := range ids {
		if strings.HasPrefix(id, crossIDPrefix) {
			cross = append(cross, id)
			continue
		}
		if r := shardOfID(id); r >= 0 && r < s.part.K {
			perShard[r] = append(perShard[r], id)
		}
	}
	var rep RepairReport
	for r, sub := range perShard {
		if len(sub) == 0 {
			continue
		}
		sr := s.shards[r].Repair(sub, opt)
		rep.Checked += sr.Checked
		rep.Resolved += sr.Resolved
		rep.Kept += sr.Kept
		rep.Migrated += sr.Migrated
		rep.Outcomes = append(rep.Outcomes, sr.Outcomes...)
		rep.Parked = append(rep.Parked, sr.Parked...)
	}
	if len(cross) > 0 {
		cr := s.repairCross(cross)
		rep.Checked += cr.Checked
		rep.Resolved += cr.Resolved
		rep.Kept += cr.Kept
		rep.Migrated += cr.Migrated
		rep.Outcomes = append(rep.Outcomes, cr.Outcomes...)
		rep.Parked = append(rep.Parked, cr.Parked...)
	}
	return rep
}

// repairCross is the coordinator's repair pass: each cross-region
// deployment is scored on the composed view with its own reservation
// removed; still-valid placements are kept without a solve, broken ones are
// re-solved globally, migrated when the new reservation fits, and parked
// otherwise. It holds every shard lock for the duration — cross-region
// repair is the rare, global tail of a churn cycle.
func (s *ShardedFleet) repairCross(ids []string) RepairReport {
	s.cmu.Lock()
	s.beginCrossTxnLocked(wal.KindRepair)
	rep := s.repairCrossLocked(ids)
	commit := s.endCrossTxnLocked()
	s.cmu.Unlock()
	commit()
	return rep
}

// repairCrossLocked is the repair pass body. Caller holds s.cmu inside a
// coordinator WAL epoch.
func (s *ShardedFleet) repairCrossLocked(ids []string) RepairReport {
	s.lockShards()
	defer s.unlockShards()

	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	live := make([]string, 0, len(ids))
	for _, id := range s.crossOrder {
		if want[id] {
			live = append(live, id)
		}
	}

	var rep RepairReport
	for _, id := range live {
		d := s.crossDeps[id]
		s.crossRepaired++
		rep.Checked++

		// Score the placement with its own reservation removed from the
		// overlay (everyone else's stays).
		s.rebuildCrossLocked(id)
		comp := s.composedLocked()
		snap := comp.Snapshot()
		m := model.NewMapping(d.Assignment)
		delay := model.TotalDelay(snap, d.pipe, m, d.cost)
		rate := model.FrameRate(model.SharedBottleneck(snap, d.pipe, m))
		valid := comp.Fits(d.reservation) &&
			!math.IsInf(delay, 1) &&
			(d.SLO.MaxDelayMs <= 0 || delay <= d.SLO.MaxDelayMs) &&
			rate >= d.ReservedFPS
		if _, down := comp.DownNode(d.Assignment); down {
			valid = false
		}
		if valid {
			s.rebuildCrossLocked("")
			rep.Kept++
			s.recordCross(journal.Event{
				Kind: journal.RepairKept, Deployment: id, Tenant: d.Tenant,
				Mapping: d.Mapping, DelayMs: delay, RateFPS: rate,
			})
			rep.Outcomes = append(rep.Outcomes, RepairOutcome{
				ID: id, Action: RepairKept, DelayMs: delay, RateFPS: rate,
			})
			continue
		}

		rep.Resolved++
		park := func(reason string) {
			parked := ParkedDeployment{ID: id, Tenant: d.Tenant, Reason: reason, Req: requestOf(d)}
			delete(s.crossDeps, id)
			s.crossOrder = removeID(s.crossOrder, id)
			s.rebuildCrossLocked("")
			s.crossParks++
			parkEvictionsTotal.Inc()
			s.recordCross(journal.Event{Kind: journal.RepairParked, Deployment: id, Tenant: d.Tenant, Detail: reason})
			s.ctxnRemove(id)
			s.ctxnPark(parked)
			rep.Parked = append(rep.Parked, parked)
			rep.Outcomes = append(rep.Outcomes, RepairOutcome{ID: id, Action: RepairParked, Reason: reason})
		}
		s.crossSolves.Add(1)
		nm, _, _, err := solve(snap, requestOf(d), d.cost, nil)
		if err != nil {
			park(fmt.Sprintf("re-solve failed: %v", err))
			continue
		}
		if v, down := comp.DownNode(nm.Assign); down {
			park(fmt.Sprintf("no feasible placement: node v%d is down", v))
			continue
		}
		newDelay := model.TotalDelay(snap, d.pipe, nm, d.cost)
		newRate := model.FrameRate(model.SharedBottleneck(snap, d.pipe, nm))
		if math.IsInf(newDelay, 1) {
			park("re-solve has unbounded delay on the degraded network")
			continue
		}
		if d.SLO.MaxDelayMs > 0 && newDelay > d.SLO.MaxDelayMs {
			park(fmt.Sprintf("re-solve delay %.3f ms violates SLO %.3f ms", newDelay, d.SLO.MaxDelayMs))
			continue
		}
		if newRate < d.ReservedFPS {
			park(fmt.Sprintf("re-solve rate %.3f fps below reserved %.3f fps", newRate, d.ReservedFPS))
			continue
		}
		res, err := model.MappingReservation(s.base, d.pipe, nm, d.ReservedFPS)
		if err != nil {
			park(fmt.Sprintf("reservation: %v", err))
			continue
		}
		if !comp.Fits(res) {
			park("re-solved reservation does not fit the degraded network")
			continue
		}
		d.Assignment = nm.Assign
		d.Mapping = nm.String()
		d.DelayMs = newDelay
		d.RateFPS = newRate
		d.reservation = res
		s.rebuildCrossLocked("")
		s.crossMoves++
		s.ctxnUpdate(d)
		rep.Migrated++
		s.recordCross(journal.Event{
			Kind: journal.RepairMigrated, Deployment: id, Tenant: d.Tenant,
			Mapping: d.Mapping, DelayMs: newDelay, RateFPS: newRate,
		})
		rep.Outcomes = append(rep.Outcomes, RepairOutcome{
			ID: id, Action: RepairMigrated, DelayMs: newDelay, RateFPS: newRate,
		})
	}
	return rep
}
