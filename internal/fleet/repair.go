package fleet

import (
	"fmt"
	"math"
	"sort"
	"time"

	"elpc/internal/engine"
	"elpc/internal/journal"
	"elpc/internal/model"
	"elpc/internal/wal"
)

// This file is the fleet's churn-facing surface: applying network-mutation
// events to the shared residual view, identifying which deployments a batch
// of events touches, and the incremental Repair pass that re-solves only
// those — the mechanism internal/churn's reconciliation loop is built on.

// ApplyChurn applies the events to the fleet's residual capacity view
// transactionally (all or nothing; see model.ResidualNetwork.ApplyChurn).
// It changes only what the network can carry: outstanding reservations are
// untouched, so after a capacity-reducing batch the touching deployments
// may be over capacity until Repair migrates or parks them.
func (f *Fleet) ApplyChurn(events []model.ChurnEvent) error {
	f.mu.Lock()
	f.beginTxnLocked(wal.KindChurn)
	err := f.residual.ApplyChurn(events)
	if err == nil {
		f.txnChurn(events)
	}
	commit := f.endTxnLocked()
	f.mu.Unlock()
	commit()
	return err
}

// Snapshot materializes the current residual network (loads and churn
// capacity factors applied) as a standalone Network.
func (f *Fleet) Snapshot() *model.Network {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.residual.Snapshot()
}

// Capacity returns the churn capacity factor per node and per link (copies;
// 1 = nominal, 0 = down; indices match the base network).
func (f *Fleet) Capacity() (node, link []float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	node = make([]float64, f.base.N())
	for v := range node {
		node[v] = f.residual.NodeCapacity(model.NodeID(v))
	}
	link = make([]float64, f.base.M())
	for l := range link {
		link[l] = f.residual.LinkCapacity(l)
	}
	return node, link
}

// Affected returns, in admission order, the IDs of deployments whose
// placements touch any node or link named by the events: a node is touched
// when any module runs on it (even a zero-cost source or sink that reserves
// no capacity there), a link when any consecutive module groups traverse
// it. This is the incremental-repair frontier: deployments not in the set
// are provably unaffected by the batch (their placements use no mutated
// element), so Repair never needs to look at them.
func (f *Fleet) Affected(events []model.ChurnEvent) []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	nodes, links := churnTargets(events)
	var out []string
	for _, id := range f.order {
		if placementTouches(f.base, f.deps[id], nodes, links) {
			out = append(out, id)
		}
	}
	return out
}

// churnTargets collects the node and link sets a batch of events mutates.
func churnTargets(events []model.ChurnEvent) (nodes map[model.NodeID]bool, links map[int]bool) {
	nodes = make(map[model.NodeID]bool)
	links = make(map[int]bool)
	for _, ev := range events {
		if ev.OnLink() {
			links[ev.Link] = true
		} else {
			nodes[ev.Node] = true
		}
	}
	return nodes, links
}

// placementTouches reports whether d's mapping uses any of the given nodes
// or links of base. Shared by Fleet.Affected and the sharded coordinator's
// cross-region frontier scan.
func placementTouches(base *model.Network, d *Deployment, nodes map[model.NodeID]bool, links map[int]bool) bool {
	groups := model.NewMapping(d.Assignment).Groups()
	for gi, g := range groups {
		if nodes[g.Node] {
			return true
		}
		if gi+1 < len(groups) && len(links) > 0 {
			if link, ok := base.LinkBetween(g.Node, groups[gi+1].Node); ok && links[link.ID] {
				return true
			}
		}
	}
	return false
}

// requestOf reconstructs the admission request of a live deployment so a
// parked deployment can be re-queued later with identical parameters. The
// warm state rides along: a parked or preempted deployment keeps its DP
// grids, so the requeue admission solves warm.
func requestOf(d *Deployment) Request {
	cost := d.cost
	return Request{
		Tenant:    d.Tenant,
		Pipeline:  d.pipe,
		Src:       d.src,
		Dst:       d.dst,
		Objective: d.Objective,
		SLO:       d.SLO,
		Cost:      &cost,
		warm:      d.warm,
	}
}

// placementScoreLocked evaluates d's current mapping on snap (the residual
// snapshot with d's own reservation removed) and reports whether the
// placement is still valid: its reservation fits the (possibly reduced)
// capacity factors, the delay SLO holds, and the reserved rate is still
// sustainable. Caller holds f.mu with d's reservation zeroed and loads
// recomputed; saved is the reservation under test.
func (f *Fleet) placementScoreLocked(d *Deployment, snap *model.Network, saved model.Reservation) (delay, rate float64, valid bool) {
	m := model.NewMapping(d.Assignment)
	delay = model.TotalDelay(snap, d.pipe, m, d.cost)
	rate = model.FrameRate(model.SharedBottleneck(snap, d.pipe, m))
	valid = f.residual.Fits(saved) &&
		!math.IsInf(delay, 1) &&
		(d.SLO.MaxDelayMs <= 0 || delay <= d.SLO.MaxDelayMs) &&
		rate >= d.ReservedFPS
	// A mapping using a down node is broken even when the cost model says
	// it reserves nothing there (zero-complexity sources and sinks): the
	// module has no host.
	if _, down := f.residual.DownNode(d.Assignment); down {
		valid = false
	}
	return delay, rate, valid
}

// RepairOptions tunes a Repair pass.
type RepairOptions struct {
	// Workers > 1 precomputes the broken candidates' re-solves concurrently
	// (chunked over the installed engine pool, like parallel Rebalance)
	// before the sequential application loop. <= 1 solves each candidate
	// inline against the live residual state.
	Workers int `json:"workers,omitempty"`
}

// Repair actions.
const (
	// RepairKept means the placement survived the churn unchanged.
	RepairKept = "kept"
	// RepairMigrated means the deployment was re-solved onto a new mapping.
	RepairMigrated = "migrated"
	// RepairParked means no feasible placement remained; the deployment was
	// evicted and its capacity released. Parked deployments are returned to
	// the caller (internal/churn re-queues them when capacity returns) —
	// they are displaced, not lost.
	RepairParked = "parked"
)

// RepairOutcome reports Repair's decision for one affected deployment.
type RepairOutcome struct {
	ID     string `json:"id"`
	Action string `json:"action"`
	Reason string `json:"reason,omitempty"`
	// DelayMs and RateFPS score the surviving mapping (kept or migrated) on
	// the post-churn residual network; zero for parked deployments.
	DelayMs float64 `json:"delay_ms,omitempty"`
	RateFPS float64 `json:"rate_fps,omitempty"`
}

// ParkedDeployment is one deployment evicted by Repair: its identity plus
// the reconstructed admission request needed to re-queue it.
type ParkedDeployment struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant,omitempty"`
	Reason string `json:"reason"`
	// Req re-admits the deployment with its original parameters.
	Req Request `json:"-"`
}

// RepairReport summarizes one Repair pass.
type RepairReport struct {
	// Checked counts candidates examined; Resolved counts the subset that
	// required a re-solve (their placements were broken by the churn).
	Checked  int `json:"checked"`
	Resolved int `json:"resolved"`
	Kept     int `json:"kept"`
	Migrated int `json:"migrated"`
	// Outcomes lists per-deployment decisions in repair order (SLO class
	// rank descending, admission order within a class).
	Outcomes []RepairOutcome `json:"outcomes,omitempty"`
	// Parked lists the evicted deployments (len(Parked) fills the
	// kept/migrated/parked accounting gap).
	Parked []ParkedDeployment `json:"parked,omitempty"`
}

// Displaced is the number of deployments the pass moved or evicted.
func (r *RepairReport) Displaced() int { return r.Migrated + len(r.Parked) }

// Repair is the incremental post-churn reconciliation pass: it examines
// exactly the given deployments (normally Affected(events)), keeps every
// placement that is still valid under the new capacity factors without
// re-solving it, re-solves only the broken ones against the residual
// network (their own reservation removed, everyone else's kept), migrates
// those whose re-solve fits, and parks — evicts and returns — those with no
// feasible placement. Unknown IDs are skipped.
//
// With opt.Workers > 1 the broken candidates' re-solves are precomputed
// concurrently against the pre-repair residual state; every guard is then
// re-validated live at application time, so a stale proposal can park a
// candidate a sequential pass would have re-fit (the re-queue loop recovers
// it) but can never corrupt capacity accounting.
func (f *Fleet) Repair(ids []string, opt RepairOptions) RepairReport {
	t0 := time.Now()
	defer repairSeconds.ObserveSince(t0)
	f.mu.Lock()
	f.beginTxnLocked(wal.KindRepair)
	rep := f.repairLocked(ids, opt)
	commit := f.endTxnLocked()
	f.mu.Unlock()
	commit()
	return rep
}

// repairLocked is the repair pass body. Caller holds f.mu inside a WAL
// epoch.
func (f *Fleet) repairLocked(ids []string, opt RepairOptions) RepairReport {
	// Keep admission order and drop stale IDs, then lift higher SLO classes
	// to the front: on a degraded network the candidates repaired first
	// claim the surviving residual, so guaranteed deployments must re-fit
	// before best-effort ones compete for the same capacity. The sort is
	// stable, so within a class admission order is preserved (all-standard
	// fleets see the exact pre-class behavior).
	live := make([]string, 0, len(ids))
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	for _, id := range f.order {
		if want[id] {
			live = append(live, id)
		}
	}
	sort.SliceStable(live, func(i, j int) bool {
		return f.deps[live[i]].SLO.Class.Rank() > f.deps[live[j]].SLO.Class.Rank()
	})

	rep := RepairReport{}
	if len(live) == 0 {
		return rep
	}

	// Phases 1+2 exist only for the parallel path: classify candidates on
	// the pre-repair state, then precompute the broken ones' re-solves
	// concurrently. The sequential path skips both — phase 3 classifies
	// and solves inline, so nothing is computed twice.
	var proposals map[string]proposal
	if opt.Workers > 1 && len(live) > 1 {
		broken := make([]string, 0, len(live))
		for _, id := range live {
			d := f.deps[id]
			saved := d.reservation
			d.reservation = emptyReservation(f.base)
			f.recomputeLocked()
			_, _, valid := f.placementScoreLocked(d, f.residual.Snapshot(), saved)
			d.reservation = saved
			if !valid {
				broken = append(broken, id)
			}
		}
		f.recomputeLocked()
		if len(broken) > 1 {
			pool := f.pool
			if pool == nil {
				transient := engine.NewPool(opt.Workers)
				defer transient.Close()
				pool = transient
			}
			out := make([]proposal, len(broken))
			f.proposeLocked(broken, out, 0, len(broken), opt.Workers, pool)
			proposals = make(map[string]proposal, len(broken))
			for i, id := range broken {
				proposals[id] = out[i]
			}
		}
	}

	// Phase 3: apply sequentially in admission order, every guard against
	// the live residual state.
	for _, id := range live {
		d := f.deps[id]
		f.repaired++
		rep.Checked++

		saved := d.reservation
		d.reservation = emptyReservation(f.base)
		f.recomputeLocked()
		snap := f.residual.Snapshot()

		delay, rate, valid := f.placementScoreLocked(d, snap, saved)
		if valid {
			d.reservation = saved
			f.recomputeLocked()
			rep.Kept++
			f.record(journal.Event{
				Kind: journal.RepairKept, Deployment: id, Tenant: d.Tenant,
				Mapping: d.Mapping, DelayMs: delay, RateFPS: rate,
			})
			rep.Outcomes = append(rep.Outcomes, RepairOutcome{
				ID: id, Action: RepairKept, DelayMs: delay, RateFPS: rate,
			})
			continue
		}

		// Broken: take the precomputed proposal, or solve inline (a phase-1
		// "valid" can turn broken once earlier repairs shifted load).
		rep.Resolved++
		prop, ok := proposals[id]
		if !ok {
			var m *model.Mapping
			var err error
			m, _, _, err = f.solveCounted(f.residual, requestOf(d), d.cost, f.warmFor(d))
			prop = proposal{m: m, err: err}
		}

		park := func(reason string) {
			parked := ParkedDeployment{ID: id, Tenant: d.Tenant, Reason: reason, Req: requestOf(d)}
			delete(f.deps, id)
			for i, oid := range f.order {
				if oid == id {
					f.order = append(f.order[:i], f.order[i+1:]...)
					break
				}
			}
			f.recomputeLocked()
			f.parkEvicts++
			parkEvictionsTotal.Inc()
			f.record(journal.Event{
				Kind: journal.RepairParked, Deployment: id, Tenant: d.Tenant, Detail: reason,
			})
			f.txnRemove(id)
			f.txnPark(parked)
			rep.Parked = append(rep.Parked, parked)
			rep.Outcomes = append(rep.Outcomes, RepairOutcome{ID: id, Action: RepairParked, Reason: reason})
		}

		if prop.err != nil {
			park(fmt.Sprintf("re-solve failed: %v", prop.err))
			continue
		}
		m := prop.m
		// A re-solve can still route zero-cost modules (the pinned source
		// or sink, in particular) through a down node, because the cost
		// model prices them at zero there; such a mapping has a hostless
		// module and cannot be applied.
		if v, down := f.residual.DownNode(m.Assign); down {
			park(fmt.Sprintf("no feasible placement: node v%d is down", v))
			continue
		}
		newDelay := model.TotalDelay(snap, d.pipe, m, d.cost)
		newRate := model.FrameRate(model.SharedBottleneck(snap, d.pipe, m))
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
		res, err := model.MappingReservation(f.base, d.pipe, m, d.ReservedFPS)
		if err != nil {
			park(fmt.Sprintf("reservation: %v", err))
			continue
		}
		if !f.residual.Fits(res) {
			park("re-solved reservation does not fit the degraded network")
			continue
		}
		d.Assignment = m.Assign
		d.Mapping = m.String()
		d.DelayMs = newDelay
		d.RateFPS = newRate
		d.reservation = res
		f.recomputeLocked()
		f.repairMoves++
		rep.Migrated++
		f.record(journal.Event{
			Kind: journal.RepairMigrated, Deployment: id, Tenant: d.Tenant,
			Mapping: d.Mapping, DelayMs: newDelay, RateFPS: newRate,
		})
		f.txnUpdate(d)
		rep.Outcomes = append(rep.Outcomes, RepairOutcome{
			ID: id, Action: RepairMigrated, DelayMs: newDelay, RateFPS: newRate,
		})
	}
	return rep
}

// emptyReservation is an all-zero reservation shaped for net.
func emptyReservation(net *model.Network) model.Reservation {
	return model.Reservation{
		NodeFrac: make([]float64, net.N()),
		LinkFrac: make([]float64, net.M()),
	}
}
