package fleet

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"elpc/internal/journal"
	"elpc/internal/model"
)

// TestFleetJournalEvents checks the journal threading: every admission,
// rejection, and release records exactly one typed event carrying the
// deployment identity, and the per-deployment timeline replays them in
// order.
func TestFleetJournalEvents(t *testing.T) {
	f, err := New(testNetwork(t))
	if err != nil {
		t.Fatal(err)
	}
	jr := journal.New(64)
	f.UseJournal(jr)

	d, err := f.Deploy(Request{
		Tenant: "viz", Pipeline: testPipeline(t, 5, 1),
		Src: 0, Dst: 9, Objective: model.MinDelay,
	})
	if err != nil {
		t.Fatal(err)
	}
	// An impossible SLO records a rejection with the tenant but no ID.
	if _, err := f.Deploy(Request{
		Tenant: "greedy", Pipeline: testPipeline(t, 5, 2),
		Src: 0, Dst: 9, Objective: model.MinDelay, SLO: SLO{MaxDelayMs: 1e-6},
	}); !errors.Is(err, ErrRejected) {
		t.Fatalf("want rejection, got %v", err)
	}
	if err := f.Release(d.ID); err != nil {
		t.Fatal(err)
	}

	evs := jr.Since(0, 0)
	if len(evs) != 3 {
		t.Fatalf("journal has %d events, want admit/reject/release: %+v", len(evs), evs)
	}
	admit, rej, rel := evs[0], evs[1], evs[2]
	if admit.Kind != journal.DeployAdmitted || admit.Deployment != d.ID || admit.Tenant != "viz" ||
		admit.Mapping != d.Mapping || admit.DelayMs != d.DelayMs {
		t.Errorf("admission event = %+v", admit)
	}
	if admit.Actor != journal.ActorFleet || admit.Shard != "main" {
		t.Errorf("admission attribution = actor %q shard %q", admit.Actor, admit.Shard)
	}
	if rej.Kind != journal.DeployRejected || rej.Tenant != "greedy" || rej.Detail == "" {
		t.Errorf("rejection event = %+v", rej)
	}
	if rel.Kind != journal.ReleaseDone || rel.Deployment != d.ID || rel.Tenant != "viz" {
		t.Errorf("release event = %+v", rel)
	}

	tl := jr.Timeline(d.ID)
	if len(tl) != 2 || tl[0].Kind != journal.DeployAdmitted || tl[1].Kind != journal.ReleaseDone {
		t.Errorf("timeline = %+v, want [admit release]", tl)
	}
}

// TestSLOReportCompliantFleet checks a freshly admitted population scores
// fully compliant: admission control guarantees the SLOs hold on the
// network it admitted against.
func TestSLOReportCompliantFleet(t *testing.T) {
	f, err := New(testNetwork(t))
	if err != nil {
		t.Fatal(err)
	}
	deps := deployN(t, f, 6)
	rep := f.SLOReport()
	if rep.Evaluated != len(deps) || rep.Compliant != len(deps) || rep.Violating != 0 {
		t.Fatalf("report = %d evaluated, %d compliant, %d violating; statuses %+v",
			rep.Evaluated, rep.Compliant, rep.Violating, rep.Statuses)
	}
	for _, st := range rep.Statuses {
		if !st.Compliant || st.Reason != "" || st.Shard != "main" {
			t.Errorf("status = %+v", st)
		}
		if st.RateFPS < st.ReservedFPS {
			t.Errorf("delivered rate %.3f below reserved %.3f for %s", st.RateFPS, st.ReservedFPS, st.ID)
		}
	}
	if vt := rep.ViolatingTenants(); len(vt) != 0 {
		t.Errorf("violating tenants = %v, want none", vt)
	}
}

// TestSLOReportDetectsChurnViolations applies churn directly to the
// capacity view — deliberately skipping Repair — and checks SLOReport
// notices the delivered/promised gap the repair cycle would have fixed:
// that separation is what lets /v1/health observe violations between churn
// and repair, and catch any repair that silently under-delivers.
func TestSLOReportDetectsChurnViolations(t *testing.T) {
	f, err := New(testNetwork(t))
	if err != nil {
		t.Fatal(err)
	}
	deps := deployN(t, f, 6)

	// Fail a node some deployment is placed on, without repairing.
	victim := deps[0].Assignment[len(deps[0].Assignment)/2]
	if err := f.ApplyChurn([]model.ChurnEvent{{Kind: model.NodeDown, Node: victim}}); err != nil {
		t.Fatal(err)
	}
	rep := f.SLOReport()
	if rep.Evaluated != len(deps) || rep.Violating == 0 {
		t.Fatalf("report after unrepaired node_down: %d evaluated, %d violating", rep.Evaluated, rep.Violating)
	}
	found := false
	for _, st := range rep.Statuses {
		if st.ID == deps[0].ID {
			found = true
			if st.Compliant || !strings.Contains(st.Reason, "down") {
				t.Errorf("victim status = %+v, want down-node violation", st)
			}
		}
	}
	if !found {
		t.Fatalf("victim %s missing from report", deps[0].ID)
	}
	if vt := rep.ViolatingTenants(); len(vt) == 0 {
		t.Error("violating tenants empty despite violations")
	}

	// Repair resolves the gap: afterwards every surviving deployment is
	// compliant again (parked ones are no longer evaluated).
	f.Repair(f.Affected([]model.ChurnEvent{{Kind: model.NodeDown, Node: victim}}), RepairOptions{})
	rep = f.SLOReport()
	if rep.Violating != 0 {
		t.Errorf("report after repair still has %d violating: %+v", rep.Violating, rep.Statuses)
	}
}

// TestShardedSLOReportAndJournal checks the sharded manager's SLO scoring
// on the composed view and the coordinator's 2PC journal events.
func TestShardedSLOReportAndJournal(t *testing.T) {
	net := testNetwork(t)
	s, err := NewSharded(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	jr := journal.New(256)
	s.UseJournal(jr)

	// Deploy across every (src, dst) pair class until we have both regional
	// and cross-region deployments.
	admitted := 0
	for i := 0; i < 8 && admitted < 6; i++ {
		_, err := s.Deploy(Request{
			Tenant:   "t",
			Pipeline: testPipeline(t, 4+i%3, uint64(20+i)),
			Src:      model.NodeID(i % net.N()),
			Dst:      model.NodeID((i + 5) % net.N()),
			SLO:      SLO{MinRateFPS: 1},
		})
		if err != nil {
			continue
		}
		admitted++
	}
	if admitted == 0 {
		t.Fatal("no deployments admitted")
	}
	rep := s.SLOReport()
	if rep.Evaluated != admitted || rep.Compliant != admitted {
		t.Fatalf("sharded report = %d evaluated, %d compliant (admitted %d): %+v",
			rep.Evaluated, rep.Compliant, admitted, rep.Statuses)
	}

	// Every cross-region admission must have journaled its 2PC commit.
	var crossAdmits, commits int
	for _, ev := range jr.Since(0, 0) {
		switch ev.Kind {
		case journal.DeployAdmitted:
			if ev.Shard == "x" {
				crossAdmits++
			}
		case journal.TwoPhaseCommit:
			commits++
		}
	}
	if crossAdmits != commits {
		t.Errorf("%d cross admissions but %d 2pc_commit events", crossAdmits, commits)
	}
	if st := s.ShardStats(); st.Coordinator.Admitted != uint64(crossAdmits) {
		t.Errorf("coordinator admitted %d, journal saw %d", st.Coordinator.Admitted, crossAdmits)
	}
}

// TestJournalUnderConcurrentFleetOps hammers one shared journal from
// concurrent deploy/release/churn/rebalance traffic (run with -race) and
// checks the retained window stays dense and correctly indexed.
func TestJournalUnderConcurrentFleetOps(t *testing.T) {
	f, err := New(testNetwork(t))
	if err != nil {
		t.Fatal(err)
	}
	jr := journal.New(128)
	f.UseJournal(jr)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				d, err := f.Deploy(Request{
					Tenant:   "w",
					Pipeline: testPipeline(t, 4, uint64(w*100+i)),
					Src:      model.NodeID((w + i) % 10),
					Dst:      model.NodeID((w + i + 3) % 10),
				})
				if err == nil && i%2 == 0 {
					_ = f.Release(d.ID)
				}
			}
		}(w)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			batch := []model.ChurnEvent{{Kind: model.CapacityDrift, Target: model.TargetNode, Node: model.NodeID(i % 10), Factor: 0.95}}
			if err := f.ApplyChurn(batch); err == nil {
				f.Repair(f.Affected(batch), RepairOptions{})
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			f.Rebalance(RebalanceOptions{MaxMoves: 2, MinGain: 0.01})
		}
	}()
	wg.Wait()

	st := jr.Stats()
	if st.LastSeq == 0 {
		t.Fatal("no events recorded")
	}
	if st.Depth > st.Capacity {
		t.Fatalf("depth %d exceeds capacity %d", st.Depth, st.Capacity)
	}
	evs := jr.Since(0, 0)
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("retained window has a gap: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
	if uint64(len(evs))+st.Dropped != st.LastSeq {
		t.Fatalf("accounting: %d retained + %d dropped != %d appended", len(evs), st.Dropped, st.LastSeq)
	}
}

// snapshotSLOStatus is sloStatusOf as it was before scoring over the
// placement's path: it materializes every node and link of r with d's
// reservation excluded, then scores the mapping on that copy.
func snapshotSLOStatus(t *testing.T, r *model.ResidualNetwork, d *Deployment, shard string) SLOStatus {
	t.Helper()
	st := SLOStatus{
		ID:          d.ID,
		Tenant:      d.Tenant,
		Shard:       shard,
		MaxDelayMs:  d.SLO.MaxDelayMs,
		ReservedFPS: d.ReservedFPS,
	}
	for _, v := range d.Assignment {
		if r.NodeIsDown(v) {
			st.DelayMs = math.Inf(1)
			st.Reason = fmt.Sprintf("node v%d hosting a module is down", v)
			return st
		}
	}
	frac := func(capFactor, load float64) float64 {
		return math.Min(math.Max(capFactor-load, model.MinResidualFraction), 1)
	}
	base := r.Base()
	nodes := append([]model.Node(nil), base.Nodes...)
	for i := range nodes {
		v := model.NodeID(i)
		nodes[i].Power = base.Nodes[i].Power * frac(r.NodeCapacity(v), r.NodeLoad(v)-d.reservation.NodeFrac[i])
	}
	links := append([]model.Link(nil), base.Links...)
	for i := range links {
		links[i].BWMbps = base.Links[i].BWMbps * frac(r.LinkCapacity(i), r.LinkLoad(i)-d.reservation.LinkFrac[i])
	}
	snap, err := model.NewNetwork(nodes, links)
	if err != nil {
		t.Fatal(err)
	}
	m := model.NewMapping(d.Assignment)
	st.DelayMs = model.TotalDelay(snap, d.pipe, m, d.cost)
	st.RateFPS = model.FrameRate(model.SharedBottleneck(snap, d.pipe, m))
	switch {
	case math.IsInf(st.DelayMs, 1):
		st.Reason = "mapping traverses an unusable path"
	case d.SLO.MaxDelayMs > 0 && st.DelayMs > d.SLO.MaxDelayMs:
		st.Reason = fmt.Sprintf("delay %.3f ms exceeds SLO %.3f ms", st.DelayMs, d.SLO.MaxDelayMs)
	case st.RateFPS < d.ReservedFPS:
		st.Reason = fmt.Sprintf("sustainable rate %.3f fps below reserved %.3f fps", st.RateFPS, d.ReservedFPS)
	default:
		st.Compliant = true
	}
	return st
}

// saturateAndChurn deploys varied pipelines until the network refuses
// twenty, then applies churn without repairing it: drifted nodes, degraded
// links and one failed node, so residents are scored on overcommitted and
// down elements.
func saturateAndChurn(t *testing.T, m Manager) {
	t.Helper()
	n := m.Network().N()
	rejected := 0
	for i := 0; rejected < 20 && i < 400; i++ {
		src, dst := model.NodeID(i%n), model.NodeID((3*i+1)%n)
		if src == dst {
			continue
		}
		obj := model.MinDelay
		if i%2 == 1 {
			obj = model.MaxFrameRate
		}
		slo := SLO{MinRateFPS: float64(1 + i%3)}
		if i%4 == 0 {
			slo.MaxDelayMs = 400
		}
		_, err := m.Deploy(Request{
			Tenant: fmt.Sprintf("t%d", i%7), Pipeline: testPipeline(t, 4+i%4, uint64(500+i)),
			Src: src, Dst: dst, Objective: obj, SLO: slo,
		})
		switch {
		case errors.Is(err, ErrRejected):
			rejected++
		case err != nil:
			t.Fatal(err)
		}
	}
	if rejected < 20 {
		t.Fatalf("fleet did not saturate: %d rejections", rejected)
	}
	var events []model.ChurnEvent
	for v := 0; v < n; v += 3 {
		events = append(events, model.ChurnEvent{Kind: model.CapacityDrift, Node: model.NodeID(v), Factor: 0.4})
	}
	for l := 0; l < m.Network().M(); l += 5 {
		events = append(events, model.ChurnEvent{Kind: model.LinkDegrade, Link: l, Factor: 0.2})
	}
	events = append(events, model.ChurnEvent{Kind: model.NodeDown, Node: 4})
	if err := m.ApplyChurn(events); err != nil {
		t.Fatal(err)
	}
}

// checkReport compares a live report with the snapshot-scored reference and
// checks the fixture exercised both verdicts.
func checkReport(t *testing.T, got, want SLOReport) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		for i := range want.Statuses {
			if i < len(got.Statuses) && got.Statuses[i] != want.Statuses[i] {
				t.Errorf("status %d: got %+v, want %+v", i, got.Statuses[i], want.Statuses[i])
			}
		}
		t.Fatalf("report differs from snapshot scoring: %d/%d/%d statuses vs %d/%d/%d",
			got.Evaluated, got.Compliant, got.Violating, want.Evaluated, want.Compliant, want.Violating)
	}
	t.Logf("%d residents: %d compliant, %d violating", got.Evaluated, got.Compliant, got.Violating)
	if got.Compliant == 0 || got.Violating == 0 {
		t.Fatalf("fixture too weak: %d compliant, %d violating", got.Compliant, got.Violating)
	}
}

// referenceReport scores the given deployments of one residual view the
// old way, in order.
func referenceReport(t *testing.T, rep *SLOReport, r *model.ResidualNetwork, deps map[string]*Deployment, order []string, shard string) {
	t.Helper()
	for _, id := range order {
		rep.add(snapshotSLOStatus(t, r, deps[id], shard))
	}
}

// TestSLOReportMatchesSnapshotScoring pins SLOReport, scored over each
// placement's own path, to the full-snapshot scoring it replaced: on a
// saturated, churned fleet the whole report must be deep-equal (every
// float bit for bit, every verdict and reason) for a plain fleet, a K=1
// sharded fleet, and a K=3 sharded fleet whose cross-region deployments
// are scored on the composed view.
func TestSLOReportMatchesSnapshotScoring(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		f, err := New(testNetwork(t))
		if err != nil {
			t.Fatal(err)
		}
		saturateAndChurn(t, f)
		var want SLOReport
		f.mu.Lock()
		referenceReport(t, &want, f.residual, f.deps, f.order, "main")
		f.mu.Unlock()
		checkReport(t, f.SLOReport(), want)
	})
	for _, k := range []int{1, 3} {
		t.Run(fmt.Sprintf("sharded-k%d", k), func(t *testing.T) {
			s, err := NewSharded(testNetwork(t), k)
			if err != nil {
				t.Fatal(err)
			}
			saturateAndChurn(t, s)
			var want SLOReport
			s.cmu.Lock()
			s.lockShards()
			r := s.shards[0].residual
			if k > 1 {
				r = s.composedLocked()
				if len(s.crossOrder) == 0 {
					t.Fatal("no cross-region deployments to score")
				}
			}
			for _, sh := range s.shards {
				referenceReport(t, &want, r, sh.deps, sh.order, shardLabel(sh.idPrefix))
			}
			referenceReport(t, &want, r, s.crossDeps, s.crossOrder, "x")
			s.unlockShards()
			s.cmu.Unlock()
			checkReport(t, s.SLOReport(), want)
		})
	}
}
