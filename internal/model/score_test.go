package model_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"elpc/internal/core"
	"elpc/internal/gen"
	"elpc/internal/model"
)

// referenceCosts is Eq. 1 and the shared Eq. 2 written out independently of
// the one-pass evaluator, as TotalDelay and SharedBottleneck were before it:
// a walk over the mapping's groups with per-resource busy time in maps.
func referenceCosts(net *model.Network, pl *model.Pipeline, m *model.Mapping, opt model.CostOptions) (delay, period float64) {
	groups := m.Groups()
	nodeBusy := map[model.NodeID]float64{}
	linkBusy := map[int]float64{}
	for gi, g := range groups {
		power := net.Power(g.Node)
		for j := g.First; j <= g.Last; j++ {
			delay += pl.ComputeTime(j, power)
			nodeBusy[g.Node] += pl.ComputeTime(j, power)
		}
		if gi+1 < len(groups) {
			link, ok := net.LinkBetween(g.Node, groups[gi+1].Node)
			if !ok {
				return math.Inf(1), math.Inf(1)
			}
			delay += link.TransferTime(pl.OutBytes(g.Last), opt.IncludeMLDInDelay)
			linkBusy[link.ID] += link.TransferTime(pl.OutBytes(g.Last), false)
		}
	}
	for _, t := range nodeBusy {
		period = math.Max(period, t)
	}
	for _, t := range linkBusy {
		period = math.Max(period, t)
	}
	return delay, period
}

// checkScore asserts that ScoreWithout(res) equals, bit for bit, TotalDelay
// and SharedBottleneck on the snapshot materialized with res excluded, and
// the independent reference on that snapshot, with and without MLD.
func checkScore(t *testing.T, label string, r *model.ResidualNetwork, res model.Reservation, pl *model.Pipeline, m *model.Mapping) {
	t.Helper()
	snap := r.SnapshotExcluding(&res)
	for _, cost := range []model.CostOptions{{IncludeMLDInDelay: true}, {}} {
		gotD, gotP, err := r.ScoreWithout(res, pl, m, cost)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		wantD, wantP := model.TotalDelay(snap, pl, m, cost), model.SharedBottleneck(snap, pl, m)
		refD, refP := referenceCosts(snap, pl, m, cost)
		for _, pair := range [][2]float64{{gotD, wantD}, {gotP, wantP}, {gotD, refD}, {gotP, refP}} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("%s (mld %v) on %v: ScoreWithout = (%v, %v); snapshot = (%v, %v); reference = (%v, %v)",
					label, cost.IncludeMLDInDelay, m, gotD, gotP, wantD, wantP, refD, refP)
			}
		}
	}
}

// randomReservation draws a fraction in [0, scale) for every node and link.
func randomReservation(net *model.Network, rng *rand.Rand, scale float64) model.Reservation {
	res := model.Reservation{NodeFrac: make([]float64, net.N()), LinkFrac: make([]float64, net.M())}
	for i := range res.NodeFrac {
		res.NodeFrac[i] = rng.Float64() * scale
	}
	for i := range res.LinkFrac {
		res.LinkFrac[i] = rng.Float64() * scale
	}
	return res
}

// firstPathLink returns the ID of the link out of m's first group.
func firstPathLink(t *testing.T, net *model.Network, m *model.Mapping) int {
	t.Helper()
	walk := m.Walk()
	l, ok := net.LinkBetween(walk[0], walk[1])
	if !ok {
		t.Fatalf("mapping %v has no link v%d->v%d", m, walk[0], walk[1])
	}
	return l.ID
}

// TestScoreWithoutMatchesSnapshot pins ScoreWithout to the materialized
// residual snapshot it replaces on SLO reports, bit for bit, on Suite20
// cases 1-8 under churn: drifted, down (factor 0) and overcommitted (load
// above factor, hitting the MinResidualFraction floor) elements on the
// scored paths, an exclusion larger than the recorded load (the clamp at
// 1), solver mappings, a mapping that revisits nodes and links
// non-consecutively, and a pair of groups with no link between them.
func TestScoreWithoutMatchesSnapshot(t *testing.T) {
	specs := gen.Suite20()
	missing := 0
	for i := 0; i < 8; i++ {
		p, err := specs[i].Build()
		if err != nil {
			t.Fatal(err)
		}
		net, pl := p.Net, p.Pipe
		rng := gen.RNG(uint64(7000 + i))
		var maps []*model.Mapping
		if m, err := core.MinDelay(p); err == nil {
			maps = append(maps, m)
		}
		if m, err := core.MaxFrameRate(p); err == nil {
			maps = append(maps, m)
		}
		// Revisit: v_a v_a v_b v_b v_a v_a ... over a bidirectional pair.
		for _, l := range net.Links {
			if _, ok := net.LinkBetween(l.To, l.From); ok {
				assign := make([]model.NodeID, pl.N())
				for j := range assign {
					assign[j] = l.From
					if (j/2)%2 == 1 {
						assign[j] = l.To
					}
				}
				maps = append(maps, model.NewMapping(assign))
				break
			}
		}
		if len(maps) != 3 {
			t.Fatalf("case %d: built %d mappings, want min-delay, max-frame-rate and revisit", i+1, len(maps))
		}

		// Churn: random factors everywhere, then on every scored path one
		// node down, one drifted node, and one link forced far below its
		// load.
		nodeCap, linkCap := make([]float64, net.N()), make([]float64, net.M())
		for v := range nodeCap {
			nodeCap[v] = []float64{1, 0, 0.05, rng.Float64()}[rng.IntN(4)]
		}
		for l := range linkCap {
			linkCap[l] = []float64{1, 0.05, rng.Float64()}[rng.IntN(3)]
		}
		hog := randomReservation(net, rng, 0.6)
		for _, m := range maps {
			nodeCap[m.Assign[0]] = 0.7
			first := firstPathLink(t, net, m)
			linkCap[first] = 0.02
			hog.LinkFrac[first] = 0.5
		}
		for _, m := range maps {
			walk := m.Walk()
			nodeCap[walk[len(walk)/2]] = 0
		}
		r := model.NewResidualNetwork(net)
		if err := r.SetCapacityFactors(nodeCap, linkCap); err != nil {
			t.Fatal(err)
		}
		outstanding := []model.Reservation{hog}
		own := make([]model.Reservation, len(maps))
		for k, m := range maps {
			rate := 0.5 * model.FrameRate(model.SharedBottleneck(net, pl, m))
			if own[k], err = model.MappingReservation(net, pl, m, rate); err != nil {
				t.Fatal(err)
			}
			outstanding = append(outstanding, own[k])
		}
		if err := r.SetLoad(outstanding); err != nil {
			t.Fatal(err)
		}

		for k, m := range maps {
			walk := m.Walk()
			if !r.NodeIsDown(walk[len(walk)/2]) {
				t.Fatalf("case %d mapping %d: path node not down", i+1, k)
			}
			first := firstPathLink(t, net, m)
			if r.LinkLoad(first)-own[k].LinkFrac[first] <= r.LinkCapacity(first) {
				t.Fatalf("case %d mapping %d: path link l%d not overcommitted", i+1, k, first)
			}
			checkScore(t, "suite case", r, own[k], pl, m)
			// An exclusion that was never loaded drives load - res below
			// zero, so the residual fraction clamps at 1.
			checkScore(t, "foreign exclusion", r, randomReservation(net, rng, 2), pl, m)
		}

		// A reservation shaped for another network is an error, not a score.
		for _, bad := range []model.Reservation{
			{NodeFrac: make([]float64, net.N()-1), LinkFrac: make([]float64, net.M())},
			{NodeFrac: make([]float64, net.N()), LinkFrac: make([]float64, net.M()+1)},
		} {
			if _, _, err := r.ScoreWithout(bad, pl, maps[0], p.Cost); err == nil {
				t.Fatalf("case %d: mis-shaped reservation scored without error", i+1)
			}
		}

		// A pair of groups with no link between them scores +Inf (the
		// smallest cases are complete digraphs and have no such pair).
		var broken *model.Mapping
		for u := 0; u < net.N() && broken == nil; u++ {
			for v := 0; v < net.N(); v++ {
				if _, ok := net.LinkBetween(model.NodeID(u), model.NodeID(v)); u != v && !ok {
					assign := make([]model.NodeID, pl.N())
					for j := range assign {
						assign[j] = model.NodeID(v)
					}
					assign[0] = model.NodeID(u)
					broken = model.NewMapping(assign)
					break
				}
			}
		}
		if broken == nil {
			continue
		}
		missing++
		d, period, err := r.ScoreWithout(own[0], pl, broken, p.Cost)
		if err != nil || !math.IsInf(d, 1) || !math.IsInf(period, 1) {
			t.Fatalf("case %d: missing link scored (%v, %v, %v), want (+Inf, +Inf, nil)", i+1, d, period, err)
		}
		checkScore(t, "missing link", r, own[0], pl, broken)
	}
	if missing == 0 {
		t.Fatal("no case had a missing link to score")
	}
}
