package model

import "fmt"

// MinResidualFraction is the floor applied when materializing a residual
// view: a fully saturated node or link keeps this fraction of its nominal
// capacity so the materialized Network stays structurally valid (NewNetwork
// requires positive power and bandwidth). The resulting compute and transfer
// times are ~10^9 times their nominal values, so solvers avoid saturated
// resources whenever any alternative exists, and admission control rejects
// mappings that would overcommit them regardless.
const MinResidualFraction = 1e-9

// Reservation is the fractional capacity a deployment holds on every node
// and link of a network: NodeFrac[v] (LinkFrac[l]) is the fraction of node
// v's power (link l's bandwidth) consumed, each in [0, 1].
type Reservation struct {
	NodeFrac []float64
	LinkFrac []float64
	// Class tags the reservation with the SLO class of the deployment that
	// holds it ("guaranteed", "standard", "best_effort"; empty = standard).
	// It is informational — stamped at admission so capacity accounting can
	// attribute load per class — and never affects the numeric load math.
	Class string
}

// MappingReservation computes the reservation a mapping imposes on net when
// its pipeline streams at rateFPS frames per second: each resource's busy
// time per frame (at nominal capacity) times the frame arrival rate. A
// non-positive rate yields an all-zero reservation. Mappings that reuse a
// node or link accumulate the utilization of every visit.
func MappingReservation(net *Network, pl *Pipeline, m *Mapping, rateFPS float64) (Reservation, error) {
	res := Reservation{
		NodeFrac: make([]float64, net.N()),
		LinkFrac: make([]float64, net.M()),
	}
	if rateFPS <= 0 {
		return res, nil
	}
	framesPerMs := rateFPS / 1000.0
	groups := m.Groups()
	for gi, g := range groups {
		power := net.Power(g.Node)
		for j := g.First; j <= g.Last; j++ {
			res.NodeFrac[g.Node] += pl.ComputeTime(j, power) * framesPerMs
		}
		if gi+1 < len(groups) {
			link, ok := net.LinkBetween(g.Node, groups[gi+1].Node)
			if !ok {
				return Reservation{}, fmt.Errorf("model: reservation: no link %d->%d", g.Node, groups[gi+1].Node)
			}
			res.LinkFrac[link.ID] += link.TransferTime(pl.OutBytes(g.Last), false) * framesPerMs
		}
	}
	return res, nil
}

// ResidualNetwork is a capacity view of a base Network shared by many
// pipeline deployments: it tracks the outstanding fractional load on every
// node and link and materializes scaled Network snapshots whose node powers
// and link bandwidths are the unreserved remainder. The paper's solvers run
// unchanged against a snapshot, which is what turns the single-pipeline
// algorithms into multi-tenant placement.
//
// Besides load, the view carries per-element capacity factors mutated by
// churn events (ApplyChurn): a node's effective capacity is its nominal
// power times the factor (1 nominal, 0 down), and loads are always
// fractions of *nominal* capacity, so a factor drop can leave an element
// over capacity until its reservations are repaired.
//
// ResidualNetwork performs no synchronization; callers that share one across
// goroutines (internal/fleet does) must serialize access.
type ResidualNetwork struct {
	base     *Network
	nodeLoad []float64
	linkLoad []float64
	// nodeCap and linkCap are the churn capacity factors in [0, 1]
	// (1 = nominal); see ApplyChurn in churn.go.
	nodeCap []float64
	linkCap []float64
}

// NewResidualNetwork builds an unloaded residual view of base at full
// nominal capacity.
func NewResidualNetwork(base *Network) *ResidualNetwork {
	r := &ResidualNetwork{
		base:     base,
		nodeLoad: make([]float64, base.N()),
		linkLoad: make([]float64, base.M()),
		nodeCap:  make([]float64, base.N()),
		linkCap:  make([]float64, base.M()),
	}
	for i := range r.nodeCap {
		r.nodeCap[i] = 1
	}
	for i := range r.linkCap {
		r.linkCap[i] = 1
	}
	return r
}

// Base returns the underlying full-capacity network.
func (r *ResidualNetwork) Base() *Network { return r.base }

// CloneEmpty returns a new residual view of the same base network carrying
// the same churn capacity factors but zero outstanding load. Parallel
// proposal phases use it to build per-goroutine views that still see the
// churned network — a plain NewResidualNetwork would silently reset every
// down node to full capacity.
func (r *ResidualNetwork) CloneEmpty() *ResidualNetwork {
	return &ResidualNetwork{
		base:     r.base,
		nodeLoad: make([]float64, r.base.N()),
		linkLoad: make([]float64, r.base.M()),
		nodeCap:  append([]float64(nil), r.nodeCap...),
		linkCap:  append([]float64(nil), r.linkCap...),
	}
}

// checkShape validates that res matches the base network's dimensions.
func (r *ResidualNetwork) checkShape(res Reservation) error {
	if len(res.NodeFrac) != r.base.N() || len(res.LinkFrac) != r.base.M() {
		return fmt.Errorf("model: reservation shape (%d nodes, %d links) does not match network (%d, %d)",
			len(res.NodeFrac), len(res.LinkFrac), r.base.N(), r.base.M())
	}
	return nil
}

// SetLoad replaces the outstanding load with the exact sum of the given
// reservations, accumulated in slice order. Recomputing from the outstanding
// set — rather than incrementally adding and subtracting — makes Release
// exact: the empty set restores every load to precisely zero, with no
// floating-point residue.
func (r *ResidualNetwork) SetLoad(outstanding []Reservation) error {
	for i := range r.nodeLoad {
		r.nodeLoad[i] = 0
	}
	for i := range r.linkLoad {
		r.linkLoad[i] = 0
	}
	for _, res := range outstanding {
		if err := r.checkShape(res); err != nil {
			return err
		}
		for i, f := range res.NodeFrac {
			r.nodeLoad[i] += f
		}
		for i, f := range res.LinkFrac {
			r.linkLoad[i] += f
		}
	}
	return nil
}

// AddLoad adds res on top of the current outstanding load. The sharded
// fleet uses it to overlay cross-region reservations onto a shard's own
// recomputed load; the sum stays exact because every recompute replays the
// same additions in the same order.
func (r *ResidualNetwork) AddLoad(res Reservation) error {
	if err := r.checkShape(res); err != nil {
		return err
	}
	for i, f := range res.NodeFrac {
		r.nodeLoad[i] += f
	}
	for i, f := range res.LinkFrac {
		r.linkLoad[i] += f
	}
	return nil
}

// CapacityFactors returns copies of the churn capacity factors per node and
// per link (1 = nominal, 0 = down; indices match the base network).
func (r *ResidualNetwork) CapacityFactors() (node, link []float64) {
	return append([]float64(nil), r.nodeCap...), append([]float64(nil), r.linkCap...)
}

// SetCapacityFactors replaces the churn capacity factors wholesale. Factors
// must be in [0, 1] and shaped like the base network. The sharded
// coordinator uses it to commit a validated cross-shard churn batch
// atomically; loads are untouched.
func (r *ResidualNetwork) SetCapacityFactors(node, link []float64) error {
	if len(node) != r.base.N() || len(link) != r.base.M() {
		return fmt.Errorf("model: capacity factors shape (%d nodes, %d links) does not match network (%d, %d)",
			len(node), len(link), r.base.N(), r.base.M())
	}
	for i, f := range node {
		if f < 0 || f > 1 {
			return fmt.Errorf("model: node %d capacity factor %v outside [0,1]", i, f)
		}
	}
	for i, f := range link {
		if f < 0 || f > 1 {
			return fmt.Errorf("model: link %d capacity factor %v outside [0,1]", i, f)
		}
	}
	copy(r.nodeCap, node)
	copy(r.linkCap, link)
	return nil
}

// Fits reports whether adding res keeps every node and link load at or below
// its current capacity factor (load + reservation <= factor, checked
// strictly; the factor is 1 unless churn reduced it).
func (r *ResidualNetwork) Fits(res Reservation) bool {
	if r.checkShape(res) != nil {
		return false
	}
	for i, f := range res.NodeFrac {
		if r.nodeLoad[i]+f > r.nodeCap[i] {
			return false
		}
	}
	for i, f := range res.LinkFrac {
		if r.linkLoad[i]+f > r.linkCap[i] {
			return false
		}
	}
	return true
}

// NodeLoad returns the outstanding load fraction on node v.
func (r *ResidualNetwork) NodeLoad(v NodeID) float64 { return r.nodeLoad[v] }

// LinkLoad returns the outstanding load fraction on link id.
func (r *ResidualNetwork) LinkLoad(id int) float64 { return r.linkLoad[id] }

// residualFraction clamps the unreserved remainder of the effective
// capacity (factor minus load, both fractions of nominal) into
// [MinResidualFraction, 1].
func residualFraction(capFactor, load float64) float64 {
	f := capFactor - load
	if f < MinResidualFraction {
		return MinResidualFraction
	}
	if f > 1 {
		return 1
	}
	return f
}

// NodeResidual returns the unreserved fraction of node v's nominal power
// (capacity factor minus load), clamped to [0, 1]: overcommitment — which
// admission control prevents for load, but churn can force — never reads as
// negative capacity.
func (r *ResidualNetwork) NodeResidual(v NodeID) float64 {
	f := r.nodeCap[v] - r.nodeLoad[v]
	if f < 0 {
		return 0
	}
	return f
}

// LinkResidual returns the unreserved fraction of link id's nominal
// bandwidth, clamped to [0, 1].
func (r *ResidualNetwork) LinkResidual(id int) float64 {
	f := r.linkCap[id] - r.linkLoad[id]
	if f < 0 {
		return 0
	}
	return f
}

// Snapshot materializes the residual view as a standalone Network: node v's
// power and link l's bandwidth are the base values scaled by the unreserved
// remainder of the effective capacity (floored at MinResidualFraction, so a
// down node stays structurally present but priced out of every solve).
// Minimum link delays are propagation latency and do not scale with load.
// The snapshot shares no state with the residual view; solvers may use it
// freely while the view keeps changing.
func (r *ResidualNetwork) Snapshot() *Network {
	return r.snapshotExcluding(nil, nil)
}

// SnapshotInto is Snapshot materializing into buf's backing arrays when buf
// is a previous snapshot of this view (same shape and topology), avoiding
// the per-solve slice allocations on hot repair paths. The caller owns the
// buffer and must not pass one a retained solver state still references —
// internal/core.WarmState double-buffers its snapshots for exactly this.
// A nil or mismatched buf falls back to a fresh Snapshot.
func (r *ResidualNetwork) SnapshotInto(buf *Network) *Network {
	if buf != nil && (len(buf.Nodes) != len(r.base.Nodes) ||
		len(buf.Links) != len(r.base.Links) || buf.topo != r.base.topo) {
		buf = nil
	}
	return r.snapshotExcluding(buf, nil)
}

// ScoreWithout scores a placement as the deployment holding res sees the
// network: its Eq. 1 delay and shared Eq. 2 bottleneck period (TotalDelay,
// SharedBottleneck) with res subtracted from the outstanding load. Only the
// nodes and links m touches are read, scaled exactly as snapshotExcluding
// scales them, so the scores equal those on a materialized snapshot bit for
// bit at O(modules) cost, without mutating the shared view. A missing link
// yields +Inf for both.
func (r *ResidualNetwork) ScoreWithout(res Reservation, pl *Pipeline, m *Mapping, cost CostOptions) (delayMs, bottleneckMs float64, err error) {
	if err := r.checkShape(res); err != nil {
		return 0, 0, err
	}
	delayMs, bottleneckMs = pathCost(r.base, pl, m, cost, r, &res)
	return delayMs, bottleneckMs, nil
}

// snapshotExcluding is the shared materialization, into buf's arrays when
// buf is non-nil (SnapshotInto has checked its shape): exclude, when
// non-nil, is subtracted from each element's load before the residual
// fraction is computed (the fraction clamp bounds the result even if the
// exclusion exceeds the recorded load).
func (r *ResidualNetwork) snapshotExcluding(buf *Network, exclude *Reservation) *Network {
	if buf == nil {
		// The base was validated and scaling preserves positivity and
		// endpoints, so the base topology index describes the snapshot
		// exactly; reusing it skips the O(links) graph rebuild that used to
		// dominate repair time.
		buf = sharedTopoNetwork(make([]Node, len(r.base.Nodes)), make([]Link, len(r.base.Links)), r.base.topo)
	}
	copy(buf.Nodes, r.base.Nodes)
	for i := range buf.Nodes {
		load := r.nodeLoad[i]
		if exclude != nil {
			load -= exclude.NodeFrac[i]
		}
		buf.Nodes[i].Power = r.base.Nodes[i].Power * residualFraction(r.nodeCap[i], load)
	}
	copy(buf.Links, r.base.Links)
	for i := range buf.Links {
		load := r.linkLoad[i]
		if exclude != nil {
			load -= exclude.LinkFrac[i]
		}
		buf.Links[i].BWMbps = r.base.Links[i].BWMbps * residualFraction(r.linkCap[i], load)
	}
	return buf
}
