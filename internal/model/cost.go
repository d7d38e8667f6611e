package model

import "math"

// CostOptions tunes the analytical cost model.
type CostOptions struct {
	// IncludeMLDInDelay adds the minimum link delay d_{u,v} to every
	// inter-group transfer when computing total end-to-end delay. The
	// paper's Section 2.2 link model includes MLD while Eq. 1 omits it;
	// DefaultCostOptions includes it (the stated link model), and setting
	// this false reproduces Eq. 1 verbatim.
	//
	// MLD never enters the frame-rate bottleneck (Eq. 2): propagation
	// latency does not occupy a link, so it shifts frames in time without
	// limiting the sustainable rate. The DES in internal/sim confirms this.
	IncludeMLDInDelay bool
}

// DefaultCostOptions is the configuration used throughout the evaluation.
func DefaultCostOptions() CostOptions {
	return CostOptions{IncludeMLDInDelay: true}
}

// TotalDelay evaluates Eq. 1: the end-to-end delay of the mapping, i.e. the
// sum of per-group computing times (on each group's node) plus the
// inter-group transport times of the group output messages. Intra-group
// transfers are free (same node). The mapping is assumed structurally valid;
// a missing link between consecutive groups yields +Inf.
func TotalDelay(net *Network, pl *Pipeline, m *Mapping, opt CostOptions) float64 {
	delay, _ := pathCost(net, pl, m, opt, nil, nil)
	return delay
}

// Bottleneck evaluates Eq. 2: the time of the slowest stage of the mapped
// pipeline — the maximum over per-group computing times and inter-group
// transfer times (bandwidth term only; see CostOptions). A missing link
// yields +Inf. The achievable frame rate is 1/Bottleneck.
//
// Bottleneck treats each group and each transfer as an independent resource,
// which matches the paper's no-reuse streaming model. When a mapping reuses
// nodes, use SharedBottleneck instead.
func Bottleneck(net *Network, pl *Pipeline, m *Mapping) float64 {
	groups := m.Groups()
	worst := 0.0
	for gi, g := range groups {
		power := net.Power(g.Node)
		groupCompute := 0.0
		for j := g.First; j <= g.Last; j++ {
			groupCompute += pl.ComputeTime(j, power)
		}
		if groupCompute > worst {
			worst = groupCompute
		}
		if gi+1 < len(groups) {
			link, ok := net.LinkBetween(g.Node, groups[gi+1].Node)
			if !ok {
				return math.Inf(1)
			}
			if t := link.TransferTime(pl.OutBytes(g.Last), false); t > worst {
				worst = t
			}
		}
	}
	return worst
}

// SharedBottleneck generalizes Eq. 2 to mappings that reuse nodes or links
// (the paper's Section 5 future-work setting): each physical resource is
// occupied for the sum of the work of all groups/transfers placed on it per
// frame, and the sustainable period is the maximum total occupancy. For
// reuse-free mappings it equals Bottleneck.
func SharedBottleneck(net *Network, pl *Pipeline, m *Mapping) float64 {
	_, period := pathCost(net, pl, m, CostOptions{}, nil, nil)
	return period
}

// busyTime is one physical resource's per-frame occupancy in pathCost.
type busyTime struct {
	link bool // id is a link ID, else a node ID
	id   int
	ms   float64
}

// pathCost evaluates Eq. 1 and the shared-resource Eq. 2 over the modules
// of m in order, reading only the nodes and links the mapping touches. With
// r non-nil, each touched node's power and link's bandwidth is scaled by its
// residual fraction with exclude's share of the load removed: the same
// product snapshotExcluding stores, so the results are bit-identical to
// scoring that snapshot without materializing it. Each resource's busy time
// accumulates in visit order, in a stack slice for typical pipelines. A
// missing link yields +Inf for both.
func pathCost(net *Network, pl *Pipeline, m *Mapping, opt CostOptions, r *ResidualNetwork, exclude *Reservation) (delay, period float64) {
	var buf [16]busyTime
	busy := buf[:0]
	slot := func(link bool, id int) int {
		for i := range busy {
			if busy[i].link == link && busy[i].id == id {
				return i
			}
		}
		busy = append(busy, busyTime{link: link, id: id})
		return len(busy) - 1
	}
	for j := 0; j < len(m.Assign); {
		v := m.Assign[j]
		power := net.Power(v)
		if r != nil {
			power *= residualFraction(r.nodeCap[v], r.nodeLoad[v]-exclude.NodeFrac[v])
		}
		node := slot(false, int(v))
		for ; j < len(m.Assign) && m.Assign[j] == v; j++ {
			t := pl.ComputeTime(j, power)
			delay += t
			busy[node].ms += t
		}
		if j == len(m.Assign) {
			break
		}
		link, ok := net.LinkBetween(v, m.Assign[j])
		if !ok {
			return math.Inf(1), math.Inf(1)
		}
		if r != nil {
			link.BWMbps *= residualFraction(r.linkCap[link.ID], r.linkLoad[link.ID]-exclude.LinkFrac[link.ID])
		}
		out := pl.OutBytes(j - 1)
		delay += link.TransferTime(out, opt.IncludeMLDInDelay)
		busy[slot(true, link.ID)].ms += link.TransferTime(out, false)
	}
	for _, b := range busy {
		if b.ms > period {
			period = b.ms
		}
	}
	return delay, period
}

// FrameRate converts a bottleneck period in ms to frames per second.
// A zero, negative, or infinite bottleneck yields 0.
func FrameRate(bottleneckMs float64) float64 {
	if bottleneckMs <= 0 || math.IsInf(bottleneckMs, 1) || math.IsNaN(bottleneckMs) {
		return 0
	}
	return 1000.0 / bottleneckMs
}
