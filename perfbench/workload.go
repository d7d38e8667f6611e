package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand/v2"
	"strconv"

	"elpc/internal/core"
	"elpc/internal/gen"
	"elpc/internal/model"
	"elpc/internal/service/wire"
)

// Workload names, as BENCHMARK.json lists them.
const (
	planHit      = "plan-hit"
	planCold     = "plan-cold"
	fleetDurable = "fleet-durable"
)

// Plan workloads draw their problems from Suite20 case shapes 3..9: 20 to
// 70 nodes and 180 to 1900 links, re-seeded from the workload seed.
const (
	shapeLo, shapeHi = 3, 9
	shapes           = shapeHi - shapeLo + 1
)

// Sizes of the plan workloads. hitPerShape problems of every shape make
// the plan-hit working set (42 entries, far below the 4096-entry solution
// cache). plan-cold spreads its problems over coldNetsPerShape networks of
// every shape and warms the server with coldWarm problems outside the timed
// set. One op in refEvery of plan-cold is checked against a reference solve.
const (
	hitPerShape      = 6
	coldNetsPerShape = 6
	coldWarm         = 56
	refEvery         = 16
)

// Fixed operation counts per second of --seconds, so a run replays a seeded
// op count rather than a time window (a faster program must not end with a
// bigger cache, fleet or log). The rates are what the reference machine
// sustains, so a run lasts about --seconds there.
var opsPerSecond = map[string]int{planHit: 330, planCold: 300, fleetDurable: 380}

// The timed ops run as consecutive closed-loop blocks of at least
// minBlockOps ops (ten samples beyond each block's p99), at least
// minBlocks of them, and the timing metrics are medians over blocks: a
// burst of interference from outside the benchmark moves the blocks it
// overlaps, not the result.
const (
	minBlocks   = 5
	minBlockOps = 1000
)

// opCount returns the timed op count for a workload and run length, rounded
// up to a multiple of unit.
func opCount(workload string, seconds, unit int) int {
	n := max(opsPerSecond[workload]*seconds, minBlocks*minBlockOps)
	return (n + unit - 1) / unit * unit
}

// blockCount is how many blocks n timed ops run as.
func blockCount(n int) int { return max(n/minBlockOps, 1) }

// workloadRNG derives a workload's generator from the run seed.
func workloadRNG(workload string, seed uint64) *rand.Rand {
	h := sha256.Sum256([]byte(workload))
	salt := uint64(h[0]) | uint64(h[1])<<8 | uint64(h[2])<<16 | uint64(h[3])<<24
	return gen.RNG(seed*0x9e3779b97f4a7c15 ^ salt)
}

// planItem is one planning request: the problem the client checks against
// and its pre-encoded body. The network JSON (head) is shared by every item
// on the same network; tail carries the pipeline and endpoints.
type planItem struct {
	op   string
	prob *model.Problem
	head []byte
	tail []byte
	// ref is the reference answer solved in-process before the server
	// starts; nil for ops outside the checked sample.
	ref *planRef
}

// planRef is a reference answer: the objective value (delay for mindelay,
// bottleneck for maxframerate) or infeasibility.
type planRef struct {
	infeasible bool
	value      float64
}

// planInputs is a plan workload: warm-up items solved during setup, then
// the timed items, every one of which must come back with cached ==
// wantCached.
type planInputs struct {
	warm       []*planItem
	timed      []*planItem
	wantCached bool
}

// objective maps a wire op onto the model objective.
func objective(op string) model.Objective {
	if op == "maxframerate" {
		return model.MaxFrameRate
	}
	return model.MinDelay
}

// reference solves the item in-process with the paper's algorithms.
func reference(it *planItem) *planRef {
	obj := objective(it.op)
	var m *model.Mapping
	var err error
	if obj == model.MaxFrameRate {
		m, err = core.MaxFrameRate(it.prob)
	} else {
		m, err = core.MinDelay(it.prob)
	}
	if err != nil {
		return &planRef{infeasible: true}
	}
	return &planRef{value: score(it.prob, m, obj)}
}

// score evaluates a mapping the way the service reports it: delay for
// mindelay, the (shared-resource, when nodes are reused) bottleneck for
// maxframerate.
func score(p *model.Problem, m *model.Mapping, obj model.Objective) float64 {
	if obj == model.MinDelay {
		return model.TotalDelay(p.Net, p.Pipe, m, p.Cost)
	}
	if m.UsesReuse() {
		return model.SharedBottleneck(p.Net, p.Pipe, m)
	}
	return model.Bottleneck(p.Net, p.Pipe, m)
}

// networkHead encodes the shared head of a plan body.
func networkHead(net *model.Network) ([]byte, error) {
	b, err := json.Marshal(net)
	if err != nil {
		return nil, err
	}
	return append([]byte(`{"network":`), b...), nil
}

// problemTail encodes the per-problem rest of a plan body.
func problemTail(pl *model.Pipeline, src, dst model.NodeID) ([]byte, error) {
	b, err := json.Marshal(pl)
	if err != nil {
		return nil, err
	}
	tail := append([]byte(`,"pipeline":`), b...)
	tail = append(tail, `,"src":`...)
	tail = strconv.AppendInt(tail, int64(src), 10)
	tail = append(tail, `,"dst":`...)
	tail = strconv.AppendInt(tail, int64(dst), 10)
	return append(tail, '}'), nil
}

// endpoints draws a distinct source and destination.
func endpoints(rng *rand.Rand, n int) (model.NodeID, model.NodeID) {
	src := rng.IntN(n)
	dst := rng.IntN(n - 1)
	if dst >= src {
		dst++
	}
	return model.NodeID(src), model.NodeID(dst)
}

// shapeBlock returns the shapes of one balanced block, two ops per shape,
// in seeded order: every block holds each (shape, op) pair once, so runs
// of any seed see the same mix.
func shapeBlock(rng *rand.Rand) (idx []int, ops []string) {
	for s := 0; s < shapes; s++ {
		idx = append(idx, shapeLo+s, shapeLo+s)
		ops = append(ops, "mindelay", "maxframerate")
	}
	rng.Shuffle(len(idx), func(i, j int) {
		idx[i], idx[j] = idx[j], idx[i]
		ops[i], ops[j] = ops[j], ops[i]
	})
	return idx, ops
}

// newPlanItem builds one problem of a Suite20 shape on net.
func newPlanItem(rng *rand.Rand, op string, shape int, net *model.Network, head []byte) (*planItem, error) {
	spec := gen.Suite20()[shape]
	pl, err := gen.Pipeline(spec.Modules, gen.DefaultRanges(), rng)
	if err != nil {
		return nil, err
	}
	src, dst := endpoints(rng, spec.Nodes)
	tail, err := problemTail(pl, src, dst)
	if err != nil {
		return nil, err
	}
	return &planItem{
		op:   op,
		prob: &model.Problem{Net: net, Pipe: pl, Src: src, Dst: dst, Cost: model.DefaultCostOptions()},
		head: head,
		tail: tail,
	}, nil
}

// shapeNetwork generates a network of a Suite20 shape.
func shapeNetwork(rng *rand.Rand, shape int) (*model.Network, []byte, error) {
	spec := gen.Suite20()[shape]
	net, err := gen.Network(spec.Nodes, spec.Links, gen.DefaultRanges(), rng)
	if err != nil {
		return nil, nil, err
	}
	head, err := networkHead(net)
	return net, head, err
}

// buildPlanHit makes the plan-hit workload: a 42-entry working set, each
// solved once during setup, then replayed in seeded shuffles.
func buildPlanHit(seed uint64, seconds int) (*planInputs, error) {
	rng := workloadRNG(planHit, seed)
	var set []*planItem
	for b := 0; b < hitPerShape/2; b++ {
		idx, ops := shapeBlock(rng)
		for i := range idx {
			net, head, err := shapeNetwork(rng, idx[i])
			if err != nil {
				return nil, err
			}
			it, err := newPlanItem(rng, ops[i], idx[i], net, head)
			if err != nil {
				return nil, err
			}
			it.ref = reference(it)
			set = append(set, it)
		}
	}
	in := &planInputs{warm: set, wantCached: true}
	n := opCount(planHit, seconds, len(set))
	perm := make([]*planItem, len(set))
	for len(in.timed) < n {
		copy(perm, set)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		in.timed = append(in.timed, perm...)
	}
	return in, nil
}

// buildPlanCold makes the plan-cold workload: every op a problem not sent
// before in the run. Problems share a pool of networks (42: six of every
// shape) and differ in pipeline and endpoints, so each still misses the
// cache, hashes its whole body and runs the DP.
func buildPlanCold(seed uint64, seconds int) (*planInputs, error) {
	rng := workloadRNG(planCold, seed)
	type netEntry struct {
		net  *model.Network
		head []byte
	}
	nets := make([][]netEntry, shapes)
	for s := 0; s < shapes; s++ {
		for k := 0; k < coldNetsPerShape; k++ {
			net, head, err := shapeNetwork(rng, shapeLo+s)
			if err != nil {
				return nil, err
			}
			nets[s] = append(nets[s], netEntry{net, head})
		}
	}
	block := 2 * shapes
	n := opCount(planCold, seconds, block)
	warm := (coldWarm + block - 1) / block * block
	seen := map[[32]byte]bool{}
	in := &planInputs{wantCached: false}
	for len(in.warm)+len(in.timed) < warm+n {
		idx, ops := shapeBlock(rng)
		for i := range idx {
			e := nets[idx[i]-shapeLo][rng.IntN(coldNetsPerShape)]
			it, err := newPlanItem(rng, ops[i], idx[i], e.net, e.head)
			if err != nil {
				return nil, err
			}
			key := sha256.Sum256(append(append([]byte(it.op), e.head...), it.tail...))
			if seen[key] {
				return nil, fmt.Errorf("plan-cold: generated a repeated problem")
			}
			seen[key] = true
			if len(in.warm) < warm {
				in.warm = append(in.warm, it)
				continue
			}
			if rng.IntN(refEvery) == 0 {
				it.ref = reference(it)
			}
			in.timed = append(in.timed, it)
		}
	}
	return in, nil
}

// fleetShape is the fleet network: Suite20 case 7 (50 nodes, 1000 links)
// with its own fixed seed, as in the repository's BenchmarkFleetDeploy. The
// tenant templates are fixed too (seeded 1000+i, as there); the workload
// seed draws which templates arrive and in what order, and the churn
// targets. A network or template set re-drawn per seed would move the
// saturated population, and every per-op cost with it.
const fleetShape = 7

// Fleet workload sizes.
const (
	fleetTemplates = 64
	batchSize      = 8
	historyFill    = 150
	historyCycles  = 300
	suffixCycles   = 2000
)

// fleetRateFPS is every tenant's frame-rate SLO and reservation. At 10
// fps the network saturates at about 115 to 140 resident deployments, so
// admission and residual bookkeeping outweigh the HTTP round trip in every
// op; with half the population (20 fps) the ops were short enough that
// scheduling noise from outside moved p99 by over 30% between runs.
const fleetRateFPS = 10

type fleetOpKind uint8

const (
	opDeploy fleetOpKind = iota
	opRelease
	opBatch
	opChurn
)

func (k fleetOpKind) String() string {
	return [...]string{"deploy", "release", "batch", "churn"}[k]
}

// fleetOp is one fleet-durable operation. Deploy and batch ops carry their
// pre-encoded body; a release targets the oldest resident and a churn op
// picks its target from the ledger with pick, both resolved at run time.
type fleetOp struct {
	kind  fleetOpKind
	tmpls []int
	body  []byte
	pick  uint64
}

// fleetTemplate is one deploy request the op stream draws from.
type fleetTemplate struct {
	req  wire.FleetDeploy
	body []byte
}

// fleetInputs is the fleet-durable workload.
type fleetInputs struct {
	net       *model.Network
	install   []byte
	templates []fleetTemplate
	// history is replayed sequentially into a fresh data dir, which is then
	// shut down cleanly (one compacted snapshot); suffix is logged after
	// it and the server is killed, so recovery is snapshot plus suffix.
	history []fleetOp
	suffix  []fleetOp
	timed   []fleetOp
}

// count returns how many timed ops are of the given kind.
func (in *fleetInputs) count(kind fleetOpKind) int {
	n := 0
	for _, op := range in.timed {
		if op.kind == kind {
			n++
		}
	}
	return n
}

// buildFleet makes the fleet-durable workload.
func buildFleet(seed uint64, seconds int) (*fleetInputs, error) {
	rng := workloadRNG(fleetDurable, seed)
	spec := gen.Suite20()[fleetShape]
	net, err := gen.Network(spec.Nodes, spec.Links, gen.DefaultRanges(), gen.RNG(spec.Seed))
	if err != nil {
		return nil, err
	}
	install, err := json.Marshal(wire.FleetNetwork{Network: net})
	if err != nil {
		return nil, err
	}
	in := &fleetInputs{net: net, install: install}
	for i := 0; i < fleetTemplates; i++ {
		trng := gen.RNG(uint64(1000 + i))
		pl, err := gen.Pipeline(5+i%4, gen.DefaultRanges(), trng)
		if err != nil {
			return nil, err
		}
		src, dst := endpoints(trng, spec.Nodes)
		q := wire.FleetDeploy{
			Tenant:     fmt.Sprintf("t%02d", i),
			Pipeline:   pl,
			Src:        src,
			Dst:        dst,
			Op:         "maxframerate",
			MinRateFPS: fleetRateFPS,
			Class:      "standard",
		}
		if i%4 == 0 {
			q.Class = "guaranteed"
		}
		if i%2 == 1 {
			// Interactive tenants also state a delay SLO: three times their
			// best delay on the empty network.
			q.Op = "mindelay"
			p := &model.Problem{Net: net, Pipe: pl, Src: q.Src, Dst: q.Dst, Cost: model.DefaultCostOptions()}
			if v := core.MinDelayValue(p); v > 0 && v < 1e300 {
				q.MaxDelayMs = 3 * v
			}
		}
		body, err := json.Marshal(q)
		if err != nil {
			return nil, err
		}
		in.templates = append(in.templates, fleetTemplate{req: q, body: body})
	}
	deploy := func() fleetOp {
		t := rng.IntN(fleetTemplates)
		return fleetOp{kind: opDeploy, tmpls: []int{t}, body: in.templates[t].body}
	}
	cycle := func(ops []fleetOp, n int) []fleetOp {
		for i := 0; i < n; i++ {
			ops = append(ops, fleetOp{kind: opRelease}, deploy(), deploy())
		}
		return ops
	}
	for i := 0; i < historyFill; i++ {
		in.history = append(in.history, deploy())
	}
	in.history = cycle(in.history, historyCycles)
	in.suffix = cycle(nil, suffixCycles)

	// The timed mix: per 100 ops, 50 single deploys, 38 releases of the
	// oldest resident, 7 deploy-batch bursts of 8 and 5 churn batches.
	// Deploy attempts outnumber releases, so the fleet stays saturated and
	// admission keeps rejecting some requests.
	n := opCount(fleetDurable, seconds, 100)
	for len(in.timed) < n {
		var block []fleetOp
		for i := 0; i < 50; i++ {
			block = append(block, deploy())
		}
		for i := 0; i < 38; i++ {
			block = append(block, fleetOp{kind: opRelease})
		}
		for i := 0; i < 7; i++ {
			op := fleetOp{kind: opBatch}
			reqs := wire.DeployBatch{}
			for j := 0; j < batchSize; j++ {
				t := rng.IntN(fleetTemplates)
				op.tmpls = append(op.tmpls, t)
				reqs.Requests = append(reqs.Requests, in.templates[t].req)
			}
			if op.body, err = json.Marshal(reqs); err != nil {
				return nil, err
			}
			block = append(block, op)
		}
		for i := 0; i < 5; i++ {
			block = append(block, fleetOp{kind: opChurn, pick: rng.Uint64()})
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		in.timed = append(in.timed, block...)
	}
	return in, nil
}

// streamDigest hashes a workload's whole generated op stream: every body
// byte, in order, with each op's kind. The determinism test compares it
// across seeds.
func streamDigest(workload string, seed uint64, seconds int) ([32]byte, error) {
	h := sha256.New()
	switch workload {
	case planHit, planCold:
		build := buildPlanHit
		if workload == planCold {
			build = buildPlanCold
		}
		in, err := build(seed, seconds)
		if err != nil {
			return [32]byte{}, err
		}
		for _, list := range [][]*planItem{in.warm, in.timed} {
			for _, it := range list {
				writeAll(h, []byte(it.op), it.head, it.tail)
			}
		}
	case fleetDurable:
		in, err := buildFleet(seed, seconds)
		if err != nil {
			return [32]byte{}, err
		}
		writeAll(h, in.install)
		for _, list := range [][]fleetOp{in.history, in.suffix, in.timed} {
			for _, op := range list {
				writeAll(h, []byte(op.kind.String()), op.body, strconv.AppendUint(nil, op.pick, 10))
			}
		}
	default:
		return [32]byte{}, fmt.Errorf("unknown workload %q", workload)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out, nil
}

func writeAll(h hash.Hash, parts ...[]byte) {
	for _, p := range parts {
		h.Write(p)
	}
	h.Write([]byte{0})
}
