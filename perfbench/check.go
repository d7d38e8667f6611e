package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"sort"
	"sync"

	"elpc/internal/model"
	"elpc/internal/service/wire"
)

// relTol is the relative tolerance for comparing objective values. The
// service and the checks run the same float arithmetic and JSON round-trips
// float64 exactly, so any real disagreement is far larger.
const relTol = 1e-9

func near(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// planReply is the part of a planning answer the checks read. The problem
// hash is deliberately not read: its format is the program's to change.
type planReply struct {
	Op           string         `json:"op"`
	Assignment   []model.NodeID `json:"assignment"`
	DelayMs      float64        `json:"delay_ms"`
	BottleneckMs float64        `json:"bottleneck_ms"`
	Cached       bool           `json:"cached"`
}

// errNeedRef marks a 422 on a problem outside the reference sample: it is
// correct only if a reference solve, run after the timed phase, also finds
// the problem infeasible.
var errNeedRef = fmt.Errorf("needs reference")

// checkPlan checks one planning answer: the mapping is valid for the
// objective, the reported delay and bottleneck are what the model's cost
// functions give for the returned assignment, the cache flag is the one the
// workload expects, and a sampled answer equals the reference solve.
func checkPlan(it *planItem, wantCached bool, status int, body []byte) error {
	switch status {
	case http.StatusOK:
	case http.StatusUnprocessableEntity:
		switch {
		case it.ref == nil:
			return errNeedRef
		case it.ref.infeasible:
			return nil
		}
		return fmt.Errorf("wrong answer: 422 infeasible, reference solved it")
	default:
		return fmt.Errorf("wrong answer: status %d: %s", status, trim(body))
	}
	var r planReply
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("wrong answer: undecodable reply: %v", err)
	}
	obj := objective(it.op)
	m := model.NewMapping(r.Assignment)
	switch {
	case r.Op != it.op:
		return fmt.Errorf("wrong answer: op %q, sent %q", r.Op, it.op)
	case r.Cached != wantCached:
		return fmt.Errorf("wrong answer: cached=%v, workload expects %v", r.Cached, wantCached)
	}
	if err := it.prob.ValidateMapping(m, obj); err != nil {
		return fmt.Errorf("wrong answer: invalid mapping: %v", err)
	}
	if d := model.TotalDelay(it.prob.Net, it.prob.Pipe, m, it.prob.Cost); !near(d, r.DelayMs) {
		return fmt.Errorf("wrong answer: delay_ms %v, assignment gives %v", r.DelayMs, d)
	}
	if b := score(it.prob, m, model.MaxFrameRate); !near(b, r.BottleneckMs) {
		return fmt.Errorf("wrong answer: bottleneck_ms %v, assignment gives %v", r.BottleneckMs, b)
	}
	if it.ref != nil {
		if it.ref.infeasible {
			return fmt.Errorf("wrong answer: solved a problem the reference finds infeasible")
		}
		if v := score(it.prob, m, obj); !near(v, it.ref.value) {
			return fmt.Errorf("wrong answer: objective %v, reference %v", v, it.ref.value)
		}
	}
	return nil
}

// checkDeployment checks an admitted deployment against the request that
// produced it: same tenant, objective and SLO; a valid mapping from the
// request's source to its sink; the SLO met by the reported delay and rate;
// and those reports consistent with the model's cost functions, which on
// the full-capacity network can only give a lower delay and a higher rate
// than on the residual network admission priced.
func checkDeployment(net *model.Network, q wire.FleetDeploy, d wire.Deployment) error {
	op := q.Op
	if op == "" {
		op = "mindelay"
	}
	switch {
	case d.ID == "":
		return fmt.Errorf("wrong answer: deployment without id")
	case d.Tenant != q.Tenant || d.Op != op:
		return fmt.Errorf("wrong answer: deployment %s is %s/%s, requested %s/%s", d.ID, d.Tenant, d.Op, q.Tenant, op)
	case d.SLO.MaxDelayMs != q.MaxDelayMs || d.SLO.MinRateFPS != q.MinRateFPS || string(d.SLO.Class) != q.Class:
		return fmt.Errorf("wrong answer: deployment %s SLO %+v, requested %+v", d.ID, d.SLO, q)
	case q.MaxDelayMs > 0 && d.DelayMs > q.MaxDelayMs:
		return fmt.Errorf("wrong answer: deployment %s delay %v over SLO %v", d.ID, d.DelayMs, q.MaxDelayMs)
	case d.RateFPS < q.MinRateFPS || d.ReservedFPS != q.MinRateFPS:
		return fmt.Errorf("wrong answer: deployment %s rate %v reserved %v, SLO %v", d.ID, d.RateFPS, d.ReservedFPS, q.MinRateFPS)
	}
	m := model.NewMapping(d.Assignment)
	obj := objective(op)
	p := &model.Problem{Net: net, Pipe: q.Pipeline, Src: q.Src, Dst: q.Dst, Cost: model.DefaultCostOptions()}
	if err := p.ValidateMapping(m, obj); err != nil {
		return fmt.Errorf("wrong answer: deployment %s mapping: %v", d.ID, err)
	}
	if delay := model.TotalDelay(net, q.Pipeline, m, p.Cost); delay > d.DelayMs*(1+relTol) {
		return fmt.Errorf("wrong answer: deployment %s delay %v below its full-capacity delay %v", d.ID, d.DelayMs, delay)
	}
	if rate := model.FrameRate(score(p, m, model.MaxFrameRate)); rate < d.RateFPS*(1-relTol) {
		return fmt.Errorf("wrong answer: deployment %s rate %v above its full-capacity rate %v", d.ID, d.RateFPS, rate)
	}
	return nil
}

// ledger is the client's own record of the fleet: every deployment the
// server admitted and has not released, as the server reported it.
type ledger struct {
	mu        sync.Mutex
	deps      map[string]wire.Deployment
	releasing map[string]bool
}

func newLedger(deps []wire.Deployment) *ledger {
	l := &ledger{deps: map[string]wire.Deployment{}, releasing: map[string]bool{}}
	for _, d := range deps {
		l.deps[d.ID] = d
	}
	return l
}

func (l *ledger) add(d wire.Deployment) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, dup := l.deps[d.ID]; dup {
		return fmt.Errorf("wrong answer: deployment id %s issued twice", d.ID)
	}
	l.deps[d.ID] = d
	return nil
}

// takeOldest picks the resident with the lowest admission sequence that no
// other client is releasing, and marks it as being released.
func (l *ledger) takeOldest() (string, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	best := ""
	for id, d := range l.deps {
		if !l.releasing[id] && (best == "" || d.Seq < l.deps[best].Seq) {
			best = id
		}
	}
	if best != "" {
		l.releasing[best] = true
	}
	return best, best != ""
}

// released settles a release takeOldest started; ok reports whether the
// server released it.
func (l *ledger) released(id string, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.releasing, id)
	if ok {
		delete(l.deps, id)
	}
}

// list returns the ledger in admission order.
func (l *ledger) list() []wire.Deployment {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]wire.Deployment, 0, len(l.deps))
	for _, d := range l.deps {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// linkUses counts, per link, the resident deployments whose mappings
// traverse it.
func (l *ledger) linkUses(net *model.Network) map[int]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	links := map[int]int{}
	for _, d := range l.deps {
		walk := model.NewMapping(d.Assignment).Walk()
		for i := 1; i < len(walk); i++ {
			if link, ok := net.LinkBetween(walk[i-1], walk[i]); ok {
				links[link.ID]++
			}
		}
	}
	return links
}

// sameFleet reports how a fleet list differs from the expected one, or nil
// when both hold the same deployments with the same fields.
func sameFleet(want, got []wire.Deployment) error {
	byID := make(map[string]wire.Deployment, len(want))
	for _, d := range want {
		byID[d.ID] = d
	}
	if len(got) != len(want) {
		return fmt.Errorf("fleet lists %d deployments, expected %d", len(got), len(want))
	}
	for _, d := range got {
		w, ok := byID[d.ID]
		if !ok {
			return fmt.Errorf("fleet lists unexpected deployment %s", d.ID)
		}
		if !reflect.DeepEqual(w, d) {
			return fmt.Errorf("deployment %s differs: got %+v, expected %+v", d.ID, d, w)
		}
	}
	return nil
}
