package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"elpc/internal/core"
	"elpc/internal/engine"
	"elpc/internal/model"
	"elpc/internal/telemetry"
)

// Solver answers planning requests concurrently: a bounded worker pool caps
// simultaneous DP solves, and a sharded LRU cache keyed by the canonical
// problem hash serves repeated requests in O(lookup). A Solver is safe for
// concurrent use by any number of goroutines.
//
// Inside a single solve, work that decomposes (a Pareto sweep's budget
// points, a batch's problems) additionally fans out across a shared
// engine.Pool sized like the worker pool, so one expensive request uses the
// whole machine instead of one core — and fleet re-solves share the same
// pool, so they cannot starve planning requests.
type Solver struct {
	opt   Options
	cache *cache
	slots chan struct{}
	pool  *engine.Pool

	// flights coalesces concurrent identical requests onto one solve
	// (singleflight), so a thundering herd of the same problem costs one
	// DP run instead of Workers runs.
	flightMu sync.Mutex
	flights  map[cacheKey]*flight

	inFlight   atomic.Int64
	queueDepth atomic.Int64
	coldSolves atomic.Uint64
	coalesced  atomic.Uint64
	timeouts   atomic.Uint64
}

// flight is one in-progress solve that followers wait on.
type flight struct {
	done chan struct{}
	sol  *solution
	err  error
}

// errFlightAbandoned marks a flight whose leader gave up before the solve
// started (context expired while waiting for a worker slot). Followers see
// it and contend for leadership instead of inheriting the leader's error.
var errFlightAbandoned = errors.New("service: flight abandoned before solving")

// SolverStats is a point-in-time snapshot of solver counters.
type SolverStats struct {
	Workers int `json:"workers"`
	// InFlight counts solves currently occupying a worker slot.
	InFlight int64 `json:"in_flight"`
	// QueueDepth counts requests currently waiting for a worker slot — the
	// backlog the pool has not absorbed yet (a saturation gauge; InFlight
	// alone pins at Workers under any load).
	QueueDepth int64 `json:"queue_depth"`
	// ColdSolves counts solves that went to the DP (cache misses that ran).
	ColdSolves uint64 `json:"cold_solves"`
	// Coalesced counts requests served by joining another request's
	// in-progress solve of the identical problem.
	Coalesced uint64 `json:"coalesced"`
	// Timeouts counts requests abandoned on context deadline/cancellation.
	Timeouts uint64     `json:"timeouts"`
	Cache    CacheStats `json:"cache"`
}

// NewSolver builds a Solver with the given options (zero value is usable:
// GOMAXPROCS workers, default cache). Set Options.CacheCapacity negative to
// disable caching.
func NewSolver(opt Options) *Solver {
	n := opt.Normalized()
	return &Solver{
		opt:     n,
		cache:   newCache(n.CacheCapacity, n.CacheShards),
		slots:   make(chan struct{}, n.Workers),
		pool:    engine.NewPool(n.Workers),
		flights: make(map[cacheKey]*flight),
	}
}

// Options returns the normalized options the solver runs with.
func (s *Solver) Options() Options { return s.opt }

// Pool exposes the solver's shared parallel-execution pool so co-located
// subsystems (the fleet manager, embedders) fan their own decomposable work
// out over the same bounded concurrency budget.
func (s *Solver) Pool() *engine.Pool { return s.pool }

// Close stops the solver's engine-pool helper goroutines. In-flight and
// future solves still complete (the pool degrades to caller-only,
// sequential execution), so Close is safe to call at any point during
// shutdown. Programs that build solvers long-term can ignore it; anything
// constructing solvers repeatedly (tests, per-tenant embedders) should
// defer it.
func (s *Solver) Close() { s.pool.Close() }

// Stats snapshots the solver and cache counters.
func (s *Solver) Stats() SolverStats {
	return SolverStats{
		Workers:    s.opt.Workers,
		InFlight:   s.inFlight.Load(),
		QueueDepth: s.queueDepth.Load(),
		ColdSolves: s.coldSolves.Load(),
		Coalesced:  s.coalesced.Load(),
		Timeouts:   s.timeouts.Load(),
		Cache:      s.cache.stats(),
	}
}

// normalize validates the request and fills defaults; it returns the cache
// key parameter alongside the normalized request.
func (s *Solver) normalize(req Request) (Request, float64, error) {
	if req.Op == "" {
		req.Op = OpMinDelay
	}
	if !req.Op.Valid() {
		return req, 0, fmt.Errorf("service: unknown op %q", req.Op)
	}
	if req.Problem == nil {
		return req, 0, fmt.Errorf("service: request missing problem")
	}
	if err := req.Problem.Validate(); err != nil {
		return req, 0, err
	}
	if req.DelayBudgetMs < 0 {
		req.DelayBudgetMs = 0
	}
	var param float64
	switch req.Op {
	case OpMaxFrameRate:
		param = req.DelayBudgetMs
	case OpFront:
		if req.Points <= 0 {
			req.Points = s.opt.FrontPoints
		}
		param = float64(req.Points)
	}
	return req, param, nil
}

// Solve answers one planning request, consulting the cache first. Cache
// misses occupy a worker slot for the duration of the DP; the caller's
// context (plus Options.SolveTimeout, when set) bounds the wait. A solve
// abandoned by its caller still completes in the background and populates
// the cache, so an immediate retry hits.
func (s *Solver) Solve(ctx context.Context, req Request) (*Result, error) {
	req, param, err := s.normalize(req)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		s.timeouts.Add(1)
		return nil, fmt.Errorf("service: solve %s: %w", req.Op, err)
	}
	// parent is the request's trace span (nil without tracing — every child
	// span below no-ops then, so the solve path never branches on it).
	parent := telemetry.SpanFromContext(ctx)
	sp := parent.Child("hash")
	hash, err := Hash(req.Problem)
	sp.End()
	if err != nil {
		return nil, err
	}
	key := cacheKey{hash: hash, op: req.Op, param: param}
	sp = parent.Child("cache_lookup")
	if sol, ok := s.cache.get(key); ok {
		sp.Annotate("hit")
		sp.End()
		return sol.result(req.Op, hash, true, 0), nil
	}
	sp.Annotate("miss")
	sp.End()

	if s.opt.SolveTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opt.SolveTimeout)
		defer cancel()
	}

	// Coalesce with an identical in-progress solve, if any; otherwise
	// become the leader. A follower whose leader abandoned before solving
	// loops and contends for leadership itself.
	var f *flight
	for {
		s.flightMu.Lock()
		if existing, ok := s.flights[key]; ok {
			s.flightMu.Unlock()
			select {
			case <-existing.done:
				if errors.Is(existing.err, errFlightAbandoned) {
					continue
				}
				if existing.err != nil {
					return nil, existing.err
				}
				s.coalesced.Add(1)
				return existing.sol.result(req.Op, hash, true, 0), nil
			case <-ctx.Done():
				s.timeouts.Add(1)
				return nil, fmt.Errorf("service: solve %s: %w", req.Op, ctx.Err())
			}
		}
		f = &flight{done: make(chan struct{})}
		s.flights[key] = f
		s.flightMu.Unlock()
		break
	}

	// Acquire a worker slot (or give up with the context). An abandoned
	// flight must still complete so followers don't block forever.
	wait := parent.Child("pool_wait")
	waitStart := time.Now()
	s.queueDepth.Add(1)
	select {
	case s.slots <- struct{}{}:
		s.queueDepth.Add(-1)
		wait.End()
		poolWaitSeconds.ObserveSince(waitStart)
	case <-ctx.Done():
		s.queueDepth.Add(-1)
		wait.End()
		s.finishFlight(key, f, nil, errFlightAbandoned)
		s.timeouts.Add(1)
		return nil, fmt.Errorf("service: waiting for worker: %w", ctx.Err())
	}

	type outcome struct {
		solveMs float64
	}
	done := make(chan outcome, 1)
	s.inFlight.Add(1)
	// The solve span ends on the worker goroutine, which may outlive an
	// abandoned request (and its frozen trace) — Span.End is race-safe for
	// exactly this.
	solveSpan := parent.Child("solve")
	go func() {
		defer func() {
			s.inFlight.Add(-1)
			<-s.slots
		}()
		start := time.Now()
		sol, err := solveProblem(req, s.pool)
		elapsed := time.Since(start)
		solveSpan.End()
		if err == nil {
			s.coldSolves.Add(1)
			if h := solveSecondsByOp[req.Op]; h != nil {
				h.Observe(elapsed.Seconds())
			}
			s.cache.put(key, sol)
		}
		s.finishFlight(key, f, sol, err)
		done <- outcome{solveMs: float64(elapsed) / float64(time.Millisecond)}
	}()

	select {
	case out := <-done:
		if f.err != nil {
			return nil, f.err
		}
		return f.sol.result(req.Op, hash, false, out.solveMs), nil
	case <-ctx.Done():
		// The DP is not interruptible; the goroutine finishes in the
		// background, releases its slot, and caches the solution.
		s.timeouts.Add(1)
		return nil, fmt.Errorf("service: solve %s: %w", req.Op, ctx.Err())
	}
}

// acquireSlot claims one worker slot (blocking on the pool, bounded by the
// caller's context) and returns its release function. Fleet placements use
// it so admission solves share the same concurrency budget as one-shot
// planning requests.
func (s *Solver) acquireSlot(ctx context.Context) (release func(), err error) {
	waitStart := time.Now()
	s.queueDepth.Add(1)
	select {
	case s.slots <- struct{}{}:
		s.queueDepth.Add(-1)
		poolWaitSeconds.ObserveSince(waitStart)
		s.inFlight.Add(1)
		return func() {
			s.inFlight.Add(-1)
			<-s.slots
		}, nil
	case <-ctx.Done():
		s.queueDepth.Add(-1)
		s.timeouts.Add(1)
		return nil, ctx.Err()
	}
}

// finishFlight publishes the flight's outcome and retires it. The cache is
// populated before the flight is removed, so no request can slip between
// "flight gone" and "cache filled".
func (s *Solver) finishFlight(key cacheKey, f *flight, sol *solution, err error) {
	f.sol, f.err = sol, err
	s.flightMu.Lock()
	delete(s.flights, key)
	s.flightMu.Unlock()
	close(f.done)
}

// BatchItem is one SolveBatch outcome, aligned with the request slice.
type BatchItem struct {
	Index  int     `json:"index"`
	Result *Result `json:"result,omitempty"`
	Err    error   `json:"-"`
}

// SolveBatch solves many requests in one call. Requests fan out over the
// shared engine pool (cold solves additionally stay bounded by the worker-
// slot pool) and results come back in request order, each with its own
// error. Identical problems within a batch coalesce onto a single solve via
// the cache and singleflight.
func (s *Solver) SolveBatch(ctx context.Context, reqs []Request) []BatchItem {
	items := make([]BatchItem, len(reqs))
	s.pool.ParallelFor(len(reqs), func(i int) {
		res, err := s.Solve(ctx, reqs[i])
		items[i] = BatchItem{Index: i, Result: res, Err: err}
	})
	return items
}

// solveProblem dispatches to the underlying algorithms and evaluates the
// analytical cost models on the winning mapping. Pareto sweeps fan their
// budget points out over the pool (nil pool = sequential); the result is
// identical either way.
func solveProblem(req Request, pool *engine.Pool) (*solution, error) {
	p := req.Problem
	switch req.Op {
	case OpMinDelay:
		m, err := core.MinDelay(p)
		if err != nil {
			return nil, err
		}
		return mappingSolution(p, m), nil
	case OpMaxFrameRate:
		var m *model.Mapping
		var err error
		if req.DelayBudgetMs > 0 {
			m, err = core.MaxFrameRateWithBudget(p, core.TradeoffOptions{DelayBudgetMs: req.DelayBudgetMs})
		} else {
			m, err = core.MaxFrameRate(p)
		}
		if err != nil {
			return nil, err
		}
		return mappingSolution(p, m), nil
	case OpFront:
		pts, err := engine.ParetoFront(pool, p, req.Points, 0)
		if err != nil {
			return nil, err
		}
		front := make([]FrontPoint, len(pts))
		for i, pt := range pts {
			front[i] = FrontPoint{
				DelayMs:    pt.DelayMs,
				RateFPS:    pt.RateFPS,
				Assignment: pt.Mapping.Assign,
			}
		}
		return &solution{front: front}, nil
	default:
		return nil, fmt.Errorf("service: unknown op %q", req.Op)
	}
}

// mappingSolution evaluates Eq. 1 and Eq. 2 on a mapping. Reuse-free
// mappings use the independent-resource bottleneck; mappings that reuse
// nodes use the shared-resource generalization.
func mappingSolution(p *model.Problem, m *model.Mapping) *solution {
	bottleneck := model.Bottleneck(p.Net, p.Pipe, m)
	if m.UsesReuse() {
		bottleneck = model.SharedBottleneck(p.Net, p.Pipe, m)
	}
	return &solution{
		assignment:   m.Assign,
		mapping:      m.String(),
		delayMs:      model.TotalDelay(p.Net, p.Pipe, m, p.Cost),
		bottleneckMs: bottleneck,
		rateFPS:      model.FrameRate(bottleneck),
	}
}
