// Package service turns the one-shot ELPC solvers into a long-running
// concurrent planning service: a Solver that answers min-delay, max-frame-
// rate, and rate–delay-front planning requests behind a bounded worker pool,
// a sharded LRU solution cache keyed by a canonical problem hash so exact
// repeats of a request never redo exponential work, and an HTTP/JSON server
// (cmd/elpcd) exposing the solvers to any client over /v1/* endpoints.
package service

import (
	"runtime"
	"time"

	"elpc/internal/journal"
	"elpc/internal/model"
	"elpc/internal/telemetry"
	"elpc/internal/wal"
)

// Op selects the planning operation a request performs.
type Op string

const (
	// OpMinDelay runs the optimal min-delay DP (node reuse allowed).
	OpMinDelay Op = "mindelay"
	// OpMaxFrameRate runs the max-frame-rate DP heuristic (no reuse),
	// optionally under a delay budget.
	OpMaxFrameRate Op = "maxframerate"
	// OpFront sweeps delay budgets and returns the rate–delay Pareto front.
	OpFront Op = "front"
)

// Valid reports whether op names a known operation.
func (op Op) Valid() bool {
	switch op {
	case OpMinDelay, OpMaxFrameRate, OpFront:
		return true
	}
	return false
}

// Options configures a Solver (and, through it, a Server).
type Options struct {
	// Workers bounds concurrent solves; <= 0 means GOMAXPROCS.
	Workers int
	// CacheCapacity is the total number of cached solutions across all
	// shards; 0 selects DefaultCacheCapacity, < 0 disables caching.
	CacheCapacity int
	// CacheShards is the number of independently locked cache shards;
	// <= 0 selects DefaultCacheShards.
	CacheShards int
	// SolveTimeout caps the wall-clock time of a single solve (applied per
	// request on top of the caller's context); 0 means no limit.
	SolveTimeout time.Duration
	// FrontPoints is the default sweep resolution for OpFront requests
	// that do not specify one; <= 0 selects DefaultFrontPoints.
	FrontPoints int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the server's
	// mux. Off by default: profiling endpoints expose process internals.
	EnablePprof bool
	// SlowRequest is the latency threshold above which a request is logged
	// via log/slog; 0 disables slow-request logging.
	SlowRequest time.Duration
	// TraceCapacity is the number of slowest request traces retained for
	// GET /v1/traces; <= 0 selects telemetry.DefaultTraceCapacity.
	TraceCapacity int
	// JournalCapacity bounds the structured event journal (oldest events
	// are dropped first); <= 0 selects journal.DefaultCapacity.
	JournalCapacity int
	// IntakeBound bounds the admission intake queue ahead of the fleet
	// lock: when the queued deploy/deploy-batch depth would exceed it,
	// best-effort traffic is shed with 429 + Retry-After (guaranteed and
	// standard traffic always enters). 0 selects DefaultIntakeBound; a
	// negative bound sheds ALL best-effort traffic — the brownout drill
	// mode tests and the CI metrics gate use to force deterministic sheds.
	IntakeBound int
	// DataDir, when non-empty, makes the control plane durable: every
	// mutating fleet/churn transition is appended to a write-ahead log in
	// this directory before it is acknowledged, compacted snapshots are
	// written every SnapshotEvery records, and on boot the server recovers
	// the pre-crash fleet state from the newest valid snapshot plus the log
	// suffix. Empty (the default) keeps the control plane in-memory only.
	DataDir string
	// SnapshotEvery is the number of appended WAL records between compacted
	// snapshots; <= 0 selects DefaultSnapshotEvery.
	SnapshotEvery int
	// SnapshotRetain is the number of snapshots (and their covered log
	// segments) kept on disk; <= 0 selects wal.DefaultSnapshotRetain.
	SnapshotRetain int
	// WALSync forces an fsync before every acknowledgment instead of the
	// default fsync-batched group commit (durable against power loss, at a
	// large admission-latency cost; see docs/OPERATIONS.md).
	WALSync bool
}

// Defaults for Options fields.
const (
	DefaultCacheCapacity = 4096
	DefaultCacheShards   = 16
	DefaultFrontPoints   = 8
	DefaultIntakeBound   = 64
	DefaultSnapshotEvery = 1024
)

// Normalized returns o with every unset field replaced by its default, so
// callers (the CLI's serve -validate, tests) can inspect the effective
// configuration.
func (o Options) Normalized() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case o.CacheCapacity == 0:
		o.CacheCapacity = DefaultCacheCapacity
	case o.CacheCapacity < 0:
		o.CacheCapacity = -1 // disabled; newCache treats <= 0 as off
	}
	if o.CacheShards <= 0 {
		o.CacheShards = DefaultCacheShards
	}
	if o.FrontPoints <= 0 {
		o.FrontPoints = DefaultFrontPoints
	}
	if o.TraceCapacity <= 0 {
		o.TraceCapacity = telemetry.DefaultTraceCapacity
	}
	if o.JournalCapacity <= 0 {
		o.JournalCapacity = journal.DefaultCapacity
	}
	if o.IntakeBound == 0 {
		o.IntakeBound = DefaultIntakeBound
	}
	if o.SnapshotEvery <= 0 {
		o.SnapshotEvery = DefaultSnapshotEvery
	}
	if o.SnapshotRetain <= 0 {
		o.SnapshotRetain = wal.DefaultSnapshotRetain
	}
	return o
}

// Request is one planning request.
type Request struct {
	// Op selects the operation; empty defaults to OpMinDelay.
	Op Op
	// Problem is the validated instance to plan for.
	Problem *model.Problem
	// DelayBudgetMs constrains OpMaxFrameRate to mappings whose end-to-end
	// delay stays within the budget; <= 0 disables the constraint.
	DelayBudgetMs float64
	// Points is the OpFront sweep resolution; <= 0 uses Options.FrontPoints.
	Points int
}

// FrontPoint is one nondominated (delay, rate) point of a Pareto sweep.
type FrontPoint struct {
	DelayMs    float64        `json:"delay_ms"`
	RateFPS    float64        `json:"rate_fps"`
	Assignment []model.NodeID `json:"assignment"`
}

// Result reports one solved planning request.
type Result struct {
	Op Op `json:"op"`
	// Hash is the canonical problem hash (hex SHA-256) the cache is keyed by.
	Hash string `json:"problem_hash"`
	// Assignment maps module j to Assignment[j]; empty for OpFront.
	Assignment []model.NodeID `json:"assignment,omitempty"`
	// Mapping is the human-readable group rendering of Assignment.
	Mapping string `json:"mapping,omitempty"`
	// DelayMs is the Eq. 1 end-to-end delay of the mapping.
	DelayMs float64 `json:"delay_ms,omitempty"`
	// BottleneckMs is the Eq. 2 bottleneck period (shared-resource variant
	// when the mapping reuses nodes).
	BottleneckMs float64 `json:"bottleneck_ms,omitempty"`
	// RateFPS is 1000/BottleneckMs.
	RateFPS float64 `json:"rate_fps,omitempty"`
	// Front holds the Pareto sweep for OpFront.
	Front []FrontPoint `json:"front,omitempty"`
	// Cached reports whether the solution came from the cache.
	Cached bool `json:"cached"`
	// SolveMs is the wall-clock solve time (0 for cache hits).
	SolveMs float64 `json:"solve_ms"`
}

// solution is the immutable cached payload shared across Results. Fields are
// never mutated after construction; Results copy the flag/timing fields.
type solution struct {
	assignment   []model.NodeID
	mapping      string
	delayMs      float64
	bottleneckMs float64
	rateFPS      float64
	front        []FrontPoint
}

// result materializes a Result view of the solution.
func (s *solution) result(op Op, hash string, cached bool, solveMs float64) *Result {
	return &Result{
		Op:           op,
		Hash:         hash,
		Assignment:   s.assignment,
		Mapping:      s.mapping,
		DelayMs:      s.delayMs,
		BottleneckMs: s.bottleneckMs,
		RateFPS:      s.rateFPS,
		Front:        s.front,
		Cached:       cached,
		SolveMs:      solveMs,
	}
}
