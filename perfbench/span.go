package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call the traced run made into a layer. Parent is the
// index of the enclosing span in the recorder, -1 for an op's root; Op
// groups every span of one benchmark operation.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run writes them out. A nil
// recorder records nothing, which is how the traced run measures its own
// overhead: the same replay with spans off.
type recorder struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// begin opens a span and returns its index (-1 on a nil recorder).
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.base))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	return len(r.spans) - 1
}

// end closes the span begin returned.
func (r *recorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	now := int64(time.Since(r.base))
	r.mu.Lock()
	r.spans[i].End = now
	r.mu.Unlock()
}

// add records an already measured span (one the program timed itself).
func (r *recorder) add(s span) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// at converts a wall-clock instant to the recorder's time base.
func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.base)) }

// write dumps the spans as one JSON document.
func (r *recorder) write(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return json.NewEncoder(w).Encode(r.spans)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children covers. Overlapping children
// (concurrent calls under one parent) are merged before subtracting, and
// child time outside the parent's interval is ignored.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		ivs := make([]iv, 0, len(kids[i]))
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered := int64(0)
		curA, curB := int64(0), int64(-1)
		for _, v := range ivs {
			if v.a > curB {
				if curB > curA {
					covered += curB - curA
				}
				curA, curB = v.a, v.b
			} else if v.b > curB {
				curB = v.b
			}
		}
		if curB > curA {
			covered += curB - curA
		}
		out[i] = s.dur() - covered
	}
	return out
}

// layerSelf sums self time by span name, in milliseconds.
func layerSelf(spans []span) map[string]float64 {
	self := selfTimes(spans)
	byName := map[string]float64{}
	for i, s := range spans {
		byName[s.Name] += float64(self[i]) / 1e6
	}
	return byName
}
