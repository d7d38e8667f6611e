package service

import (
	"encoding/json"
	"testing"

	"elpc/internal/gen"
	"elpc/internal/model"
)

func buildSuiteProblem(t testing.TB, i int) *model.Problem {
	t.Helper()
	p, err := gen.Suite20()[i].Build()
	if err != nil {
		t.Fatalf("building suite case %d: %v", i, err)
	}
	return p
}

func TestHashDeterministic(t *testing.T) {
	a := buildSuiteProblem(t, 0)
	b := buildSuiteProblem(t, 0)
	ha, err := Hash(a)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := Hash(b)
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Errorf("independently built identical problems hash differently: %s vs %s", ha, hb)
	}
	if len(ha) != 64 {
		t.Errorf("hash %q is not hex SHA-256", ha)
	}
}

func TestHashSurvivesJSONRoundTrip(t *testing.T) {
	p := buildSuiteProblem(t, 1)
	before, err := Hash(p)
	if err != nil {
		t.Fatal(err)
	}
	netJSON, err := json.Marshal(p.Net)
	if err != nil {
		t.Fatal(err)
	}
	pipeJSON, err := json.Marshal(p.Pipe)
	if err != nil {
		t.Fatal(err)
	}
	var net model.Network
	var pipe model.Pipeline
	if err := json.Unmarshal(netJSON, &net); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(pipeJSON, &pipe); err != nil {
		t.Fatal(err)
	}
	after, err := Hash(&model.Problem{Net: &net, Pipe: &pipe, Src: p.Src, Dst: p.Dst, Cost: p.Cost})
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Errorf("hash changed across JSON round trip: %s vs %s", before, after)
	}
}

// TestHashGolden pins Hash, and so the cache key and the documented
// problem_hash, to fixed values across builds: any change to the canonical
// serialization or the elpc-problem-v1 format fails here.
func TestHashGolden(t *testing.T) {
	golden := map[int]string{ // Suite20 case ID -> hex SHA-256
		1:  "fa4a791a24a5396f0cf17b45f9cb0a7ca4b209ea5962dfd335c0a4aa896e9abd",
		4:  "83894add5d2f56d4269822a0af25085a495fe8e918b3fb604a41ca4d7e961a0c",
		7:  "a6c998a9c8bc5a84f8004ddc8a35f45e7aaed760e35f200016f36e13080245e6",
		11: "9bbf0b0a75130c9810130accc0ff91d6785e38abf3dcf7f2ab6b8991493abce8",
	}
	for id, want := range golden {
		got, err := Hash(buildSuiteProblem(t, id-1))
		if err != nil {
			t.Fatalf("case %d: %v", id, err)
		}
		if got != want {
			t.Errorf("case %d: Hash = %s, want %s", id, got, want)
		}
	}
}

func TestHashDiscriminates(t *testing.T) {
	base := buildSuiteProblem(t, 0)
	baseHash, err := Hash(base)
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(p *model.Problem){
		"bandwidth":  func(p *model.Problem) { p.Net.Links[0].BWMbps *= 2 },
		"power":      func(p *model.Problem) { p.Net.Nodes[0].Power *= 2 },
		"complexity": func(p *model.Problem) { p.Pipe.Modules[1].Complexity *= 2 },
		"endpoints":  func(p *model.Problem) { p.Src, p.Dst = p.Dst, p.Src },
		"cost":       func(p *model.Problem) { p.Cost.IncludeMLDInDelay = !p.Cost.IncludeMLDInDelay },
	}
	for name, mutate := range mutations {
		p := buildSuiteProblem(t, 0)
		p.Net = p.Net.Clone()
		pipeCopy := *p.Pipe
		pipeCopy.Modules = append([]model.Module(nil), p.Pipe.Modules...)
		p.Pipe = &pipeCopy
		mutate(p)
		h, err := Hash(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h == baseHash {
			t.Errorf("mutation %q did not change the hash", name)
		}
	}
}

func TestHashRejectsIncompleteProblem(t *testing.T) {
	if _, err := Hash(nil); err == nil {
		t.Error("Hash(nil) succeeded")
	}
	if _, err := Hash(&model.Problem{}); err == nil {
		t.Error("Hash of empty problem succeeded")
	}
}
