package service

import (
	"encoding/binary"
	"encoding/json"
	"math"
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
// serialization or the elpc-problem-v2 format fails here.
func TestHashGolden(t *testing.T) {
	golden := map[int]string{ // Suite20 case ID -> hex SHA-256
		1:  "c4ee3ebef7ea7d206491cc820cdafb04f9d07d162c06c92b42caf2b1f6b9ca10",
		4:  "cf0aa79a468ab2789cb325f0794f142303dc77b68f67edede70494c2441f508a",
		7:  "2c508436d26bb395adfc574c7cdbe9ab7ad15c1e1869098278e0514e9084f2d9",
		11: "fb3a8ed58be10d898ecba2cd589d71d76f9dcc7fcaecc4b9b1a76e2e8effbdd6",
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

// TestHashSingleFieldPerturbation checks that the identity covers every
// field: on Suite20 cases 1-6, nudging any one node, link or module field
// to its nearest different value, either endpoint, or the cost flag changes
// the hash. Floats move by one ulp, so the encoding must keep every bit.
func TestHashSingleFieldPerturbation(t *testing.T) {
	up := func(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }
	for c := 0; c < 6; c++ {
		p := buildSuiteProblem(t, c)
		base, err := Hash(p)
		if err != nil {
			t.Fatal(err)
		}
		perturbed := func(what string, i int) {
			t.Helper()
			h, err := Hash(p)
			if err != nil {
				t.Fatalf("case %d %s %d: %v", c+1, what, i, err)
			}
			if h == base {
				t.Errorf("case %d: perturbing %s %d left the hash unchanged", c+1, what, i)
			}
		}
		n := len(p.Net.Nodes)
		for i := range p.Net.Nodes {
			v, orig := &p.Net.Nodes[i], p.Net.Nodes[i]
			v.ID++
			perturbed("node id", i)
			*v = orig
			v.Name += "x"
			perturbed("node name", i)
			*v = orig
			v.Power = up(v.Power)
			perturbed("node power", i)
			*v = orig
		}
		for i := range p.Net.Links {
			l, orig := &p.Net.Links[i], p.Net.Links[i]
			l.ID++
			perturbed("link id", i)
			*l = orig
			l.From = (l.From + 1) % model.NodeID(n)
			perturbed("link from", i)
			*l = orig
			l.To = (l.To + 1) % model.NodeID(n)
			perturbed("link to", i)
			*l = orig
			l.BWMbps = up(l.BWMbps)
			perturbed("link bw_mbps", i)
			*l = orig
			l.MLDms = up(l.MLDms)
			perturbed("link mld_ms", i)
			*l = orig
		}
		for i := range p.Pipe.Modules {
			m, orig := &p.Pipe.Modules[i], p.Pipe.Modules[i]
			m.ID++
			perturbed("module id", i)
			*m = orig
			m.Name += "x"
			perturbed("module name", i)
			*m = orig
			m.Complexity = up(m.Complexity)
			perturbed("module complexity", i)
			*m = orig
			m.InBytes = up(m.InBytes)
			perturbed("module in_bytes", i)
			*m = orig
			m.OutBytes = up(m.OutBytes)
			perturbed("module out_bytes", i)
			*m = orig
		}
		src, dst := p.Src, p.Dst
		p.Src = (src + 1) % model.NodeID(n)
		perturbed("src", 0)
		p.Src = src
		p.Dst = (dst + 1) % model.NodeID(n)
		perturbed("dst", 0)
		p.Dst = dst
		p.Cost.IncludeMLDInDelay = !p.Cost.IncludeMLDInDelay
		perturbed("cost flag", 0)
		p.Cost.IncludeMLDInDelay = !p.Cost.IncludeMLDInDelay
		if h, err := Hash(p); err != nil || h != base {
			t.Fatalf("case %d: restored problem hashes %s (%v), want %s", c+1, h, err, base)
		}
	}
}

// TestHashNameBoundaries checks that name bytes cannot slide between
// neighbouring names: each name is length-prefixed, so splitting the same
// bytes differently gives a different problem and a different hash.
func TestHashNameBoundaries(t *testing.T) {
	withNames := func(a, b string, modules bool) string {
		p := buildSuiteProblem(t, 0)
		if modules {
			p.Pipe.Modules[0].Name, p.Pipe.Modules[1].Name = a, b
		} else {
			p.Net.Nodes[0].Name, p.Net.Nodes[1].Name = a, b
		}
		h, err := Hash(p)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	// Without the length prefixes these two node lists would encode to the
	// same bytes: a's first name holds b's first power, a's first power
	// holds the next node's ID, and b's second name holds that ID again.
	a, b := buildSuiteProblem(t, 0), buildSuiteProblem(t, 0)
	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], math.Float64bits(5))
	a.Net.Nodes[0].Name, a.Net.Nodes[0].Power, a.Net.Nodes[1].Name = string(word[:]), math.Float64frombits(1), ""
	binary.LittleEndian.PutUint64(word[:], 1)
	b.Net.Nodes[0].Name, b.Net.Nodes[0].Power, b.Net.Nodes[1].Name = "", 5, string(word[:])
	ha, err := Hash(a)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := Hash(b)
	if err != nil {
		t.Fatal(err)
	}
	if ha == hb {
		t.Error("names that absorb their neighbouring fields hash equal")
	}
	for _, modules := range []bool{false, true} {
		if withNames("ab", "c", modules) == withNames("a", "bc", modules) {
			t.Errorf("names ab/c and a/bc hash equal (modules=%v)", modules)
		}
		if withNames("", "abc", modules) == withNames("abc", "", modules) {
			t.Errorf("names \"\"/abc and abc/\"\" hash equal (modules=%v)", modules)
		}
	}
}

// TestHashRejectsNonFinite checks that NaN and infinities, which
// model.NewNetwork and model.NewPipeline partly let through, fail the hash
// instead of producing a key.
func TestHashRejectsNonFinite(t *testing.T) {
	fields := map[string]func(p *model.Problem, v float64){
		"power":      func(p *model.Problem, v float64) { p.Net.Nodes[1].Power = v },
		"bandwidth":  func(p *model.Problem, v float64) { p.Net.Links[2].BWMbps = v },
		"mld":        func(p *model.Problem, v float64) { p.Net.Links[3].MLDms = v },
		"complexity": func(p *model.Problem, v float64) { p.Pipe.Modules[1].Complexity = v },
	}
	for name, set := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			p := buildSuiteProblem(t, 0)
			set(p, v)
			if h, err := Hash(p); err == nil {
				t.Errorf("%s = %v: Hash = %s, want an error", name, v, h)
			}
		}
	}
}
