package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"elpc/internal/model"
)

// hashVersion is folded into every canonical hash so the key space can be
// invalidated wholesale if the serialization or the cost model ever changes.
const hashVersion = "elpc-problem-v1"

// canonicalProblem is the canonical serialization of a problem instance. The
// encoding is deterministic: encoding/json emits struct fields in declaration
// order, the model wire types are ordered slices (nodes, links, and modules
// are densely numbered by validation), and CostOptions is a flat struct — so
// two equal problems always serialize to identical bytes.
type canonicalProblem struct {
	Version  string            `json:"v"`
	Network  *model.Network    `json:"network"`
	Pipeline *model.Pipeline   `json:"pipeline"`
	Src      model.NodeID      `json:"src"`
	Dst      model.NodeID      `json:"dst"`
	Cost     model.CostOptions `json:"cost"`
}

// Hash returns the canonical hash (hex SHA-256) of the problem instance:
// network, pipeline, endpoints, and cost options. Mappers are deterministic
// functions of exactly these inputs, so the hash is a sound solution-cache
// key for every objective.
func Hash(p *model.Problem) (string, error) {
	if p == nil || p.Net == nil || p.Pipe == nil {
		return "", fmt.Errorf("service: hash of incomplete problem")
	}
	h := sha256.New()
	enc := json.NewEncoder(h)
	if err := enc.Encode(canonicalProblem{
		Version:  hashVersion,
		Network:  p.Net,
		Pipeline: p.Pipe,
		Src:      p.Src,
		Dst:      p.Dst,
		Cost:     p.Cost,
	}); err != nil {
		return "", fmt.Errorf("service: canonical serialization: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
