package model

import (
	"encoding/json"
	"fmt"
	"io"
)

// NetworkJSON is the wire form of a Network: the one JSON schema both
// Network's codec and request bodies that embed a network decode. Decoding
// into it does not validate; Build does.
type NetworkJSON struct {
	Nodes []Node `json:"nodes"`
	Links []Link `json:"links"`
}

// Build validates the wire form into a Network (see NewNetwork). The
// Network shares the wire form's slices.
func (w *NetworkJSON) Build() (*Network, error) { return NewNetwork(w.Nodes, w.Links) }

// MarshalJSON implements json.Marshaler.
func (n *Network) MarshalJSON() ([]byte, error) {
	return json.Marshal(NetworkJSON{Nodes: n.Nodes, Links: n.Links})
}

// UnmarshalJSON implements json.Unmarshaler, revalidating the network.
func (n *Network) UnmarshalJSON(data []byte) error {
	var w NetworkJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	built, err := w.Build()
	if err != nil {
		return err
	}
	*n = *built
	return nil
}

// PipelineJSON is the wire form of a Pipeline, shared like NetworkJSON.
// Decoding into it does not validate; Build does.
type PipelineJSON struct {
	Modules []Module `json:"modules"`
}

// Build validates the wire form into a Pipeline (see NewPipeline). The
// Pipeline shares the wire form's slice.
func (w *PipelineJSON) Build() (*Pipeline, error) { return NewPipeline(w.Modules) }

// MarshalJSON implements json.Marshaler.
func (p *Pipeline) MarshalJSON() ([]byte, error) {
	return json.Marshal(PipelineJSON{Modules: p.Modules})
}

// UnmarshalJSON implements json.Unmarshaler, revalidating the pipeline.
func (p *Pipeline) UnmarshalJSON(data []byte) error {
	var w PipelineJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	built, err := w.Build()
	if err != nil {
		return err
	}
	*p = *built
	return nil
}

// WriteNetwork writes the network as indented JSON.
func WriteNetwork(w io.Writer, n *Network) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(n)
}

// ReadNetwork parses and validates a network from JSON.
func ReadNetwork(r io.Reader) (*Network, error) {
	var n Network
	if err := json.NewDecoder(r).Decode(&n); err != nil {
		return nil, fmt.Errorf("model: reading network: %w", err)
	}
	return &n, nil
}

// WritePipeline writes the pipeline as indented JSON.
func WritePipeline(w io.Writer, p *Pipeline) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// ReadPipeline parses and validates a pipeline from JSON.
func ReadPipeline(r io.Reader) (*Pipeline, error) {
	var p Pipeline
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("model: reading pipeline: %w", err)
	}
	return &p, nil
}
