package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"elpc/internal/model"
)

// modelCodecRequest is the planning body decoded through the model codec
// (Network.UnmarshalJSON, Pipeline.UnmarshalJSON): the reference the
// single-pass wire decode is held to.
type modelCodecRequest struct {
	Network  *model.Network     `json:"network"`
	Pipeline *model.Pipeline    `json:"pipeline"`
	Src      model.NodeID       `json:"src"`
	Dst      model.NodeID       `json:"dst"`
	Cost     *model.CostOptions `json:"cost"`
}

// FuzzPlanRequest holds the planning body decoder (decode, then
// wireRequest.request) to two contracts on arbitrary bytes: it never
// panics, and every body it accepts yields the problem, and the canonical
// hash, that decoding the same bytes through the model codec yields.
// Run with `go test -fuzz=FuzzPlanRequest ./internal/service`; the seeds
// and the checked-in corpus under testdata/ (malformed and invalid
// bodies) replay in normal `go test` runs.
func FuzzPlanRequest(f *testing.F) {
	for i := 0; i < 4; i++ {
		body, err := json.Marshal(wireFor(buildSuiteProblem(f, i)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var w wireRequest
		r := httptest.NewRequest(http.MethodPost, "/v1/mindelay", bytes.NewReader(body))
		if err := decode(httptest.NewRecorder(), r, &w); err != nil {
			return
		}
		req, err := w.request(OpMinDelay)
		if err != nil {
			return
		}
		if repeatsProblemKey(body) {
			return
		}
		var ref modelCodecRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&ref); err != nil {
			t.Fatalf("accepted a body the model codec rejects: %v", err)
		}
		if ref.Network == nil || ref.Pipeline == nil {
			t.Fatal("accepted a body the model codec finds no network or pipeline in")
		}
		want := &model.Problem{Net: ref.Network, Pipe: ref.Pipeline, Src: ref.Src, Dst: ref.Dst, Cost: model.DefaultCostOptions()}
		if ref.Cost != nil {
			want.Cost = *ref.Cost
		}
		got := req.Problem
		if !reflect.DeepEqual(got.Net.Nodes, want.Net.Nodes) ||
			!reflect.DeepEqual(got.Net.Links, want.Net.Links) ||
			!reflect.DeepEqual(got.Pipe.Modules, want.Pipe.Modules) ||
			got.Src != want.Src || got.Dst != want.Dst || got.Cost != want.Cost {
			t.Fatalf("wire decode and model codec disagree:\n got %+v %+v\nwant %+v %+v", got.Net, got.Pipe, want.Net, want.Pipe)
		}
		gotHash, gotErr := Hash(got)
		wantHash, wantErr := Hash(want)
		if gotHash != wantHash || (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("hash %q (%v) vs model codec %q (%v)", gotHash, gotErr, wantHash, wantErr)
		}
	})
}

// repeatsProblemKey reports whether the body's top-level object names the
// network or the pipeline more than once. JSON leaves a repeated name to
// the implementation (RFC 8259, section 4), and encoding/json resolves it
// differently for the two decoders: the wire form merges the later object
// into the earlier one element by element, while the model codec's
// UnmarshalJSON replaces it. The differential check skips such bodies.
func repeatsProblemKey(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return false
	}
	var network, pipeline int
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		key, _ := tok.(string)
		// encoding/json matches field names case-insensitively.
		if strings.EqualFold(key, "network") {
			network++
		} else if strings.EqualFold(key, "pipeline") {
			pipeline++
		}
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			return false
		}
	}
	return network > 1 || pipeline > 1
}
