package graph_test

import (
	"bytes"
	"testing"

	"cimmlc/internal/graph"
	"cimmlc/internal/models"
)

// FuzzDecodeGraph mirrors FuzzDecodeArch for the other user-facing JSON
// boundary: whatever bytes arrive, Decode either errors or yields a graph
// that is structurally valid, shape-inferred, safely traversable, and
// stable under an encode/decode round trip. Seeds are the zoo models'
// encoded forms, so the corpus starts from every operator the IR knows.
func FuzzDecodeGraph(f *testing.F) {
	f.Add([]byte(`{`))
	f.Add([]byte(`{"name":"x"}`))
	f.Add([]byte(`{"name":"x","nodes":[{"id":0,"op":"Input","out_shape":[4]}]}`))
	f.Add([]byte(`{"name":"x","nodes":[{"id":0,"op":"Input","out_shape":[4]},{"id":1,"op":"Dense","inputs":[0],"weight_shape":[4,2]}]}`))
	f.Add([]byte(`{"name":"neg","nodes":[{"id":0,"op":"Input","out_shape":[-4]}]}`))
	f.Add([]byte(`{"name":"cycle","nodes":[{"id":0,"op":"Relu","inputs":[0]}]}`))
	for _, name := range []string{"conv-relu", "mlp", "lenet5", "vit-tiny"} {
		g, err := models.Build(name)
		if err != nil {
			f.Fatal(err)
		}
		if err := g.InferShapes(); err != nil {
			f.Fatal(err)
		}
		data, err := graph.Encode(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := graph.Decode(data)
		if err != nil {
			return
		}
		// A decoded graph must be fully usable without panics.
		if err := g.Validate(); err != nil {
			t.Fatalf("Decode accepted a graph Validate rejects: %v", err)
		}
		_ = g.Consumers()
		_ = g.Outputs()
		_ = g.InputIDs()
		_ = g.CIMNodeIDs()
		_ = g.WeightCount()
		for _, n := range g.Nodes {
			_ = g.MustNode(n.ID)
		}
		clone := g.Clone()

		// The round trip must be stable: Encode(Decode(Encode(g))) equals
		// Encode(g) byte for byte, or golden files and cache fingerprints
		// would drift between identical graphs.
		enc1, err := graph.Encode(g)
		if err != nil {
			t.Fatalf("Decode accepted a graph Encode rejects: %v", err)
		}
		g2, err := graph.Decode(enc1)
		if err != nil {
			t.Fatalf("Encode produced bytes Decode rejects: %v", err)
		}
		enc2, err := graph.Encode(g2)
		if err != nil {
			t.Fatalf("re-Encode failed: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("encode round trip unstable:\n%s\nvs\n%s", enc1, enc2)
		}
		encClone, err := graph.Encode(clone)
		if err != nil {
			t.Fatalf("Encode rejected Clone of an accepted graph: %v", err)
		}
		if !bytes.Equal(enc1, encClone) {
			t.Fatal("Clone encodes differently from its source graph")
		}
	})
}
