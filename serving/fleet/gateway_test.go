package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"cimmlc/serving"
)

// TestGatewayServesFleet drives the HTTP gateway with a fleet RunnerFactory:
// /v1/run answers are deterministic across requests, and /v1/fleet exposes
// the cluster state for every resident (model, arch) pair.
func TestGatewayServesFleet(t *testing.T) {
	reg := serving.NewRegistry()
	s := serving.NewServer(reg, serving.ServerConfig{
		Batch:  serving.BatcherConfig{MaxBatch: 4},
		Runner: Factory(Config{Replicas: 2}),
	})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	run := func() []byte {
		t.Helper()
		body, err := json.Marshal(serving.RunRequest{Model: "conv-relu", Arch: "toy-table2", Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out bytes.Buffer
		out.ReadFrom(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run = %d: %s", resp.StatusCode, out.String())
		}
		return out.Bytes()
	}
	first := run()
	// However the router spreads the repeats, the replies stay bit-identical.
	for i := 0; i < 4; i++ {
		if !bytes.Equal(run(), first) {
			t.Fatalf("fleet-served run %d diverged from the first reply", i)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fl struct {
		Fleets []State `json:"fleets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&fl); err != nil {
		t.Fatal(err)
	}
	if len(fl.Fleets) != 1 {
		t.Fatalf("/v1/fleet lists %d fleets, want 1", len(fl.Fleets))
	}
	st := fl.Fleets[0]
	if st.Model != "conv-relu" || st.Mode != "replicated" || len(st.Replicas) != 2 {
		t.Fatalf("fleet state = %+v, want conv-relu/replicated with 2 replicas", st)
	}
	if st.Requests != 5 {
		t.Fatalf("fleet served %d requests, want 5", st.Requests)
	}
}
