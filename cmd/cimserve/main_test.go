package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cimmlc"
)

// TestFleetGatewayPipelinesOverCapacityPair is the smoke the CI shell step
// cannot run without an arch file: the gateway assembled exactly as the flags
// assemble it, -replicas 1 with an over-capacity pair preloaded on a
// registered small arch, must report a fleet that pipelines the model across
// two chips — not one that serves it "replicated", reloading weights per
// request — and must serve it.
func TestFleetGatewayPipelinesOverCapacityPair(t *testing.T) {
	// jia-isscc21 shrunk to 8 cores: the zoo mlp needs 13.
	a, err := cimmlc.Preset("jia-isscc21")
	if err != nil {
		t.Fatal(err)
	}
	a.Name = "jia-small"
	a.Chip.CoreRows, a.Chip.CoreCols = 2, 4
	data, err := cimmlc.EncodeArch(a)
	if err != nil {
		t.Fatal(err)
	}
	archFile := filepath.Join(t.TempDir(), "jia-small.json")
	if err := os.WriteFile(archFile, data, 0o644); err != nil {
		t.Fatal(err)
	}

	gw, err := newGateway(8, 0, 30*time.Second, 42, true, 1, 0, []string{archFile}, []string{"mlp:jia-small"})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	get := func(method, path, body string) string {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s = %d: %s", method, path, resp.StatusCode, out)
		}
		return string(out)
	}
	// -preload built the fleet itself: its state is there before any request.
	state := get(http.MethodGet, "/v1/fleet", "")
	for _, want := range []string{`"model":"mlp"`, `"arch":"jia-small"`, `"mode":"pipeline"`, `"stages":2`} {
		if !strings.Contains(state, want) {
			t.Fatalf("/v1/fleet lacks %s: %s", want, state)
		}
	}
	if out := get(http.MethodPost, "/v1/run", `{"model":"mlp","arch":"jia-small","seed":1}`); !strings.Contains(out, `"outputs"`) {
		t.Fatalf("/v1/run answered %s", out)
	}

	if _, err := newGateway(8, 0, time.Second, 42, true, 0, 2, nil, nil); err == nil {
		t.Fatal("-max-replicas without -replicas accepted")
	}
}
