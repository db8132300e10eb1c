package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cimmlc"
)

func testGateway(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(NewRegistry(), ServerConfig{Batch: BatcherConfig{MaxBatch: 4}})
	s.maxBody = 256 << 10 // well over every well-formed body the tests send
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	return post(t, url, bytes.NewReader(mustMarshal(t, body)))
}

// post sends body as it is. A *bytes.Reader or *strings.Reader goes with a
// Content-Length, any other reader chunked.
func post(t *testing.T, url string, body io.Reader) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func TestServerHealthz(t *testing.T) {
	_, ts := testGateway(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
}

func TestServerRunWithSeed(t *testing.T) {
	_, ts := testGateway(t)
	resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Model: "conv-relu", Arch: "toy-table2", Seed: 7})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run = %d: %s", resp.StatusCode, body)
	}
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Outputs) == 0 {
		t.Fatal("no outputs")
	}
	for id, jt := range rr.Outputs {
		if len(jt.Data) == 0 || len(jt.Shape) == 0 {
			t.Fatalf("output %s is empty: %+v", id, jt)
		}
	}
}

func TestServerRunExplicitInputsMatchDirectRun(t *testing.T) {
	s, ts := testGateway(t)
	in := cimmlc.NewTensor(3, 32, 32)
	in.Rand(99, 1)
	resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{
		Model:  "conv-relu",
		Arch:   "toy-table2",
		Inputs: map[string]JSONTensor{"0": {Shape: in.Shape(), Data: in.Data()}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run = %d: %s", resp.StatusCode, body)
	}
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	p, err := s.Registry().Get(context.Background(), "conv-relu", "toy-table2")
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Run(context.Background(), map[int]*cimmlc.Tensor{0: in})
	if err != nil {
		t.Fatal(err)
	}
	for id, wt := range want {
		got, ok := rr.Outputs[strconv.Itoa(id)]
		if !ok {
			t.Fatalf("missing output %d", id)
		}
		wd := wt.Data()
		if len(got.Data) != len(wd) {
			t.Fatalf("output %d: %d elements, want %d", id, len(got.Data), len(wd))
		}
		for j := range wd {
			if got.Data[j] != wd[j] {
				t.Fatalf("output %d element %d: gateway %v != direct %v", id, j, got.Data[j], wd[j])
			}
		}
	}
}

func TestServerRunErrors(t *testing.T) {
	_, ts := testGateway(t)
	oversized := RunRequest{Model: "conv-relu", Arch: "toy-table2",
		Inputs: map[string]JSONTensor{"0": {Data: make([]float32, 200_000)}}}
	cases := []struct {
		name string
		req  RunRequest
		raw  string // sent in place of req when set
		code int
		frag string
	}{
		{"unknown model", RunRequest{Model: "no-such", Arch: "toy-table2"}, "", http.StatusNotFound, "available:"},
		{"unknown arch", RunRequest{Model: "conv-relu", Arch: "no-such"}, "", http.StatusNotFound, "available:"},
		// Both names exist; this registry (no host fallback) cannot compile
		// the pair, and says so quoting "available:" like a lookup failure.
		{"unsupported operator", RunRequest{Model: "conv-gate", Arch: "puma"}, "", http.StatusUnprocessableEntity, "no CIM lowering"},
		{"oversized body", oversized, "", http.StatusRequestEntityTooLarge, "too large"},
		{"missing fields", RunRequest{}, "", http.StatusBadRequest, "model and arch"},
		{"bad input key", RunRequest{Model: "conv-relu", Arch: "toy-table2",
			Inputs: map[string]JSONTensor{"zero": {Data: []float32{1}}}}, "", http.StatusBadRequest, "not a node ID"},
		{"wrong shape", RunRequest{Model: "conv-relu", Arch: "toy-table2",
			Inputs: map[string]JSONTensor{"0": {Shape: []int{2, 2}, Data: []float32{1, 2, 3, 4}}}}, "", http.StatusBadRequest, "expects"},
		// The malformed requests Program.Run itself rejects (missing, nil,
		// unknown node, wrong element count) never reach it from the wire.
		{"unknown node", RunRequest{Model: "conv-relu", Arch: "toy-table2",
			Inputs: map[string]JSONTensor{"99": {Data: []float32{1}}}}, "", http.StatusBadRequest, "not an input"},
		{"null tensor", RunRequest{Model: "conv-relu", Arch: "toy-table2",
			Inputs: map[string]JSONTensor{"0": {}}}, "", http.StatusBadRequest, "input 0"},
		{"wrong element count", RunRequest{Model: "conv-relu", Arch: "toy-table2",
			Inputs: map[string]JSONTensor{"0": {Data: []float32{1, 2, 3}}}}, "", http.StatusBadRequest, "input 0"},
		// Bodies the wire codec's parser declines are encoding/json's to
		// answer, as every body was before it: valid ones still serve, and
		// a malformed one is still a 400 carrying json's own message.
		{name: "escaped key", raw: `{"mod\u0065l":"conv-relu","arch":"toy-table2","seed":1}`, code: http.StatusOK, frag: `"outputs"`},
		{name: "unknown field", raw: `{"model":"conv-relu","arch":"toy-table2","seed":1,"trace":[[1],{"k":null}]}`, code: http.StatusOK, frag: `"outputs"`},
		{name: "whitespace", raw: " {\n\t\"model\" : \"conv-relu\" ,\r\n \"arch\": \"toy-table2\", \"seed\" : 1 }\n", code: http.StatusOK, frag: `"outputs"`},
		{name: "case-folded key", raw: `{"Model":"conv-relu","ARCH":"toy-table2"}`, code: http.StatusOK, frag: `"outputs"`},
		{name: "duplicate key", raw: `{"model":"no-such","model":"conv-relu","arch":"toy-table2"}`, code: http.StatusOK, frag: `"outputs"`},
		{name: "number out of range", raw: `{"model":"conv-relu","arch":"toy-table2","inputs":{"0":{"data":[1e39]}}}`,
			code: http.StatusBadRequest, frag: "cannot unmarshal number 1e39"},
		{name: "trailing bytes", raw: `{"model":"conv-relu","arch":"toy-table2"}]`, code: http.StatusBadRequest, frag: "invalid character ']' after top-level value"},
		{name: "truncated", raw: `{"model":"conv-relu","arch":"toy-table2","inputs":{"0":{"data":[1,2`, code: http.StatusBadRequest, frag: "unexpected end of JSON input"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sent io.Reader = strings.NewReader(tc.raw)
			if tc.raw == "" {
				sent = bytes.NewReader(mustMarshal(t, tc.req))
			}
			resp, body := post(t, ts.URL+"/v1/run", sent)
			if resp.StatusCode != tc.code {
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tc.code, body)
			}
			if !strings.Contains(string(body), tc.frag) {
				t.Fatalf("body %q should contain %q", body, tc.frag)
			}
		})
	}
	// The same oversized body with no Content-Length to presize from.
	t.Run("oversized body chunked", func(t *testing.T) {
		resp, body := post(t, ts.URL+"/v1/run", struct{ io.Reader }{bytes.NewReader(mustMarshal(t, oversized))})
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(body), "too large") {
			t.Fatalf("status = %d, want 413 (%s)", resp.StatusCode, body)
		}
	})
}

// TestServerBadArchReturns400 is the end-to-end regression for the old
// internal/arch panics: a user arch file with an unknown NoC topology or
// device must come back as a 400 with the available listing — previously it
// decoded cleanly and crashed the process at schedule/simulation time.
func TestServerBadArchReturns400(t *testing.T) {
	_, ts := testGateway(t)
	a, err := cimmlc.Preset("toy-table2")
	if err != nil {
		t.Fatal(err)
	}
	a.Name = "user-arch"
	good, err := cimmlc.EncodeArch(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, from, to string }{
		{"unknown noc", `"SharedBus"`, `"Torus"`},
		{"unknown device", `"SRAM"`, `"FeFET"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := strings.Replace(string(good), tc.from, tc.to, 1)
			if bad == string(good) {
				t.Fatalf("test setup: %s not present in encoded arch", tc.from)
			}
			resp, err := http.Post(ts.URL+"/v1/archs", "application/json", strings.NewReader(bad))
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			out.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("bad arch = %d, want 400 (%s)", resp.StatusCode, out.String())
			}
			if !strings.Contains(out.String(), "available:") {
				t.Fatalf("error %q should list the available values", out.String())
			}
		})
	}

	// The well-formed description registers and serves.
	resp, err := http.Post(ts.URL+"/v1/archs", "application/json", bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("good arch = %d, want 200", resp.StatusCode)
	}
	run, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Model: "conv-relu", Arch: "user-arch", Seed: 1})
	if run.StatusCode != http.StatusOK {
		t.Fatalf("run on registered arch = %d: %s", run.StatusCode, body)
	}
}

// TestServerRebuildsAfterArchReregistration is the gateway half of the
// stale-Program regression: re-POSTing an arch to /v1/archs must retire
// the resident batcher built against the old registration, so the next
// /v1/run compiles and serves against the new hardware description.
func TestServerRebuildsAfterArchReregistration(t *testing.T) {
	s, ts := testGateway(t)
	a, err := cimmlc.Preset("toy-table2")
	if err != nil {
		t.Fatal(err)
	}
	a.Name = "user-arch"
	register := func(a *cimmlc.Arch) {
		t.Helper()
		data, err := cimmlc.EncodeArch(a)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/archs", "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("register %s = %d, want 200", a.Name, resp.StatusCode)
		}
	}
	register(a)
	if resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Model: "conv-relu", Arch: "user-arch", Seed: 3}); resp.StatusCode != http.StatusOK {
		t.Fatalf("first run = %d: %s", resp.StatusCode, body)
	}
	builds := s.Registry().Builds()

	// Re-register the same name with a different chip grid. Serving the
	// old resident program would silently report the old hardware.
	a.Chip.CoreRows *= 2
	register(a)
	if resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Model: "conv-relu", Arch: "user-arch", Seed: 3}); resp.StatusCode != http.StatusOK {
		t.Fatalf("run after re-registration = %d: %s", resp.StatusCode, body)
	}
	if got := s.Registry().Builds(); got != builds+1 {
		t.Fatalf("builds after re-registration = %d, want %d (stale handle served)", got, builds+1)
	}
	// The rebuilt handle is now resident; a further run must not rebuild.
	if resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Model: "conv-relu", Arch: "user-arch", Seed: 4}); resp.StatusCode != http.StatusOK {
		t.Fatalf("third run = %d: %s", resp.StatusCode, body)
	}
	if got := s.Registry().Builds(); got != builds+1 {
		t.Fatalf("builds after warm run = %d, want %d", got, builds+1)
	}
}

func TestServerModelsEndpoint(t *testing.T) {
	_, ts := testGateway(t)
	// Load one program first so the listing is non-trivial.
	if resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Model: "conv-relu", Arch: "toy-table2", Seed: 1}); resp.StatusCode != http.StatusOK {
		t.Fatalf("run = %d: %s", resp.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m modelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if len(m.Models) == 0 || len(m.Archs) == 0 {
		t.Fatalf("models/archs listing empty: %+v", m)
	}
	if len(m.Programs) != 1 || m.Programs[0].Key.Model != "conv-relu" {
		t.Fatalf("programs = %+v, want the one loaded key", m.Programs)
	}
	if m.Programs[0].Stats.Requests == 0 {
		t.Fatal("loaded program reports zero served requests")
	}
}

func TestServerDrain(t *testing.T) {
	s, ts := testGateway(t)
	if resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Model: "conv-relu", Arch: "toy-table2", Seed: 1}); resp.StatusCode != http.StatusOK {
		t.Fatalf("run = %d: %s", resp.StatusCode, body)
	}
	s.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", resp.StatusCode)
	}
	run, _ := postJSON(t, ts.URL+"/v1/run", RunRequest{Model: "conv-relu", Arch: "toy-table2", Seed: 2})
	if run.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("run while draining = %d, want 503", run.StatusCode)
	}
}

// closeRecorder is a Runner that only records Close; a second Close panics.
type closeRecorder struct{ closed chan struct{} }

func (r *closeRecorder) Do(context.Context, map[int]*cimmlc.Tensor) (map[int]*cimmlc.Tensor, error) {
	return nil, nil
}
func (r *closeRecorder) Inputs() map[int][]int { return nil }
func (r *closeRecorder) Close()                { close(r.closed) }

// TestServerBuildRaceClosesEveryRunner races a runner build that began
// before an arch re-registration against one that began after it, in both
// insertion orders: the fresh runner must end up resident, and after
// Server.Close every runner ever built must be closed — none orphaned with
// its goroutines still running.
func TestServerBuildRaceClosesEveryRunner(t *testing.T) {
	for _, staleFirst := range []bool{true, false} {
		a, err := cimmlc.Preset("toy-table2")
		if err != nil {
			t.Fatal(err)
		}
		a.Name = "race-arch"
		reg := NewRegistry()
		if err := reg.RegisterArch(a); err != nil {
			t.Fatal(err)
		}
		// Each build announces itself with a gate and blocks on it.
		gates := make(chan chan struct{})
		var mu sync.Mutex
		var built []*closeRecorder
		s := NewServer(reg, ServerConfig{Runner: func(context.Context, *Registry, string, string) (Runner, error) {
			gate := make(chan struct{})
			gates <- gate
			<-gate
			r := &closeRecorder{closed: make(chan struct{})}
			mu.Lock()
			built = append(built, r)
			mu.Unlock()
			return r, nil
		}})
		// start launches one Server.Runner call and returns once its build
		// is blocked, i.e. after it has read the arch version.
		start := func() (gate chan struct{}, got chan Runner) {
			got = make(chan Runner, 1)
			go func() {
				r, err := s.Runner(context.Background(), "conv-relu", "race-arch")
				if err != nil {
					t.Error(err)
				}
				got <- r
			}()
			return <-gates, got
		}
		staleGate, staleGot := start()
		if err := reg.RegisterArch(a); err != nil {
			t.Fatal(err)
		}
		freshGate, freshGot := start()

		var fresh Runner
		if staleFirst {
			close(staleGate)
			<-staleGot
			close(freshGate)
			fresh = <-freshGot
		} else {
			close(freshGate)
			fresh = <-freshGot
			close(staleGate)
			// The late stale build is discarded; its caller is served the
			// resident fresh runner.
			if got := <-staleGot; got != fresh {
				t.Errorf("a stale build displaced the fresh resident runner")
			}
		}
		if got, err := s.Runner(context.Background(), "conv-relu", "race-arch"); err != nil || got != fresh {
			t.Errorf("staleFirst=%v: resident runner is not the fresh build (err %v)", staleFirst, err)
		}
		s.Close()
		if len(built) != 2 {
			t.Fatalf("staleFirst=%v: %d runners built, want 2", staleFirst, len(built))
		}
		for _, r := range built {
			select {
			case <-r.closed:
			case <-time.After(5 * time.Second):
				t.Errorf("staleFirst=%v: a built runner was never closed (fresh: %v)", staleFirst, Runner(r) == fresh)
			}
		}
	}
}

// arrivalCtx reports, once, that its owner has begun to wait on it.
type arrivalCtx struct {
	context.Context
	arrived func()
}

func (c arrivalCtx) Done() <-chan struct{} {
	c.arrived()
	return c.Context.Done()
}

// TestServerColdBurstBuildsOnce: a burst of first requests for one pair used
// to run one runner build each — under fleet.Factory a fleet with its scaler
// each — and close all but one as race losers. The burst must coalesce on one
// build, which outlives the caller that started it: that caller giving up
// fails neither the build nor the others waiting on it.
func TestServerColdBurstBuildsOnce(t *testing.T) {
	const burst = 8
	var builds, present atomic.Int32
	gate := make(chan struct{})
	s := NewServer(NewRegistry(), ServerConfig{Runner: func(ctx context.Context, _ *Registry, _, _ string) (Runner, error) {
		builds.Add(1)
		present.Add(1)
		<-gate
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return &closeRecorder{closed: make(chan struct{})}, nil
	}})
	defer s.Close()

	// The first caller starts the build and then gives up.
	first, giveUp := context.WithCancel(context.Background())
	firstErr := make(chan error, 1)
	go func() {
		_, err := s.Runner(first, "conv-relu", "toy-table2")
		firstErr <- err
	}()
	waitFor(t, "the first build to start", func() bool { return builds.Load() == 1 })
	giveUp()

	// Every other caller is either waiting for that build or, without
	// coalescing, inside a build of its own when the gate opens.
	type handed struct {
		r   Runner
		err error
	}
	got := make(chan handed, burst)
	for i := 1; i < burst; i++ {
		go func() {
			var once sync.Once
			ctx := arrivalCtx{context.Background(), func() { once.Do(func() { present.Add(1) }) }}
			r, err := s.Runner(ctx, "conv-relu", "toy-table2")
			got <- handed{r, err}
		}()
	}
	waitFor(t, "the burst to arrive", func() bool { return present.Load() >= burst })
	if n := builds.Load(); n != 1 {
		close(gate)
		t.Fatalf("a cold burst of %d requests ran %d runner builds, want 1", burst, n)
	}
	if err := <-firstErr; err != context.Canceled {
		t.Fatalf("the caller that gave up got %v with the build still running, want context.Canceled", err)
	}
	close(gate)
	resident := <-got
	for i := 2; i < burst; i++ {
		if h := <-got; h.err != nil || resident.err != nil || h.r != resident.r {
			t.Fatalf("two callers of one cold burst were handed %v (err %v) and %v (err %v)", resident.r, resident.err, h.r, h.err)
		}
	}
	if r, err := s.Runner(context.Background(), "conv-relu", "toy-table2"); err != nil || r != resident.r || builds.Load() != 1 {
		t.Fatalf("the burst's runner is not resident afterwards (err %v)", err)
	}
}
