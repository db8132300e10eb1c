package serving

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"cimmlc"
)

// fixedRunner answers every request with the same outputs.
type fixedRunner struct{ outs map[int]*cimmlc.Tensor }

func (r fixedRunner) Do(context.Context, map[int]*cimmlc.Tensor) (map[int]*cimmlc.Tensor, error) {
	return r.outs, nil
}
func (fixedRunner) Inputs() map[int][]int { return nil }
func (fixedRunner) Close()                {}

// TestServerNonFiniteOutputIs500 is the regression for the empty-200 bug: an
// output JSON cannot carry (a host-fallback float kernel can produce a NaN or
// an infinity) used to be answered "200" with no body, because the status
// line went out before the encoder failed and its error was dropped. It must
// be a 500 whose JSON error names the output node.
func TestServerNonFiniteOutputIs500(t *testing.T) {
	for name, bad := range map[string]float32{"NaN": float32(math.NaN()), "+Inf": float32(math.Inf(1)), "-Inf": float32(math.Inf(-1))} {
		t.Run(name, func(t *testing.T) {
			out, err := cimmlc.TensorFromSlice([]float32{1, bad, 1}, 3)
			if err != nil {
				t.Fatal(err)
			}
			s := NewServer(NewRegistry(), ServerConfig{Runner: func(context.Context, *Registry, string, string) (Runner, error) {
				return fixedRunner{map[int]*cimmlc.Tensor{7: out}}, nil
			}})
			defer s.Close()
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(`{"model":"m","arch":"a"}`)))
			if rec.Code != http.StatusInternalServerError {
				t.Fatalf("status = %d, want 500 (body %q)", rec.Code, rec.Body)
			}
			var e errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "output 7") {
				t.Fatalf("body %q should be a JSON error naming output 7 (%v)", rec.Body, err)
			}
		})
	}
}

// TestWriteJSONEncodesBeforeTheStatusLine holds every other route to the same
// rule: a value that does not encode is a 500 with an error body.
func TestWriteJSONEncodesBeforeTheStatusLine(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"fleets": []any{math.NaN()}})
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); rec.Code != http.StatusInternalServerError || err != nil || e.Error == "" {
		t.Fatalf("status %d body %q, want a 500 JSON error (%v)", rec.Code, rec.Body, err)
	}
}

// TestRegisterArchInvalidatesResidentPrograms is the regression for the
// stale-Program bug: re-registering an architecture (same name, new
// geometry) must invalidate the resident Programs built against the old
// description, so the next Get rebuilds instead of serving stale crossbar
// images. Before the fix, RegisterArch only swapped the compiler and the
// cached Program kept serving forever.
func TestRegisterArchInvalidatesResidentPrograms(t *testing.T) {
	ctx := context.Background()
	r := NewRegistry()

	// Build against the preset first — registering a shadowing arch must
	// also invalidate programs that resolved through the preset path.
	p1, err := r.Get(ctx, "conv-relu", "toy-table2")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Builds(); got != 1 {
		t.Fatalf("builds = %d, want 1", got)
	}
	st1 := p1.Result().Report

	// Shadow the preset under the same name with a different core grid.
	a, err := cimmlc.Preset("toy-table2")
	if err != nil {
		t.Fatal(err)
	}
	a.Chip.CoreRows *= 2
	if err := r.RegisterArch(a); err != nil {
		t.Fatal(err)
	}
	if v := r.ArchVersion("TOY-TABLE2"); v != 1 {
		t.Fatalf("ArchVersion = %d after one registration, want 1 (case-insensitive)", v)
	}

	p2, err := r.Get(ctx, "conv-relu", "toy-table2")
	if err != nil {
		t.Fatal(err)
	}
	if p2 == p1 {
		t.Fatal("Get after RegisterArch served the stale Program")
	}
	if got := r.Builds(); got != 2 {
		t.Fatalf("builds = %d after re-registration, want 2 (rebuild)", got)
	}
	if p2.Arch().Chip.CoreRows != a.Chip.CoreRows {
		t.Fatalf("rebuilt Program has core rows %d, want the re-registered %d",
			p2.Arch().Chip.CoreRows, a.Chip.CoreRows)
	}
	st2 := p2.Result().Report
	if st1.Cycles == st2.Cycles && st1.PeakPower == st2.PeakPower {
		t.Fatal("rebuilt Program's report is identical to the stale one; geometry change had no effect")
	}

	// Programs for other architectures survive the registration untouched.
	q1, err := r.Get(ctx, "conv-relu", "jia-isscc21")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterArch(a); err != nil { // re-register toy-table2 again
		t.Fatal(err)
	}
	if v := r.ArchVersion("toy-table2"); v != 2 {
		t.Fatalf("ArchVersion = %d after two registrations, want 2", v)
	}
	q2, err := r.Get(ctx, "conv-relu", "jia-isscc21")
	if err != nil {
		t.Fatal(err)
	}
	if q2 != q1 {
		t.Fatal("re-registering toy-table2 evicted the jia-isscc21 Program")
	}
}

// TestArchsKeepsDisplayCasing is the regression for the lowercasing bug:
// Archs must return canonical display casing — the name an arch was
// registered or defined with — while lookups stay case-insensitive.
func TestArchsKeepsDisplayCasing(t *testing.T) {
	r := NewRegistry()
	a, err := cimmlc.Preset("toy-table2")
	if err != nil {
		t.Fatal(err)
	}
	a.Name = "Lab-ArchV2"
	if err := r.RegisterArch(a); err != nil {
		t.Fatal(err)
	}
	names := r.Archs()
	if !slices.Contains(names, "Lab-ArchV2") {
		t.Fatalf("Archs() = %v, want the registered display casing Lab-ArchV2", names)
	}
	for _, n := range names {
		if n == "lab-archv2" {
			t.Fatalf("Archs() lowercased the registered name: %v", names)
		}
	}
	// Presets keep their canonical names and are not duplicated by a
	// same-name registration.
	for _, p := range cimmlc.Presets() {
		if !slices.Contains(names, p) {
			t.Fatalf("Archs() = %v, missing preset %q", names, p)
		}
	}
	if err := r.RegisterArch(a); err != nil { // same name, listed once
		t.Fatal(err)
	}
	count := 0
	for _, n := range r.Archs() {
		if strings.EqualFold(n, "lab-archv2") {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("registered arch listed %d times, want 1", count)
	}
	// Lookups stay case-insensitive.
	if _, err := r.Get(context.Background(), "conv-relu", "LAB-ARCHV2"); err != nil {
		t.Fatalf("case-insensitive Get on registered arch: %v", err)
	}
}

// TestBatcherDrainAttributesSizeFlushes is the regression for the drain-stat
// bug: full batches taken while Close drains the queue are ordinary size
// flushes; only the final partial one belongs to DrainFlushes. The backlog is
// built behind a held batch, so its split does not depend on timing.
func TestBatcherDrainAttributesSizeFlushes(t *testing.T) {
	p := testProgram(t)
	h := holdBatcher(t, p, BatcherConfig{MaxBatch: 2})
	const n = 5 // two full batches + one partial
	wait := h.backlog(n, validInput, nil)
	closed := h.closeHeld()
	h.release()
	<-closed
	for i, r := range wait() {
		if r.err != nil {
			t.Fatalf("drained request %d: %v", i, r.err)
		}
	}
	st := h.Stats()
	// The held lone request was taken before Close began: an idle flush.
	if st.SizeFlushes != 2 || st.DrainFlushes != 1 || st.IdleFlushes != 1 {
		t.Fatalf("size=%d drain=%d idle=%d, want 2/1/1 (full batches are size flushes even while draining)",
			st.SizeFlushes, st.DrainFlushes, st.IdleFlushes)
	}
	if st.Batches != 4 || st.Requests != n+1 {
		t.Fatalf("batches=%d requests=%d, want 4/%d", st.Batches, st.Requests, n+1)
	}
}

// TestBatcherFallbackRepliesSurviveClose pins the isolation fallback against
// shutdown: a poisoned batch's per-request re-runs must all be answered
// before Close returns — no request may observe ErrClosed after it was
// admitted.
func TestBatcherFallbackRepliesSurviveClose(t *testing.T) {
	p := testProgram(t)
	h := holdBatcher(t, p, BatcherConfig{MaxBatch: 2})
	const n = 4
	wait := h.backlog(n, func(i int) map[int]*cimmlc.Tensor {
		if i%2 == 1 {
			return map[int]*cimmlc.Tensor{0: cimmlc.NewTensor(1, 2, 2)} // malformed
		}
		return validInput(i)
	}, nil)
	closed := h.closeHeld()
	h.release()
	<-closed
	for i, r := range wait() {
		if i%2 == 1 {
			if r.err == nil {
				t.Fatalf("malformed request %d did not fail", i)
			}
			if r.err == ErrClosed {
				t.Fatalf("request %d lost its fallback reply to Close", i)
			}
			continue
		}
		if r.err != nil {
			t.Fatalf("good request %d: %v", i, r.err)
		}
		if len(r.outs) == 0 {
			t.Fatalf("good request %d: no outputs", i)
		}
	}
	// Two malformed requests over two batches of two: at least one batch
	// held one and had to be isolated.
	if st := h.Stats(); st.IsolationFallbacks == 0 {
		t.Fatalf("expected isolation fallbacks: %+v", st)
	}
}
