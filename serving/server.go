package serving

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cimmlc"
)

// Runner is one resident serving engine for a (model, arch) pair — what
// the gateway routes /v1/run requests to. The default is a Batcher over a
// single compiled Program; serving/fleet provides a multi-replica cluster
// implementation behind the same interface.
type Runner interface {
	Do(ctx context.Context, inputs map[int]*cimmlc.Tensor) (map[int]*cimmlc.Tensor, error)
	Inputs() map[int][]int
	Close()
}

// RunnerFactory builds the Runner for a (model, arch) pair on its first
// request. ctx bounds the build.
type RunnerFactory func(ctx context.Context, reg *Registry, model, arch string) (Runner, error)

// FleetStater is implemented by runners that expose cluster introspection
// (serving/fleet's Fleet). The /v1/fleet route lists every resident one.
type FleetStater interface{ FleetState() any }

// ServerConfig tunes the HTTP gateway.
type ServerConfig struct {
	// Batch configures the micro-batching queue created per resident
	// Program. The zero value uses the batcher defaults.
	Batch BatcherConfig
	// RequestTimeout bounds one /v1/run request, queueing included
	// (default 30s).
	RequestTimeout time.Duration
	// Runner overrides how the per-(model, arch) serving engine is built.
	// nil uses the default single-Program Batcher path.
	Runner RunnerFactory
}

// Server is the embeddable serving gateway: it owns a Registry and one
// Runner per resident (model, arch) pair, and exposes them as an
// http.Handler with the /v1/run, /v1/models, /v1/archs, /v1/fleet and
// /healthz routes cmd/cimserve serves. Create it with NewServer, mount
// Handler, and Close it to drain.
type Server struct {
	reg     *Registry
	cfg     ServerConfig
	maxBody int64 // request-body cap in bytes

	mu       sync.Mutex
	handles  map[Key]*progHandle
	building map[buildKey]*runnerBuild // the runner builds in flight
	draining bool
}

// buildKey names one runner build: a pair at one registration of its arch. A
// build begun before the arch was re-registered and one begun after are not
// the same build.
type buildKey struct {
	Key
	ver uint64
}

// runnerBuild is a runner build in flight; h and err are set before done is
// closed.
type runnerBuild struct {
	done chan struct{}
	h    *progHandle
	err  error
}

// progHandle pairs a resident runner with its memoized input schema (so
// per-request validation does not rebuild it) and the arch version it was
// built at (so re-registering the arch retires it).
type progHandle struct {
	run    Runner
	schema map[int][]int
	ver    uint64
}

// NewServer wraps a registry in a serving gateway.
func NewServer(reg *Registry, cfg ServerConfig) *Server {
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	return &Server{reg: reg, cfg: cfg, maxBody: 64 << 20, handles: map[Key]*progHandle{}, building: map[buildKey]*runnerBuild{}}
}

// Registry returns the server's model registry.
func (s *Server) Registry() *Registry { return s.reg }

// Batcher returns the micro-batching queue for (model, arch), building the
// Program on first use. It errors when a RunnerFactory serves the pair
// with something other than a Batcher (e.g. a fleet).
func (s *Server) Batcher(ctx context.Context, model, arch string) (*Batcher, error) {
	h, err := s.handle(ctx, model, arch)
	if err != nil {
		return nil, err
	}
	b, ok := h.run.(*Batcher)
	if !ok {
		return nil, fmt.Errorf("serving: the resident runner for %s on %s is a %T, not a Batcher", model, arch, h.run)
	}
	return b, nil
}

// Runner returns the serving engine for (model, arch), building it on
// first use.
func (s *Server) Runner(ctx context.Context, model, arch string) (Runner, error) {
	h, err := s.handle(ctx, model, arch)
	if err != nil {
		return nil, err
	}
	return h.run, nil
}

// handle returns the resident runner of (model, arch), building it on first
// use. Concurrent first requests for a pair wait for a single in-flight build,
// which runs detached from any one caller's context — one client's timeout or
// disconnect must not fail the build for everyone coalesced on it. Each
// waiter still honors its own ctx. A failed build is not kept, so a later
// request retries.
func (s *Server) handle(ctx context.Context, model, arch string) (*progHandle, error) {
	key := Key{Model: strings.ToLower(model), Arch: strings.ToLower(arch)}
	ver := s.reg.ArchVersion(arch)
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	h, ok := s.handles[key]
	if ok && h.ver != ver {
		// The arch was re-registered since this handle was built: take the
		// stale runner off the request path now and drain it off to the
		// side, then rebuild against the new arch.
		delete(s.handles, key)
		go h.run.Close()
		ok = false
	}
	if ok {
		s.mu.Unlock()
		return h, nil
	}
	bk := buildKey{key, ver}
	b := s.building[bk]
	if b == nil {
		b = &runnerBuild{done: make(chan struct{})}
		s.building[bk] = b
		go func() {
			run, err := s.newRunner(context.WithoutCancel(ctx), model, arch)
			s.mu.Lock()
			defer s.mu.Unlock()
			delete(s.building, bk)
			if b.err = err; err == nil {
				b.h, b.err = s.install(key, ver, run)
			}
			close(b.done)
		}()
	}
	s.mu.Unlock()
	select {
	case <-b.done:
		return b.h, b.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// install makes a freshly built runner the resident one of key, unless the
// server is draining or a runner at least as fresh got there first; whichever
// runner loses is drained off to the side. The caller holds s.mu.
func (s *Server) install(key Key, ver uint64, run Runner) (*progHandle, error) {
	if s.draining {
		go run.Close()
		return nil, ErrClosed
	}
	if old, ok := s.handles[key]; ok {
		if old.ver >= ver {
			// A build that began before the arch was re-registered lost to
			// the fresh runner already resident; its callers get that one.
			go run.Close()
			return old, nil
		}
		// A build that began before the arch was re-registered got in
		// first: drain it off to the side like any stale handle.
		go old.run.Close()
	}
	h := &progHandle{run: run, schema: run.Inputs(), ver: ver}
	s.handles[key] = h
	return h, nil
}

// newRunner builds the serving engine for one (model, arch) pair via the
// configured factory, defaulting to a Batcher over the registry's Program.
func (s *Server) newRunner(ctx context.Context, model, arch string) (Runner, error) {
	if s.cfg.Runner != nil {
		return s.cfg.Runner(ctx, s.reg, model, arch)
	}
	p, err := s.reg.Get(ctx, model, arch)
	if err != nil {
		return nil, err
	}
	return NewBatcher(p, s.cfg.Batch), nil
}

// Close drains every runner: queued requests finish, new ones are
// rejected. Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	s.draining = true
	hs := make([]*progHandle, 0, len(s.handles))
	for _, h := range s.handles {
		hs = append(hs, h)
	}
	s.mu.Unlock()
	for _, h := range hs {
		h.run.Close()
	}
}

// Handler returns the gateway's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/v1/models", s.handleModels)
	mux.HandleFunc("/v1/archs", s.handleArchs)
	mux.HandleFunc("/v1/run", s.handleRun)
	mux.HandleFunc("/v1/fleet", s.handleFleet)
	return mux
}

// JSONTensor is the wire form of a tensor: a shape and the row-major data.
type JSONTensor struct {
	Shape []int     `json:"shape"`
	Data  []float32 `json:"data"`
}

// RunRequest is the /v1/run body. Inputs are keyed by input node ID
// (stringified, JSON objects require string keys). When Inputs is empty,
// Seed generates deterministic pseudo-random inputs server-side — handy
// for smoke tests and load generation.
type RunRequest struct {
	Model  string                `json:"model"`
	Arch   string                `json:"arch"`
	Inputs map[string]JSONTensor `json:"inputs,omitempty"`
	Seed   uint64                `json:"seed,omitempty"`
}

// RunResponse is the /v1/run reply.
type RunResponse struct {
	Model   string                `json:"model"`
	Arch    string                `json:"arch"`
	Outputs map[string]JSONTensor `json:"outputs"`
}

// newRunResponse is the reply for a runner's outputs; the tensors' data is
// shared, not copied.
func newRunResponse(model, arch string, outs map[int]*cimmlc.Tensor) RunResponse {
	resp := RunResponse{Model: model, Arch: arch, Outputs: make(map[string]JSONTensor, len(outs))}
	for id, t := range outs {
		resp.Outputs[strconv.Itoa(id)] = JSONTensor{Shape: t.Shape(), Data: t.Data()}
	}
	return resp
}

type errorResponse struct {
	Error string `json:"error"`
}

// writeJSON encodes v before it writes the status line, so a value that
// does not encode is a 500 with an error body, never a 200 with none.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("serving: encoding response: %w", err))
		return
	}
	writeBody(w, status, append(body, '\n'))
}

// writeBody answers with an already encoded JSON body.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body) // the client is gone; nobody is left to tell
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// modelsResponse is the /v1/models reply: what can be served and what is
// resident right now.
type modelsResponse struct {
	Models   []string      `json:"models"`
	Archs    []string      `json:"archs"`
	Programs []ProgramInfo `json:"programs"`
	Builds   uint64        `json:"builds"`
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	writeJSON(w, http.StatusOK, modelsResponse{
		Models:   s.reg.Models(),
		Archs:    s.reg.Archs(),
		Programs: s.reg.Loaded(),
		Builds:   s.reg.Builds(),
	})
}

// handleArchs registers a user-supplied architecture from its JSON
// description. Malformed or invalid descriptions — unknown NoC topology,
// unknown device, inconsistent grids — come back as a 400 with the
// validation error, never a crash.
func (s *Server) handleArchs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST with the arch JSON as body"))
		return
	}
	data, ok := s.readBody(w, r, nil)
	if !ok {
		return
	}
	name, err := s.reg.RegisterArchJSON(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"name": name})
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	wb := wirePool.Get().(*wireBuf)
	defer putWireBuf(wb)
	data, ok := s.readBody(w, r, wb.b)
	if !ok {
		return
	}
	wb.b = data
	req, err := decodeRunRequest(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serving: bad request body: %w", err))
		return
	}
	if req.Model == "" || req.Arch == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serving: request must set model and arch"))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	h, err := s.handle(ctx, req.Model, req.Arch)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	inputs, err := decodeInputs(h.schema, &req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	outs, err := h.run.Do(ctx, inputs)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	resp := newRunResponse(req.Model, req.Arch, outs)
	// req shares no memory with the body, so the reply can take its buffer.
	wb.b, err = appendRunResponse(wb.b[:0], &resp, &wb.memo)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeBody(w, http.StatusOK, wb.b)
}

// handleFleet lists the cluster state of every resident runner that
// exposes one (fleet-backed gateways); a default gateway reports an empty
// list.
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	type entry struct {
		key   Key
		state any
	}
	s.mu.Lock()
	entries := make([]entry, 0, len(s.handles))
	for k, h := range s.handles {
		if fs, ok := h.run.(FleetStater); ok {
			entries = append(entries, entry{key: k, state: fs.FleetState()})
		}
	}
	s.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].key.Model != entries[j].key.Model {
			return entries[i].key.Model < entries[j].key.Model
		}
		return entries[i].key.Arch < entries[j].key.Arch
	})
	states := make([]any, len(entries))
	for i, e := range entries {
		states[i] = e.state
	}
	writeJSON(w, http.StatusOK, map[string]any{"fleets": states})
}

// statusFor maps gateway errors to HTTP statuses: an unknown name is 404, a
// pair the compiler cannot build 422, drain 503, a timeout 504, the rest 500.
func statusFor(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrUnservable):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

// decodeInputs turns the wire inputs into tensors keyed by node ID,
// validated against the program's input schema; with no wire inputs it
// generates seeded pseudo-random tensors for every input node.
func decodeInputs(schema map[int][]int, req *RunRequest) (map[int]*cimmlc.Tensor, error) {
	inputs := make(map[int]*cimmlc.Tensor, len(schema))
	if len(req.Inputs) == 0 {
		for id, shape := range schema {
			t := cimmlc.NewTensor(shape...)
			t.Rand(req.Seed*1315423911+uint64(id)+1, 1)
			inputs[id] = t
		}
		return inputs, nil
	}
	for key, jt := range req.Inputs {
		id, err := strconv.Atoi(key)
		if err != nil {
			return nil, fmt.Errorf("serving: input key %q is not a node ID", key)
		}
		shape, ok := schema[id]
		if !ok {
			return nil, fmt.Errorf("serving: node %d is not an input (inputs: %s)", id, inputIDs(schema))
		}
		if len(jt.Shape) == 0 {
			jt.Shape = shape
		} else if !shapesEqual(jt.Shape, shape) {
			return nil, fmt.Errorf("serving: input %d has shape %v, model expects %v", id, jt.Shape, shape)
		}
		t, err := cimmlc.TensorFromSlice(jt.Data, jt.Shape...)
		if err != nil {
			return nil, fmt.Errorf("serving: input %d: %w", id, err)
		}
		inputs[id] = t
	}
	for id := range schema {
		if _, ok := inputs[id]; !ok {
			return nil, fmt.Errorf("serving: missing input for node %d (inputs: %s)", id, inputIDs(schema))
		}
	}
	return inputs, nil
}

func shapesEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func inputIDs(schema map[int][]int) string {
	ids := make([]int, 0, len(schema))
	for id := range schema {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.Itoa(id)
	}
	return strings.Join(parts, ", ")
}

// readBody reads a request body into buf's storage, grown first to the
// declared Content-Length, and capped so an oversized request cannot exhaust
// memory. On failure it answers the request — 413 over the cap, 400
// otherwise — and reports false.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, buf []byte) ([]byte, bool) {
	// One byte over the declared length, so the read that finds EOF fits.
	buf = slices.Grow(buf[:0], int(min(max(r.ContentLength, 0), s.maxBody, maxPooledBuf))+1)
	data, err := readInto(buf, http.MaxBytesReader(w, r.Body, s.maxBody))
	if err == nil {
		return data, true
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, fmt.Errorf("serving: reading request body: %w", err))
	return nil, false
}
