package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one request (or
// one compile, or one build) share Req; Parent is the ID of the span that
// caused this one, 0 for a root.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	Name    string `json:"name"`
	Cell    string `json:"cell"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// Tracer records spans in memory, from the benchmark's own code around calls
// into each layer; nothing inside the program is instrumented. It is safe for
// concurrent use (the HTTP workloads record from client, handler and runner
// goroutines at once).
type Tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Start opens a span and returns its ID for End and for children's Parent.
// A nil Tracer records nothing, so a replay can run with tracing off.
func (t *Tracer) Start(parent, req int, name, cell string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Cell: cell, StartNS: now})
	return len(t.spans)
}

// End closes span id and returns its duration.
func (t *Tracer) End(id int) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNS = now
	return time.Duration(s.EndNS - s.StartNS)
}

// Add records a span that ended just now and lasted d — for layers that
// report a duration but no start time (the compiler's WithTrace hook).
func (t *Tracer) Add(parent, req int, name, cell string, d time.Duration) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Cell: cell, StartNS: now - d.Nanoseconds(), EndNS: now})
}

// Spans returns a copy of everything recorded so far.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfNS returns each span's self time by ID: its duration minus the part of
// its interval that its child spans cover (overlapping children count once).
func selfNS(spans []Span) map[int]int64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, edge := int64(0), s.StartNS
		for _, c := range iv {
			lo, hi := max(c[0], edge), min(c[1], s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// writeSpans writes the spans of one workload to dir/trace-<workload>.json.
func writeSpans(dir, workload string, spans []Span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
