package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"cimmlc"
)

// servedPairs are the (model, arch) pairs of the bench's serve-http workload.
var servedPairs = [][2]string{{"conv-relu", "toy-table2"}, {"lenet5", "puma"}, {"mlp", "isaac-baseline"}}

// seededRequest makes one request for a program's input schema: the tensors
// and the body a client would send for them.
func seededRequest(tb testing.TB, model, arch string, schema map[int][]int, seed uint64) (map[int]*cimmlc.Tensor, []byte) {
	tb.Helper()
	inputs := map[int]*cimmlc.Tensor{}
	req := RunRequest{Model: model, Arch: arch, Inputs: map[string]JSONTensor{}}
	for id, shape := range schema {
		t := cimmlc.NewTensor(shape...)
		t.Rand(seed*31+uint64(id)+1, 1)
		inputs[id] = t
		req.Inputs[strconv.Itoa(id)] = JSONTensor{Shape: shape, Data: t.Data()}
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return inputs, body
}

// discardWriter is a ResponseWriter that keeps the status and the byte count.
type discardWriter struct {
	header http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// BenchmarkHandleRun is the codec's layer number: one /v1/run request through
// Handler().ServeHTTP in process — no network, cimserve's defaults — beside
// Runner.Do on the same inputs, for the three pairs of the bench's serve-http
// workload. ns/op, B/op and allocs/op are the handler's; do_us/op is
// Runner.Do alone, the executor's share; codec_us/op is the handler minus
// Do, what decoding the body and encoding the reply cost, and
// decode_us/op and encode_us/op split it: decodeRunRequest of the body, and
// appendRunResponse of the reply from a warm memo, each timed alone (the
// rest of codec_us is the request's plumbing around them). ftoa/op is the
// float conversions one reply needs from a cold memo.
func BenchmarkHandleRun(b *testing.B) {
	ctx := context.Background()
	for _, c := range servedPairs {
		b.Run(c[0]+"."+c[1], func(b *testing.B) {
			s := NewServer(NewRegistry(), ServerConfig{})
			defer s.Close()
			run, err := s.Runner(ctx, c[0], c[1])
			if err != nil {
				b.Fatal(err)
			}
			inputs := make([]map[int]*cimmlc.Tensor, 8)
			bodies := make([][]byte, len(inputs))
			resps := make([]RunResponse, len(inputs))
			for i := range inputs {
				inputs[i], bodies[i] = seededRequest(b, c[0], c[1], run.Inputs(), uint64(i))
				outs, err := run.Do(ctx, inputs[i])
				if err != nil {
					b.Fatal(err)
				}
				resps[i] = newRunResponse(c[0], c[1], outs)
			}
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err = run.Do(ctx, inputs[i%len(inputs)]); err != nil {
					b.Fatal(err)
				}
			}
			do := time.Since(start)

			h := s.Handler()
			w := &discardWriter{header: http.Header{}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.n = 0
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(bodies[i%len(bodies)])))
				if w.status != http.StatusOK {
					b.Fatalf("status %d", w.status)
				}
			}
			b.StopTimer()

			start = time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := decodeRunRequest(bodies[i%len(bodies)]); err != nil {
					b.Fatal(err)
				}
			}
			decode := time.Since(start)
			var reply []byte
			var warm floatMemo
			start = time.Now()
			for i := 0; i < b.N; i++ {
				if reply, err = appendRunResponse(reply[:0], &resps[i%len(resps)], &warm); err != nil {
					b.Fatal(err)
				}
			}
			encode := time.Since(start)
			var cold floatMemo
			if _, err := appendRunResponse(nil, &resps[0], &cold); err != nil {
				b.Fatal(err)
			}
			perOp := func(d time.Duration) float64 { return float64(d) / float64(b.N) / 1e3 }
			b.ReportMetric(perOp(do), "do_us/op")
			b.ReportMetric(perOp(b.Elapsed()-do), "codec_us/op")
			b.ReportMetric(perOp(decode), "decode_us/op")
			b.ReportMetric(perOp(encode), "encode_us/op")
			b.ReportMetric(float64(len(bodies[0])), "req_B")
			b.ReportMetric(float64(w.n), "resp_B")
			b.ReportMetric(float64(cold.conversions), "ftoa/op")
		})
	}
}

// BenchmarkBatcherOpenLoop is the batcher's load evidence: one Batcher with
// cimserve's defaults over lenet5 on puma, saturated by a closed loop to
// find its capacity, then fed one second of fixed-rate arrivals — an open
// loop, one goroutine per request, however many are already in flight — at
// 0.5×, 0.9× and 1.1× of that capacity (measured anew before each rate: a
// shared machine's speed drifts). Each request is timed from when it was due,
// so a stall shows in the requests behind it. Below capacity the numbers to
// read are p50/p99; at and over it, mean_batch and completed/s: a batching
// policy earns its keep by forming batches when, and only when, there is a
// backlog. late_ms is how far behind schedule the generator itself ran.
func BenchmarkBatcherOpenLoop(b *testing.B) {
	ctx := context.Background()
	p, err := NewRegistry().Get(ctx, "lenet5", "puma")
	if err != nil {
		b.Fatal(err)
	}
	inputs := make([]map[int]*cimmlc.Tensor, 64)
	for i := range inputs {
		inputs[i], _ = seededRequest(b, "lenet5", "puma", p.Inputs(), uint64(i))
	}
	var cfg BatcherConfig // what cimserve runs with no flags

	// capacity is the closed-loop throughput: as many callers as the queue
	// holds, each sending its next request when the last one returns.
	capacity := func(b *testing.B) float64 {
		const clients, warm, window = 32, 100 * time.Millisecond, 400 * time.Millisecond
		bt := NewBatcher(p, cfg)
		defer bt.Close()
		var done [clients]int
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; time.Since(start) < warm+window; i++ {
					if _, err := bt.Do(ctx, inputs[i%len(inputs)]); err != nil {
						b.Error(err)
						return
					}
					if time.Since(start) >= warm {
						done[c]++
					}
				}
			}(c)
		}
		wg.Wait()
		total := 0
		for _, n := range done {
			total += n
		}
		if b.Failed() || total == 0 {
			b.Fatalf("closed loop completed %d requests", total)
		}
		return float64(total) / window.Seconds()
	}

	for _, load := range []struct {
		name string
		x    float64
	}{{"0.5x", 0.5}, {"0.9x", 0.9}, {"1.1x", 1.1}} {
		b.Run(load.name, func(b *testing.B) {
			for iter := 0; iter < b.N; iter++ {
				rate := load.x * capacity(b)
				n := int(rate) // one second of arrivals
				gap := time.Duration(float64(time.Second) / rate)
				bt := NewBatcher(p, cfg)
				lat := make([]float64, n)
				var late time.Duration
				var wg sync.WaitGroup
				start := time.Now()
				for i := 0; i < n; i++ {
					due := start.Add(time.Duration(i) * gap)
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
					late += time.Since(due)
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						if _, err := bt.Do(ctx, inputs[i%len(inputs)]); err != nil {
							b.Error(err)
						}
						lat[i] = float64(time.Since(due)) / 1e6
					}(i)
				}
				wg.Wait()
				span := time.Since(start)
				st := bt.Stats()
				bt.Close()
				slices.Sort(lat)
				b.ReportMetric(rate, "offered/s")
				b.ReportMetric(float64(n)/span.Seconds(), "completed/s")
				b.ReportMetric(lat[n/2], "p50_ms")
				b.ReportMetric(lat[n*99/100], "p99_ms")
				b.ReportMetric(float64(st.Requests)/float64(st.Batches), "mean_batch")
				b.ReportMetric(float64(late)/float64(n)/1e6, "late_ms")
				b.ReportMetric(0, "ns/op")
			}
		})
	}
}
