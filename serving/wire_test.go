package serving

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"cimmlc"
)

// sameRequest is reflect.DeepEqual that also tells -0 from 0.
func sameRequest(a, b RunRequest) bool {
	if !reflect.DeepEqual(a, b) {
		return false
	}
	for id, t := range a.Inputs {
		for i, f := range t.Data {
			if math.Float32bits(f) != math.Float32bits(b.Inputs[id].Data[i]) {
				return false
			}
		}
	}
	return true
}

// FuzzDecodeRunRequest holds the decoder to its contract: whatever the body,
// it is accepted or rejected as json.Unmarshal into a RunRequest accepts or
// rejects it, and an accepted body decodes to the same value. The parser
// declining is always safe; the seeds are the bodies where answering itself
// would not be.
func FuzzDecodeRunRequest(f *testing.F) {
	for _, body := range []string{
		`{"model":"conv-relu","arch":"toy-table2","seed":7}`,
		`{"model":"m","arch":"a","inputs":{"0":{"shape":[1,2],"data":[0.5,-1e-3]},"10":{"data":[1E+2]}}}`,
		` { "model" : "m" , "arch" : "a" , "inputs" : { "0" : { "data" : [ 1 , 2 ] , "shape" : [ 2 ] } } } ` + "\n",
		// Repeats: the stdlib overwrites a scalar and merges into a live map.
		`{"model":"m","model":"n","arch":"a"}`,
		`{"inputs":{"0":{"data":[1]}},"inputs":{"1":{"data":[2]}}}`,
		`{"inputs":{"0":{"data":[1],"data":[2,3]}}}`,
		`{"inputs":{"0":{"data":[1]},"0":{"shape":[1]}}}`,
		`{"model":null,"arch":null,"seed":null,"inputs":null}`,
		`{"inputs":{"0":null}}`,
		`{"inputs":{"0":{"shape":null,"data":null}}}`,
		`{"model":"m","arch":"a\n"}`,
		`{"Model":"m","ARCH":"a","Seed":1}`,
		`{"model":"m","arch":"é"}`,
		"{\"model\":\"m\xff\",\"arch\":\"\x01\"}",
		`{"inputs":{"0":{"data":[1e39]}}}`,
		`{"inputs":{"0":{"data":[-1e39,1e38,1e-50]}}}`,
		`{"inputs":{"0":{"data":[01]}}}`,
		`{"inputs":{"0":{"data":[.5]}}}`,
		`{"inputs":{"0":{"data":[+1]}}}`,
		`{"inputs":{"0":{"data":[1.]}}}`,
		`{"inputs":{"0":{"data":[1e]}}}`,
		`{"inputs":{"0":{"data":[-]}}}`,
		`{"inputs":{"0":{"data":[0x10,Inf,NaN]}}}`,
		`{"inputs":{"0":{"data":[-0,0,-0.0e0]}}}`,
		`{"inputs":{"0":{"data":[]}}}`,
		`{"inputs":{"0":{"data":[1,]}}}`,
		`{"inputs":{"0":{"data":[1,2}}}`,
		`{"inputs":{"0":{"data":[[1]]}}}`,
		`{"inputs":{"0":{"shape":[],"data":[ ]}}}`,
		`{"inputs":{"0":{"shape":[1.0]}}}`,
		`{"inputs":{"0":{"shape":[1e2]}}}`,
		`{"inputs":{"0":{"shape":[-0,-3,9223372036854775807]}}}`,
		`{"inputs":{"0":{"shape":[9223372036854775808]}}}`,
		`{"inputs":{}}`,
		`{"inputs":{"":{}}}`,
		`{"seed":18446744073709551615}`,
		`{"seed":18446744073709551616}`,
		`{"seed":-0}`,
		`{"seed":1.0}`,
		`{"seed":"1"}`,
		`{"model":"m","arch":"a"} x`,
		`{"model":"m","arch":"a"}{}`,
		`{"model":"m","arch":"a",}`,
		`{"model":"m","extra":[[1,[2]],{"k":[3]}],"arch":"a"}`,
		`{"model":"m"`,
		`{"model":"m`,
		`{"model"`,
		`[]`,
		`null`,
		``,
		"\xef\xbb\xbf{}",
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want RunRequest
		wantErr := json.Unmarshal(body, &want)
		got, gotErr := decodeRunRequest(body)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("decodeRunRequest error %v, json.Unmarshal error %v", gotErr, wantErr)
		}
		if wantErr == nil && !sameRequest(got, want) {
			t.Fatalf("decoded %+v, json.Unmarshal %+v", got, want)
		}
		// What the parser answers itself must be what the stdlib answers.
		if got, ok := parseRunRequest(body); ok && (wantErr != nil || !sameRequest(got, want)) {
			t.Fatalf("parser accepted %+v, json.Unmarshal %+v (error %v)", got, want, wantErr)
		}
	})
}

// TestParseRunRequestTakesCanonicalBodies keeps the differential fuzzer
// honest: a parser that declined everything would pass it. The bodies a
// client marshals from a RunRequest never reach encoding/json, and the
// decoded tensors do not alias the body.
func TestParseRunRequestTakesCanonicalBodies(t *testing.T) {
	reqs := []RunRequest{
		{Model: "conv-relu", Arch: "toy-table2", Seed: 7},
		{Model: "m", Arch: "a", Inputs: map[string]JSONTensor{
			"0":  {Shape: []int{2, 2}, Data: []float32{0, -1.5, 1e-7, 3e21}},
			"10": {Data: []float32{float32(math.Copysign(0, -1)), math.MaxFloat32, math.SmallestNonzeroFloat32}},
		}},
	}
	for _, want := range reqs {
		indented, err := json.MarshalIndent(want, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		for _, body := range [][]byte{mustMarshal(t, want), indented} {
			got, ok := parseRunRequest(body)
			if !ok {
				t.Fatalf("parser declined the canonical body %s", body)
			}
			for i := range body {
				body[i] = 'x' // a pooled buffer is overwritten by the reply
			}
			var ref RunRequest
			if err := json.Unmarshal(mustMarshal(t, want), &ref); err != nil {
				t.Fatal(err)
			}
			if !sameRequest(got, ref) {
				t.Fatalf("decoded %+v, want %+v", got, ref)
			}
		}
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fastFloatAgrees runs fastFloat from the start of text and, when it
// answers, holds its value and cursor to number and strconv.ParseFloat(·,
// 32); a decline must leave the cursor where it was. It reports whether the
// fast path answered.
func fastFloatAgrees(t *testing.T, text []byte) bool {
	t.Helper()
	fast := wireParser{b: text}
	f, ok := fast.fastFloat()
	if !ok {
		if fast.i != 0 {
			t.Fatalf("%q: fastFloat declined but moved the cursor to %d", text, fast.i)
		}
		return false
	}
	ref := wireParser{b: text}
	tok, numOK := ref.number()
	want, err := strconv.ParseFloat(string(tok), 32)
	if !numOK || err != nil {
		t.Fatalf("%q: fastFloat answered %v, number %v and ParseFloat %v", text, f, numOK, err)
	}
	if math.Float32bits(f) != math.Float32bits(float32(want)) || fast.i != ref.i {
		t.Fatalf("%q: fastFloat %v (%#08x) ending at %d, ParseFloat %v (%#08x) ending at %d",
			text, f, math.Float32bits(f), fast.i, want, math.Float32bits(float32(want)), ref.i)
	}
	return true
}

// TestParseFloatMatchesStrconv holds the decoder's one-pass float path to
// strconv on the numbers it is for and the edges of what it takes. Which
// way each edge goes is pinned too, so a fast path that declined everything
// would not pass.
func TestParseFloatMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewPCG(40, 1))
	// Float32 shortest texts in encoding/json's format: any bit pattern, and
	// the inputs seededRequest sends, in [-1, 1), which all take the fast
	// path unless written with an exponent.
	for n := 0; n < 200_000; n++ {
		if f := math.Float32frombits(rng.Uint32()); !math.IsNaN(float64(f)) && !math.IsInf(float64(f), 0) {
			fastFloatAgrees(t, appendJSONFloat32(nil, f))
		}
		text := appendJSONFloat32(nil, 2*rng.Float32()-1)
		if !fastFloatAgrees(t, text) && !bytes.ContainsAny(text, "e") {
			t.Fatalf("%q: fastFloat declined a client's input", text)
		}
	}
	// Random decimals of up to 16 digits, with up to eight leading fraction
	// zeros.
	took := 0
	for n := 0; n < 200_000; n++ {
		var text []byte
		if rng.IntN(2) == 0 {
			text = append(text, '-')
		}
		intDigits, fracZeros := rng.IntN(8), rng.IntN(9)
		text = strconv.AppendUint(text, rng.Uint64N(uint64(math.Pow10(intDigits))), 10)
		if fracDigits := rng.IntN(17 - len(text)); fracDigits > 0 || fracZeros > 0 {
			text = append(text, '.')
			text = append(text, strings.Repeat("0", fracZeros)...)
			for range max(fracDigits, 1) {
				text = append(text, byte('0'+rng.IntN(10)))
			}
		}
		if fastFloatAgrees(t, text) {
			took++
		}
	}
	if took < 140_000 { // the rest have 16 digits past 2⁵³ or 23 fraction digits
		t.Errorf("fastFloat took %d of 200 000 random decimals", took)
	}

	for _, c := range []struct {
		text string
		took bool
	}{
		{"0", true}, {"-0", true}, {"0.0", true}, {"-0.000", true}, {"1", true}, {"-17.25", true},
		// 15 and 16 significant digits: up to 2⁵³ the digits fit a float64.
		{"0.123456789012345", true}, {"1234567890.123456", true},
		{"9007199254740992", true}, {"9007199254740993", false},
		{"0.9007199254740993", false}, {"0.00009007199254740992", true},
		// 22 fraction digits, and 23.
		{"0.0000000000000000000001", true}, {"0.1234567890123456789012", false},
		{"0.00000000000000000000001", false},
		// 20 digits would overflow the accumulator.
		{"18446744073709551617", false},
		// What follows the number is the caller's: json's grammar and
		// number's cursor decide.
		{"01", true}, {"0.5]", true}, {"1,2", true}, {"-0x1", true}, {"12a", true},
		{"1.", false}, {"-", false}, {".5", false}, {"+1", false}, {"-.5", false}, {" 1", false}, {"", false},
		{"1e5", false}, {"1E5", false}, {"1.5e-3", false}, {"0e0", false},
	} {
		if got := fastFloatAgrees(t, []byte(c.text)); got != c.took {
			t.Errorf("%q: fastFloat took it %v, want %v", c.text, got, c.took)
		}
	}

	// A decimal whose correctly rounded float64 is exactly a float32
	// halfway point must be declined, and rounding that float64 again would
	// in fact be wrong: 0.5000000298023224 lies above 0.5 + 2⁻²⁵, the
	// halfway point between 0.5 and its float32 successor, but its float64
	// is that point, which float32() rounds to even, down to 0.5. 16777217
	// is a halfway point exactly.
	for _, text := range []string{"0.5000000298023224", "-0.5000000298023224", "16777217"} {
		if fastFloatAgrees(t, []byte(text)) {
			t.Errorf("%q: fastFloat took a decimal whose float64 is a float32 halfway point", text)
		}
	}
	want, _ := strconv.ParseFloat("0.5000000298023224", 32)
	m, pow := float64(5000000298023224), 1e16 // variables: a constant quotient would be exact
	if twice := float32(m / pow); twice == float32(want) {
		t.Errorf("rounding through float64 gives ParseFloat's %v: the halfway case tests nothing", want)
	}
}

// FuzzParseFloat32 holds fastFloat to number and ParseFloat on arbitrary
// bytes: it may decline anything, but what it answers — value and cursor —
// is theirs.
func FuzzParseFloat32(f *testing.F) {
	for _, text := range []string{"0", "-0.000", "0.15625", "-17.25]", "9007199254740993",
		"0.0000000000000000000001", "0.5000000298023224", "16777217", "1.5e-3", "01", "1."} {
		f.Add([]byte(text))
	}
	f.Fuzz(func(t *testing.T, text []byte) { fastFloatAgrees(t, text) })
}

// FuzzAppendRunResponse holds the encoder to its contract: the bytes are
// json.NewEncoder's for the same RunResponse — key order, float format, null
// for nil and [] for empty, string escaping — from a cold memo and again from
// the warm one, and a NaN or ±Inf is an error where the stdlib's is. data is
// read as float32 bit patterns, dealt round-robin to the outputs named by
// ids (comma-separated); an output dealt none has an empty shape and data, or
// nil ones where nilMask says so (bit i the shape of output i, bit i+8 the
// data).
func FuzzAppendRunResponse(f *testing.F) {
	bits := func(vs ...uint32) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	f32 := math.Float32bits
	f.Add("conv-relu", "toy-table2", "4", uint16(0), bits(0, f32(1.5), f32(-2), f32(1.5), 0))
	// "10" sorts before "2"; -0, subnormals, both sides of 1e-6 and 1e21,
	// the longest text (22 bytes, −9.9999994e20 written out).
	f.Add("m", "a", "2,10,1", uint16(0), bits(0x80000000, 1, 0x007FFFFF, f32(1e-6), f32(9.9999e-7), math.Float32bits(math.Nextafter32(1e-6, 0)),
		f32(1e21), math.Float32bits(math.Nextafter32(1e21, 0)), math.Float32bits(-math.Nextafter32(1e21, 0)), f32(1e-9), f32(1e-10), f32(math.MaxFloat32), f32(-math.SmallestNonzeroFloat32)))
	// Two values in one memo slot (same sign, low exponent bits and leading
	// mantissa bits), alternating, so each evicts the other.
	f.Add("m", "a", "0", uint16(0), bits(0x3F800001, 0x3F800002, 0x3F800001, 0x3F800002, 0x43800001, 0x3F800001))
	// Zero and 2⁻⁷, whose slot zero would share if it had none of its own.
	f.Add("m", "a", "0", uint16(0), bits(0, f32(0x1p-7), 0, f32(0x1p-7), 0x80000000, f32(-0x1p-7), 0))
	f.Add("m", "a", "0", uint16(0), bits(f32(1), 0x7FC00000))
	f.Add("m", "a", "0,1", uint16(0), bits(f32(1), f32(2), f32(3), 0x7F800000))
	f.Add("m", "a", "0", uint16(0), bits(0xFF800000))
	f.Add("<m>&\"\\", "a\n\x7f é\xff", "0,<,\x00", uint16(0), bits(1, 2, 3))
	f.Add("m", "a", "0,1,2", uint16(0x0102), bits(f32(1)))
	f.Add("m", "a", "", uint16(0), []byte{})
	f.Add("m", "a", "0,0", uint16(0xFFFF), []byte{})

	var warm floatMemo
	f.Fuzz(func(t *testing.T, model, arch, ids string, nilMask uint16, data []byte) {
		resp := RunResponse{Model: model, Arch: arch}
		var keys []string
		if ids != "" {
			resp.Outputs = map[string]JSONTensor{}
			for _, id := range bytes.Split([]byte(ids), []byte{','}) {
				if _, dup := resp.Outputs[string(id)]; !dup {
					keys = append(keys, string(id))
					resp.Outputs[string(id)] = JSONTensor{}
				}
			}
		}
		for i, id := range keys {
			jt := JSONTensor{Shape: []int{}, Data: []float32{}}
			if nilMask>>(i%8)&1 != 0 {
				jt.Shape = nil
			}
			if nilMask>>(i%8+8)&1 != 0 {
				jt.Data = nil
			}
			for j := i; j*4+4 <= len(data); j += len(keys) {
				v := binary.LittleEndian.Uint32(data[j*4:])
				jt.Data = append(jt.Data, math.Float32frombits(v))
				jt.Shape = append(jt.Shape, int(int32(v)))
			}
			resp.Outputs[id] = jt
		}

		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(resp)
		var cold floatMemo
		for _, m := range []*floatMemo{&cold, &cold, &warm} {
			got, err := appendRunResponse([]byte("prefix"), &resp, m)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("appendRunResponse error %v, json error %v", err, wantErr)
			}
			if err == nil && !bytes.Equal(got, append([]byte("prefix"), want.Bytes()...)) {
				t.Fatalf("appendRunResponse wrote\n%s\njson wrote\n%s", got, want.Bytes())
			}
		}
	})
}

// TestSettledOutputLevels pins the traffic the codec's constants are sized
// for. A CIM operator's output is requantized into the architecture's
// activation precision, so however many elements a served output has, it
// holds at most 2·MaxQ+1 distinct values; the float memo has a slot for
// each, and an encoder starting cold converts each once — zero too, which
// has a slot of its own. The bodies and replies fit the buffers the pool
// keeps.
func TestSettledOutputLevels(t *testing.T) {
	ctx := context.Background()
	reg := NewRegistry()
	for _, c := range servedPairs {
		p, err := reg.Get(ctx, c[0], c[1])
		if err != nil {
			t.Fatal(err)
		}
		levels := 2*(1<<(p.Arch().ActBits-1)-1) + 1
		if levels > 1<<memoBits {
			t.Fatalf("%s: %d activation levels do not fit the memo's %d slots", c[1], levels, 1<<memoBits)
		}
		for seed := uint64(1); seed <= 4; seed++ {
			inputs, body := seededRequest(t, c[0], c[1], p.Inputs(), seed)
			outs, err := p.Run(ctx, inputs)
			if err != nil {
				t.Fatal(err)
			}
			resp := newRunResponse(c[0], c[1], outs)
			elems, values := 0, map[uint32]bool{}
			for id, o := range outs {
				distinct := map[uint32]bool{}
				for _, f := range o.Data() {
					distinct[math.Float32bits(f)] = true
					values[math.Float32bits(f)] = true
				}
				if len(distinct) > levels {
					t.Errorf("%s.%s output %d: %d distinct values, want at most %d levels", c[0], c[1], id, len(distinct), levels)
				}
				elems += len(o.Data())
			}
			var memo floatMemo
			reply, err := appendRunResponse(nil, &resp, &memo)
			if err != nil {
				t.Fatal(err)
			}
			if memo.conversions != len(values) {
				t.Errorf("%s.%s seed %d: %d float conversions for %d distinct values", c[0], c[1], seed, memo.conversions, len(values))
			}
			if 4*max(len(body), len(reply)) > maxPooledBuf {
				t.Errorf("%s.%s: a %d B body and a %d B reply leave the pool's %d B cap no headroom", c[0], c[1], len(body), len(reply), maxPooledBuf)
			}
			if seed == 1 {
				t.Logf("%s.%s: %d elements, %d distinct values, %d conversions, %d B request, %d B reply",
					c[0], c[1], elems, len(values), memo.conversions, len(body), len(reply))
			}
		}
	}
}

// TestZeroHasItsOwnSlot: zero, half of a ReLU output, shares no slot with
// a level. 2⁻⁷ has zero's sign, low exponent bits and leading mantissa
// bits; alternating with zero, it would evict and be evicted on every
// element if zero took the slot those bits index. (−0 is an ordinary bit
// pattern, in −2⁻⁷'s slot.)
func TestZeroHasItsOwnSlot(t *testing.T) {
	data := make([]float32, 64)
	for i := range data {
		data[i] = [...]float32{0, 0x1p-7, 0, -0x1p-7}[i%4]
	}
	var memo floatMemo
	resp := RunResponse{Outputs: map[string]JSONTensor{"0": {Data: data}}}
	if _, err := appendRunResponse(nil, &resp, &memo); err != nil {
		t.Fatal(err)
	}
	if memo.conversions != 3 {
		t.Errorf("%d float conversions for 3 distinct values", memo.conversions)
	}
}

// TestHandleRunConcurrentRepliesAreTheirOwn drives the pooled buffers from
// several goroutines at once, large and small bodies interleaved: every reply
// must be encoding/json's bytes for that request's own outputs, whichever
// buffer and memo it drew. Run with -race.
func TestHandleRunConcurrentRepliesAreTheirOwn(t *testing.T) {
	ctx := context.Background()
	s := NewServer(NewRegistry(), ServerConfig{})
	defer s.Close()
	h := s.Handler()
	const clients, rounds = 4, 6
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		pair := servedPairs[c%2] // conv-relu: 34 KB in, 210 KB out; lenet5: 9 KB in, 0.2 KB out
		p, err := s.Registry().Get(ctx, pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		var inputs [rounds]map[int]*cimmlc.Tensor
		var bodies [rounds][]byte
		for r := range inputs {
			inputs[r], bodies[r] = seededRequest(t, pair[0], pair[1], p.Inputs(), uint64(c*rounds+r))
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r, body := range bodies {
				outs, err := p.Run(ctx, inputs[r])
				if err != nil {
					t.Error(err)
					return
				}
				var want bytes.Buffer
				if err := json.NewEncoder(&want).Encode(newRunResponse(pair[0], pair[1], outs)); err != nil {
					t.Error(err)
					return
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
					t.Errorf("client %d round %d: status %d, reply differs from encoding/json's for its own outputs", c, r, rec.Code)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}
