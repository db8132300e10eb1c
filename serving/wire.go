package serving

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"sync"
)

// The /v1/run wire codec. RunRequest and RunResponse stay the schema; this
// file reads and writes them without reflection, under one contract in each
// direction: a body is accepted or rejected exactly as json.Unmarshal into a
// RunRequest does, with the same decoded value (FuzzDecodeRunRequest), and a
// reply is byte for byte what json.NewEncoder(w).Encode(RunResponse) writes
// (FuzzAppendRunResponse).

const (
	// memoBits sizes the float memo: 1 << memoBits = 2 048 slots for the
	// values other than zero, which has one more of its own. A CIM
	// operator's output is requantized to the architecture's activation
	// precision, so a settled tensor holds at most 2·MaxQ+1 distinct values
	// — 255 at the 8 bits of every preset, an eighth of the table
	// (TestSettledOutputLevels).
	memoBits = 11
	// maxPooledBuf is the largest buffer a request hands back to the pool,
	// and the most a Content-Length may presize: four times the largest
	// served body (TestSettledOutputLevels), so one 64 MiB request neither
	// pins nor pre-claims 64 MiB.
	maxPooledBuf = 1 << 20
)

// wireBuf is what one /v1/run request borrows: the buffer its body is read
// into and its reply is then encoded into, and the float memo.
type wireBuf struct {
	b    []byte
	memo floatMemo
}

var wirePool = sync.Pool{New: func() any { return new(wireBuf) }}

func putWireBuf(wb *wireBuf) {
	if cap(wb.b) > maxPooledBuf {
		wb.b = nil
	}
	wirePool.Put(wb)
}

// readInto appends r to buf until EOF, like io.ReadAll into a given buffer.
func readInto(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// floatMemo remembers the JSON text of the float32 values it has formatted,
// direct-mapped by a hash of the bit pattern: a value is converted once and
// copied afterwards, until another value takes its slot. Entries never go
// stale — the text is a function of the bits — so a memo is reused across
// replies without clearing.
type floatMemo struct {
	slots [1<<memoBits + 1]memoSlot
	// conversions counts strconv.AppendFloat calls (the memo's misses).
	conversions int
}

// memoText is the width a slot's text is copied at. The longest float32 in
// encoding/json's format is 22 bytes (a sign and 21 digits just under
// 1e21), and a slot holds it followed by a comma.
const memoText = 24

// memoSlot is 32 bytes: the text of the bits, a comma after it, and n bytes
// of that in use. n == 0 marks an empty slot.
type memoSlot struct {
	text [memoText]byte
	bits uint32
	n    uint8
}

// memoIndex is the slot of bits: the sign, the low three exponent bits and
// the leading memoBits-4 mantissa bits, so the levels of one quantized
// tensor — k·scale over at most eight binades, 2⁻⁷ of a binade apart — fall
// into slots of their own. Zero, which ReLU outputs are half made of, alone
// takes the extra slot 1 << memoBits: (bits-1)>>63 in 64 bits is 1 for zero
// and 0 for every other pattern, so no branch depends on the value.
func memoIndex(bits uint32) uint32 {
	const low = memoBits - 1 // index bits below the sign, ending at bit 25
	i := bits>>(26-low)&(1<<low-1) | bits>>31<<low
	return i | uint32((uint64(bits)-1)>>63)<<memoBits
}

// appendFloats appends data, output id's, as encoding/json writes a
// []float32 that is not nil. A NaN or ±Inf, which JSON cannot carry, is an
// error; they are never memoized, so the check sits on the miss path only.
//
// The hit path takes no branch on the value: a reply's elements are levels
// and zeros in no predictable order, and a branch on which — zero or not,
// a one-byte text or a ten-byte one — mispredicts on about half of them.
// So zero is memoized like every other value, and a hit stores the slot's
// whole fixed-width text into spare capacity and then advances by its
// length, where append would dispatch on the length.
func (m *floatMemo) appendFloats(dst []byte, id string, data []float32) ([]byte, error) {
	dst = append(dst, '[')
	for j, f := range data {
		bits := math.Float32bits(f)
		s := &m.slots[memoIndex(bits)]
		if s.n == 0 || s.bits != bits {
			if bits&0x7F800000 == 0x7F800000 {
				return dst, fmt.Errorf("serving: output %s element %d is %v, which JSON cannot carry", id, j, f)
			}
			m.conversions++
			text := append(appendJSONFloat32(s.text[:0], f), ',')
			s.bits, s.n = bits, uint8(copy(s.text[:], text))
		}
		n := len(dst)
		if cap(dst)-n < memoText {
			dst = slices.Grow(dst, memoText)
		}
		*(*[memoText]byte)(dst[n : n+memoText]) = s.text
		dst = dst[:n+int(s.n)]
	}
	if len(data) > 0 {
		dst = dst[:len(dst)-1] // the last element's comma
	}
	return append(dst, ']'), nil
}

// appendJSONFloat32 is encoding/json's floatEncoder for 32 bits: ES6 number
// formatting, the cutoffs compared in float32, e-09 written e-9.
func appendJSONFloat32(dst []byte, f float32) []byte {
	format := byte('f')
	if abs := float32(math.Abs(float64(f))); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, float64(f), format, -1, 32)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// appendJSONString appends s as encoding/json writes a string (HTML escaping
// on, as Encoder defaults to). Plain ASCII is copied; anything json would
// escape or repair is handed to json.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendRunResponse appends the reply for resp and its trailing newline to
// dst. A NaN or ±Inf output is an error naming the output node.
func appendRunResponse(dst []byte, resp *RunResponse, m *floatMemo) (_ []byte, err error) {
	dst = append(dst, `{"model":`...)
	dst = appendJSONString(dst, resp.Model)
	dst = append(dst, `,"arch":`...)
	dst = appendJSONString(dst, resp.Arch)
	dst = append(dst, `,"outputs":`...)
	if resp.Outputs == nil {
		return append(dst, "null}\n"...), nil
	}
	ids := make([]string, 0, len(resp.Outputs))
	for id := range resp.Outputs {
		ids = append(ids, id)
	}
	slices.Sort(ids) // encoding/json's key order
	dst = append(dst, '{')
	for i, id := range ids {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, id)
		dst = append(dst, `:{"shape":`...)
		t := resp.Outputs[id]
		if t.Shape == nil {
			dst = append(dst, "null"...)
		} else {
			dst = append(dst, '[')
			for j, d := range t.Shape {
				if j > 0 {
					dst = append(dst, ',')
				}
				dst = strconv.AppendInt(dst, int64(d), 10)
			}
			dst = append(dst, ']')
		}
		dst = append(dst, `,"data":`...)
		if t.Data == nil {
			dst = append(dst, "null"...)
		} else if dst, err = m.appendFloats(dst, id, t.Data); err != nil {
			return dst, err
		}
		dst = append(dst, '}')
	}
	return append(dst, "}}\n"...), nil
}

// decodeRunRequest decodes a /v1/run body: the canonical grammar in one
// pass, anything else through encoding/json.
func decodeRunRequest(body []byte) (RunRequest, error) {
	if req, ok := parseRunRequest(body); ok {
		return req, nil
	}
	var req RunRequest
	err := json.Unmarshal(body, &req)
	return req, err
}

// parseRunRequest decodes the canonical grammar
//
//	{"model":s, "arch":s, "seed":n, "inputs":{id:{"shape":[n,...], "data":[x,...]}, ...}}
//
// — every member optional, in any order, JSON whitespace between tokens —
// into what json.Unmarshal would produce. It declines (ok false) everything
// else, valid or not: escapes and non-ASCII in strings, unknown or
// case-folded keys, duplicate keys, null for anything but a shape or data,
// numbers out of range for their field. The decoded value shares no memory
// with body.
func parseRunRequest(body []byte) (req RunRequest, ok bool) {
	p := wireParser{b: body}
	var model, arch, seed, inputs bool
	ok = p.object(func(key []byte) bool {
		switch string(key) {
		case "model":
			return first(&model) && p.str(&req.Model)
		case "arch":
			return first(&arch) && p.str(&req.Arch)
		case "seed":
			return first(&seed) && p.uint(&req.Seed)
		case "inputs":
			if !first(&inputs) {
				return false
			}
			req.Inputs = map[string]JSONTensor{}
			return p.object(func(id []byte) bool {
				_, dup := req.Inputs[string(id)]
				var t JSONTensor
				ok := !dup && p.tensor(&t)
				req.Inputs[string(id)] = t
				return ok
			})
		}
		return false
	})
	p.ws()
	return req, ok && p.i == len(body)
}

// first reports whether *seen was unset, and sets it: a member may appear
// once, since json.Unmarshal lets a repeat overwrite or merge.
func first(seen *bool) bool {
	was := *seen
	*seen = true
	return !was
}

// wireParser is a cursor over a request body. Its methods consume one
// construct of the canonical grammar and report false — leaving the cursor
// anywhere — on anything else.
type wireParser struct {
	b []byte
	i int
}

func (p *wireParser) ws() {
	for p.i < len(p.b) && (p.b[p.i] == ' ' || p.b[p.i] == '\n' || p.b[p.i] == '\t' || p.b[p.i] == '\r') {
		p.i++
	}
}

// eat consumes optional whitespace and then c, if c is next.
func (p *wireParser) eat(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// key consumes a string of printable ASCII without escapes and returns its
// bytes, which alias the body.
func (p *wireParser) key() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.i
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// str consumes a string value.
func (p *wireParser) str(dst *string) bool {
	s, ok := p.key()
	*dst = string(s)
	return ok
}

// object consumes {"key":value,...}, calling member with each key and the
// cursor at its value.
func (p *wireParser) object(member func(key []byte) bool) bool {
	if !p.eat('{') {
		return false
	}
	if p.eat('}') {
		return true
	}
	for {
		key, ok := p.key()
		if !ok || !p.eat(':') || !member(key) {
			return false
		}
		if p.eat('}') {
			return true
		}
		if !p.eat(',') {
			return false
		}
	}
}

// number consumes a JSON number, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?,
// and returns its text. What follows is the caller's to check, so "01" is a
// "0" here and fails at the "1".
func (p *wireParser) number() ([]byte, bool) {
	p.ws()
	start := p.i
	if p.i < len(p.b) && p.b[p.i] == '-' {
		p.i++
	}
	if p.i < len(p.b) && p.b[p.i] == '0' {
		p.i++
	} else if !p.digits() {
		return nil, false
	}
	if p.i < len(p.b) && p.b[p.i] == '.' {
		p.i++
		if !p.digits() {
			return nil, false
		}
	}
	if p.i < len(p.b) && (p.b[p.i] == 'e' || p.b[p.i] == 'E') {
		p.i++
		if p.i < len(p.b) && (p.b[p.i] == '+' || p.b[p.i] == '-') {
			p.i++
		}
		if !p.digits() {
			return nil, false
		}
	}
	return p.b[start:p.i], true
}

// digits consumes one or more decimal digits.
func (p *wireParser) digits() bool {
	start := p.i
	for p.i < len(p.b) && p.b[p.i]-'0' <= 9 {
		p.i++
	}
	return p.i > start
}

// uint consumes an integer that fits a uint64.
func (p *wireParser) uint(dst *uint64) bool {
	tok, ok := p.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseUint(string(tok), 10, 64) // fails on a sign, fraction or exponent, as json does
	*dst = n
	return err == nil
}

// tensor consumes {"shape":[...],"data":[...]}, either member optional.
func (p *wireParser) tensor(dst *JSONTensor) bool {
	var shape, data bool
	return p.object(func(key []byte) bool {
		switch string(key) {
		case "shape":
			return first(&shape) && p.ints(&dst.Shape)
		case "data":
			return first(&data) && p.floats(&dst.Data)
		}
		return false
	})
}

// array consumes [value,...], calling elem with the cursor at each value.
func (p *wireParser) array(elem func() bool) bool {
	if !p.eat('[') {
		return false
	}
	if p.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if p.eat(']') {
			return true
		}
		if !p.eat(',') {
			return false
		}
	}
}

// null consumes a null — what a client's nil shape or data marshals to, and
// json.Unmarshal leaves nil.
func (p *wireParser) null() bool {
	p.ws()
	if !bytes.HasPrefix(p.b[p.i:], []byte("null")) {
		return false
	}
	p.i += 4
	return true
}

// ints consumes null or an array of integers that fit an int. Like
// encoding/json it makes an empty, non-nil slice of [].
func (p *wireParser) ints(dst *[]int) bool {
	if p.null() {
		return true
	}
	*dst = []int{}
	return p.array(func() bool {
		tok, ok := p.number()
		n, err := strconv.Atoi(string(tok)) // fails on a fraction or exponent, as json does
		*dst = append(*dst, n)
		return ok && err == nil
	})
}

// floats consumes null or an array of numbers in float32 range, into a fresh
// slice sized by the commas before the closing bracket. Each element takes
// fastFloat's one pass when it can, number and strconv.ParseFloat when not.
func (p *wireParser) floats(dst *[]float32) bool {
	if p.null() {
		return true
	}
	end := bytes.IndexByte(p.b[p.i:], ']')
	if end < 0 {
		return false
	}
	out := make([]float32, 0, bytes.Count(p.b[p.i:p.i+end], []byte{','})+1)
	ok := p.array(func() bool {
		p.ws()
		if f, ok := p.fastFloat(); ok {
			out = append(out, f)
			return true
		}
		tok, ok := p.number()
		f, err := strconv.ParseFloat(string(tok), 32)
		out = append(out, float32(f))
		return ok && err == nil
	})
	*dst = out
	return ok
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// fastFloat consumes a number -?(0|[1-9][0-9]*)(\.[0-9]+)? with no exponent
// whose digits, the fraction's leading zeros aside, make an integer m ≤ 2⁵³,
// and returns what strconv.ParseFloat(text, 32) returns for it. It checks the
// grammar and accumulates m in the same pass. Anything else — and the rare
// number it cannot round alone — it declines, leaving the cursor where it
// was, for number and ParseFloat.
//
// m and 10^frac (frac ≤ 22) are both exact in a float64, so m/10^frac is the
// correctly rounded float64 of the decimal: zero, or a normal number from
// 1e-22 to 2⁵³. Rounding that again to float32 is rounding the decimal itself,
// since every float32 halfway point is a float64 and rounding is monotonic:
// the two can differ only when the float64 lands on a halfway point (its
// low 29 mantissa bits are 1 << 28), where the decimal may lie to either
// side. That case is declined.
func (p *wireParser) fastFloat() (float32, bool) {
	b, i := p.b, p.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var m uint64
	sig := 0 // significant digits in m
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i]-'1' <= 8:
		j := i
		i, m = accumulate(b, i, 0)
		sig = i - j
	default:
		return 0, false
	}
	frac := 0
	if i < len(b) && b[i] == '.' {
		i++
		j := i
		if m == 0 {
			for i < len(b) && b[i] == '0' {
				i++
			}
		}
		k := i
		i, m = accumulate(b, i, m)
		if i == j {
			return 0, false
		}
		frac, sig = i-j, sig+i-k
	}
	// 19 digits cannot overflow m; 2⁵³ is the last integer of a run a
	// float64 holds exactly.
	if sig > 19 || m > 1<<53 || frac >= len(pow10) || i < len(b) && b[i]|0x20 == 'e' {
		return 0, false
	}
	f := float64(m) / pow10[frac]
	if math.Float64bits(f)&(1<<29-1) == 1<<28 {
		return 0, false
	}
	if neg {
		f = -f
	}
	p.i = i
	return float32(f), true
}

// accumulate consumes the decimal digits at b[i:] into m.
func accumulate(b []byte, i int, m uint64) (int, uint64) {
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		m = m*10 + uint64(b[i]-'0')
	}
	return i, m
}
