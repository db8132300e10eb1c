package tensor

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"cimmlc/internal/arch"
)

func TestQuantRoundTripWithinScale(t *testing.T) {
	x := New(256)
	x.Rand(5, 3)
	q := CalibrateQuant(x, 8)
	vals, err := Quantize(x, q)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if d := math.Abs(float64(float32(v)*q.Scale - x.data[i])); d > float64(q.Scale)/2+1e-6 {
			t.Fatalf("element %d: quantization error %v exceeds half scale %v", i, d, q.Scale/2)
		}
	}
}

func TestQuantizeClamps(t *testing.T) {
	x := fromSlice(t, []float32{1000, -1000}, 2)
	q := QuantParams{Bits: 8, Scale: 1}
	vals, err := Quantize(x, q)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 127 || vals[1] != -127 {
		t.Fatalf("clamp failed: %v", vals)
	}
}

// TestQuantizeSaturatesNonFinite: what the quantizer cannot represent
// saturates toward its own sign, +Inf and 1e10 to +MaxQ; Go's float-to-int
// conversion would turn them into MinInt32, which the clamp made −MaxQ. A NaN
// has no level and is an error naming its index.
func TestQuantizeSaturatesNonFinite(t *testing.T) {
	inf := float32(math.Inf(1))
	q := QuantParams{Bits: 8, Scale: 0.0078}
	vals, err := Quantize(fromSlice(t, []float32{inf, -inf, 1e10, -1e10, 1, 3e9 * 0.0078}, 6), q)
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{127, -127, 127, -127, 127, 127}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("Quantize = %v, want %v", vals, want)
		}
	}
	_, err = Quantize(fromSlice(t, []float32{inf, -inf, float32(math.NaN()), 1e10, 1}, 5), q)
	if err == nil || !strings.Contains(err.Error(), "element 2 is NaN") {
		t.Fatalf("Quantize of a NaN: err %v, want element 2 named", err)
	}
}

// TestCalibrateQuantIgnoresNaN: calibration takes the largest magnitude of
// the non-NaN elements, whatever their signs.
func TestCalibrateQuantIgnoresNaN(t *testing.T) {
	nan := float32(math.NaN())
	for _, tc := range []struct {
		data []float32
		want float32
	}{
		{[]float32{nan, -2.54, 1}, 2.54 / 127},
		{[]float32{1, nan, float32(math.Copysign(0, -1)), -0.5}, 1.0 / 127},
		{[]float32{nan, nan}, 1},
		{[]float32{-3, nan, float32(math.Inf(-1))}, float32(math.Inf(1))},
	} {
		if q := CalibrateQuant(fromSlice(t, tc.data, len(tc.data)), 8); q.Scale != tc.want {
			t.Errorf("CalibrateQuant(%v) scale %g, want %g", tc.data, q.Scale, tc.want)
		}
	}
}

func TestQuantValidate(t *testing.T) {
	if err := (QuantParams{Bits: 0, Scale: 1}).Validate(); err == nil {
		t.Fatal("accepted 0 bits")
	}
	if err := (QuantParams{Bits: 8, Scale: 0}).Validate(); err == nil {
		t.Fatal("accepted 0 scale")
	}
	if err := (QuantParams{Bits: 8, Scale: float32(math.Inf(1))}).Validate(); err == nil {
		t.Fatal("accepted inf scale")
	}
	if err := (QuantParams{Bits: 8, Scale: 0.5}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCalibrateZeroTensor(t *testing.T) {
	q := CalibrateQuant(New(4), 8)
	if q.Scale != 1 {
		t.Fatalf("zero tensor scale = %v, want 1", q.Scale)
	}
}

// TestCalibrateQuantTinyTensors: whatever the tensor's magnitude, calibration
// yields a quantizer that validates — an all-zero tensor scale 1, a subnormal
// max-abs (whose quotient by MaxQ underflows) the smallest positive float32 —
// and a normal max-abs keeps its plain quotient.
func TestCalibrateQuantTinyTensors(t *testing.T) {
	smallestNormal := float32(math.Float32frombits(0x00800000))
	for _, tc := range []struct {
		name string
		data []float32
		want float32
	}{
		{"all-zero", []float32{0, 0, 0, 0}, 1},
		{"subnormal", []float32{9.8e-45, -2.8e-45}, math.SmallestNonzeroFloat32},
		{"negative-subnormal", []float32{0, -2.8e-45}, math.SmallestNonzeroFloat32},
		{"smallest-normal", []float32{smallestNormal, 0}, smallestNormal / 127},
		{"one", []float32{-1, 0.5}, 1.0 / 127},
	} {
		q := CalibrateQuant(fromSlice(t, tc.data, len(tc.data)), 8)
		if err := q.Validate(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if q.Scale != tc.want {
			t.Errorf("%s: scale %g, want %g", tc.name, q.Scale, tc.want)
		}
		if _, err := Quantize(fromSlice(t, tc.data, len(tc.data)), q); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// bitSlice decomposes a quantized value into sliceCount(bits, cellBits)
// unsigned slices of cellBits each, least-significant first, using two's
// complement over bits for negatives: how a CIM macro spreads an n-bit weight
// over cells of lower precision (Figure 7's B→XBC binding). With
// fromBitSlices it is the model the tests below hold the simulator to: their
// round trip is the identity, so funcsim may store a crossbar as the weights
// its cells hold, and arch.CellsPerWeight counts the same slices.
func bitSlice(v int32, bits, cellBits int) []uint32 {
	out := make([]uint32, sliceCount(bits, cellBits))
	u := uint32(v) & ((1 << uint(bits)) - 1) // two's complement truncation
	mask := uint32(1<<uint(cellBits)) - 1
	for i := range out {
		out[i] = u & mask
		u >>= uint(cellBits)
	}
	return out
}

// sliceCount returns ceil(bits/cellBits).
func sliceCount(bits, cellBits int) int {
	return (bits + cellBits - 1) / cellBits
}

// fromBitSlices reassembles a two's-complement value of bits width from its
// slices (the inverse of bitSlice).
func fromBitSlices(slices []uint32, bits, cellBits int) int32 {
	var u uint32
	for i := len(slices) - 1; i >= 0; i-- {
		u = (u << uint(cellBits)) | (slices[i] & ((1 << uint(cellBits)) - 1))
	}
	u &= (1 << uint(bits)) - 1
	// Sign-extend.
	if u&(1<<uint(bits-1)) != 0 {
		u |= ^uint32(0) << uint(bits)
	}
	return int32(u)
}

func TestBitSliceKnownValues(t *testing.T) {
	// 8-bit value 0b01011010 = 90 in 2-bit cells: 10,10,01,01 LSB first = 2,2,1,1.
	got := bitSlice(90, 8, 2)
	want := []uint32{2, 2, 1, 1}
	if len(got) != 4 {
		t.Fatalf("slice count = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bitSlice(90) = %v, want %v", got, want)
		}
	}
}

func TestBitSliceNegativeTwosComplement(t *testing.T) {
	// -1 in 8 bits is 0xFF; all 2-bit slices are 3.
	got := bitSlice(-1, 8, 2)
	for _, s := range got {
		if s != 3 {
			t.Fatalf("bitSlice(-1) = %v", got)
		}
	}
}

func TestSliceCount(t *testing.T) {
	cases := []struct{ bits, cell, want int }{
		{8, 2, 4}, {8, 1, 8}, {8, 3, 3}, {8, 8, 1}, {1, 1, 1},
	}
	for _, c := range cases {
		if got := sliceCount(c.bits, c.cell); got != c.want {
			t.Fatalf("sliceCount(%d,%d) = %d, want %d", c.bits, c.cell, got, c.want)
		}
	}
}

func TestSliceCountPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("sliceCount(8,0) did not panic")
		}
	}()
	sliceCount(8, 0)
}

// BitSlice followed by FromBitSlices is the identity on every value of the
// signed weight range, for every preset's weight and cell precision and for
// 8-bit weights in 1/2/3/4/8-bit cells (3 leaves a partial top slice): the
// functional simulator stores a programmed crossbar as the weights its cells
// hold, not the cells, and this is what makes the two the same.
func TestBitSliceRoundTripProperty(t *testing.T) {
	type pair struct {
		name            string
		bits, cell, cpw int // cpw: cells per weight, 0 when no preset fixes it
	}
	var pairs []pair
	for _, name := range arch.PresetNames() {
		a, err := arch.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, pair{name, a.WeightBits, a.XB.CellBits, a.CellsPerWeight()})
	}
	for _, cell := range []int{1, 2, 3, 4, 8} {
		pairs = append(pairs, pair{"8-bit", 8, cell, 0})
	}
	for _, p := range pairs {
		bits, cell := p.bits, p.cell
		for v := -int32(1) << (bits - 1); v < int32(1)<<(bits-1); v++ {
			slices := bitSlice(v, bits, cell)
			if len(slices) != sliceCount(bits, cell) || (p.cpw != 0 && len(slices) != p.cpw) {
				t.Fatalf("%s: bitSlice(%d, %d, %d) gives %d slices, want %d (%d cells per weight)", p.name, v, bits, cell, len(slices), sliceCount(bits, cell), p.cpw)
			}
			if got := fromBitSlices(slices, bits, cell); got != v {
				t.Fatalf("%s: %d-bit %d in %d-bit cells reassembles to %d", p.name, v, bits, cell, got)
			}
		}
	}
}

// Property: a bit-sliced dot product recombined with shift-add equals the
// plain integer dot product. This is the arithmetic identity that makes
// crossbar bit-slicing (Figure 7) correct, so the functional simulator leans
// on it heavily.
func TestBitSlicedDotProductProperty(t *testing.T) {
	f := func(seed uint32) bool {
		n := int(seed%16) + 1
		cell := []int{1, 2, 4}[int(seed)%3]
		s := uint64(seed) + 1
		next := func() int32 {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			return int32(s%255) - 127
		}
		w := make([]int32, n)
		x := make([]int32, n)
		for i := range w {
			w[i] = next()
			x[i] = next()
		}
		// Plain dot product.
		var want int64
		for i := range w {
			want += int64(w[i]) * int64(x[i])
		}
		// Bit-sliced: weight slice s contributes (dot of slice) << (s*cell),
		// with a two's-complement correction for the sign slice handled by
		// recombining per-element instead: reconstruct each weight from its
		// slices and verify dot equality.
		var got int64
		for i := range w {
			slices := bitSlice(w[i], 8, cell)
			rec := fromBitSlices(slices, 8, cell)
			got += int64(rec) * int64(x[i])
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
