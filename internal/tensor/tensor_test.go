package tensor

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// fromSlice is FromSlice for literals: a shape error fails the test.
func fromSlice(tb testing.TB, data []float32, shape ...int) *Tensor {
	tb.Helper()
	x, err := FromSlice(data, shape...)
	if err != nil {
		tb.Fatal(err)
	}
	return x
}

// at returns the element of x at a row-major multi-index.
func at(x *Tensor, idx ...int) float32 { return x.data[offset(x, idx)] }

// set stores v at a row-major multi-index of x.
func set(x *Tensor, v float32, idx ...int) { x.data[offset(x, idx)] = v }

// offset flattens a multi-index, panicking on a rank or bounds violation as
// slice indexing does.
func offset(x *Tensor, idx []int) int {
	if len(idx) != len(x.shape) {
		panic(fmt.Sprintf("index rank %d does not match tensor rank %d", len(idx), len(x.shape)))
	}
	off := 0
	for i, v := range idx {
		if v < 0 || v >= x.shape[i] {
			panic(fmt.Sprintf("index %v out of range for shape %v", idx, x.shape))
		}
		off = off*x.shape[i] + v
	}
	return off
}

// ramp fills x with 0, 1, 2, … times scale: deterministic test data.
func ramp(x *Tensor, scale float32) {
	for i := range x.data {
		x.data[i] = float32(i) * scale
	}
}

func TestNewShapeAndLen(t *testing.T) {
	tt := New(2, 3, 4)
	if tt.Len() != 24 {
		t.Fatalf("Len = %d, want 24", tt.Len())
	}
	if tt.Rank() != 3 {
		t.Fatalf("Rank = %d, want 3", tt.Rank())
	}
	if tt.Dim(1) != 3 {
		t.Fatalf("Dim(1) = %d, want 3", tt.Dim(1))
	}
}

func TestNewScalar(t *testing.T) {
	s := New()
	if s.Len() != 1 || s.Rank() != 0 {
		t.Fatalf("scalar tensor: len=%d rank=%d", s.Len(), s.Rank())
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with negative dim did not panic")
		}
	}()
	New(2, -1)
}

func TestFromSliceValidation(t *testing.T) {
	if _, err := FromSlice([]float32{1, 2, 3}, 2, 2); err == nil {
		t.Fatal("FromSlice accepted mismatched length")
	}
	got, err := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if at(got, 1, 0) != 3 {
		t.Fatalf("At(1,0) = %v, want 3", at(got, 1, 0))
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	tt := New(3, 4)
	set(tt, 7.5, 2, 1)
	if got := at(tt, 2, 1); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	// Row-major layout: offset 2*4+1 = 9.
	if tt.Data()[9] != 7.5 {
		t.Fatalf("row-major offset wrong: %v", tt.Data())
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	tt := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range At did not panic")
		}
	}()
	at(tt, 2, 0)
}

func TestReshape(t *testing.T) {
	tt := New(2, 6)
	ramp(tt, 1)
	r, err := tt.Reshape(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if at(r, 2, 3) != 11 {
		t.Fatalf("reshaped At(2,3) = %v, want 11", at(r, 2, 3))
	}
	if _, err := tt.Reshape(5, 5); err == nil {
		t.Fatal("Reshape accepted mismatched element count")
	}
	// Reshape is a view: mutation is shared.
	set(r, 99, 0, 0)
	if at(tt, 0, 0) != 99 {
		t.Fatal("Reshape did not share storage")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := fromSlice(t, []float32{1, 1, 1, 1}, 4)
	b := a.Clone()
	set(b, 5, 2)
	if at(a, 2) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestMaxAbsDiffAndAllClose(t *testing.T) {
	a := fromSlice(t, []float32{1, 2, 3}, 3)
	b := fromSlice(t, []float32{1, 2.5, 3}, 3)
	d, err := MaxAbsDiff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-0.5) > 1e-9 {
		t.Fatalf("MaxAbsDiff = %v, want 0.5", d)
	}
	if !AllClose(a, b, 0.5) || AllClose(a, b, 0.4) {
		t.Fatal("AllClose tolerance behaviour wrong")
	}
	c := New(4)
	if _, err := MaxAbsDiff(a, c); err == nil {
		t.Fatal("MaxAbsDiff accepted mismatched shapes")
	}
}

// TestMaxAbsDiffNaN: a NaN on one side only is an infinite difference, so
// no tolerance accepts it; NaN on both sides, or the same infinity on both,
// is no difference.
func TestMaxAbsDiffNaN(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for _, tc := range []struct {
		a, b []float32
		want float64
	}{
		{[]float32{nan, 1}, []float32{0, 1}, math.Inf(1)},
		{[]float32{1, 2}, []float32{1, nan}, math.Inf(1)},
		{[]float32{nan, 1}, []float32{nan, 1.5}, 0.5},
		{[]float32{inf, -inf}, []float32{inf, -inf}, 0},
		{[]float32{inf, 0}, []float32{-inf, 0}, math.Inf(1)},
	} {
		d, err := MaxAbsDiff(fromSlice(t, tc.a, 2), fromSlice(t, tc.b, 2))
		if err != nil {
			t.Fatal(err)
		}
		if d != tc.want {
			t.Errorf("MaxAbsDiff(%v, %v) = %v, want %v", tc.a, tc.b, d, tc.want)
		}
	}
	if AllClose(fromSlice(t, []float32{nan}, 1), fromSlice(t, []float32{0}, 1), math.MaxFloat64) {
		t.Error("AllClose accepted a one-sided NaN")
	}
}

func TestFirstNonFinite(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for _, tc := range []struct {
		data []float32
		want int
	}{
		{[]float32{0, math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32}, -1},
		{[]float32{1, 2, nan, inf}, 2},
		{[]float32{-inf, 0, 0, 0}, 0},
		{[]float32{0, 0, 0, inf}, 3},
	} {
		if got := FirstNonFinite(fromSlice(t, tc.data, len(tc.data))); got != tc.want {
			t.Errorf("FirstNonFinite(%v) = %d, want %d", tc.data, got, tc.want)
		}
	}
}

func TestRandDeterministicAndBounded(t *testing.T) {
	a := New(1000)
	b := New(1000)
	a.Rand(42, 2)
	b.Rand(42, 2)
	if !AllClose(a, b, 0) {
		t.Fatal("Rand with same seed diverged")
	}
	for _, v := range a.Data() {
		if v < -2 || v > 2 {
			t.Fatalf("Rand value %v outside bound", v)
		}
	}
	c := New(1000)
	c.Rand(43, 2)
	if AllClose(a, c, 0) {
		t.Fatal("Rand with different seeds identical")
	}
}

func TestRandZeroSeed(t *testing.T) {
	a := New(8)
	a.Rand(0, 1) // must not loop forever or produce all zeros
	nonzero := false
	for _, v := range a.Data() {
		if v != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("Rand(0) produced all zeros")
	}
}

func TestSameShapeProperty(t *testing.T) {
	f := func(dims []uint8) bool {
		if len(dims) > 4 {
			dims = dims[:4]
		}
		shape := make([]int, len(dims))
		n := 1
		for i, d := range dims {
			shape[i] = int(d%3) + 1
			n *= shape[i]
		}
		if n > 1<<12 {
			return true
		}
		a := New(shape...)
		b := New(shape...)
		return SameShape(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringForms(t *testing.T) {
	small := fromSlice(t, []float32{1, 2}, 2)
	if small.String() == "" {
		t.Fatal("empty String for small tensor")
	}
	big := New(100)
	if big.String() == "" {
		t.Fatal("empty String for big tensor")
	}
}
