// Package tensor provides a small dense tensor library used as the numeric
// substrate of the CIM-MLC reproduction.
//
// It supplies the reference (non-CIM) implementations of the DNN operators
// that the compiler schedules: convolution, matrix multiplication, pooling,
// activation functions and normalization. The functional simulator
// (internal/funcsim) checks the compiled meta-operator flows against these
// kernels, playing the role the PyTorch golden model plays in the paper.
//
// Tensors are row-major float32 with an explicit shape. The package is
// deliberately free of external dependencies and of any CIM-specific notion;
// it is plain, well-tested numerics.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major float32 tensor.
type Tensor struct {
	shape []int
	data  []float32
}

// New returns a zero tensor with the given shape. It panics if any dimension
// is negative; a zero-dimensional tensor holds a single scalar.
//
//cimlint:ignore libpanic -- mirrors the built-in make([]T, n) contract
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The data slice is used
// directly (not copied); it must have exactly the number of elements the
// shape implies.
func FromSlice(data []float32, shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		if d < 0 {
			return nil, fmt.Errorf("tensor: negative dimension %d in shape %v", d, shape)
		}
		n *= d
	}
	if len(data) != n {
		return nil, fmt.Errorf("tensor: data length %d does not match shape %v (want %d)", len(data), shape, n)
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: data}, nil
}

// Shape returns the tensor's shape. The returned slice must not be modified.
func (t *Tensor) Shape() []int { return t.shape }

// Data returns the backing slice in row-major order. Mutations are visible to
// the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a view with a new shape covering the same data. The total
// element count must be preserved.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		return nil, fmt.Errorf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.data), shape, n)
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: t.data}, nil
}

// SameShape reports whether two tensors have identical shapes.
func SameShape(a, b *Tensor) bool {
	if a.Rank() != b.Rank() {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the maximum elementwise absolute difference between two
// same-shaped tensors. A position that is NaN on exactly one side differs
// infinitely; one that is NaN on both sides, or the same infinity on both,
// does not differ.
func MaxAbsDiff(a, b *Tensor) (float64, error) {
	if !SameShape(a, b) {
		return 0, fmt.Errorf("tensor: shape mismatch %v vs %v", a.shape, b.shape)
	}
	maxDiff := 0.0
	for i, av := range a.data {
		bv := b.data[i]
		if (av != av) != (bv != bv) {
			return math.Inf(1), nil
		}
		d := math.Abs(float64(av) - float64(bv))
		if d > maxDiff {
			maxDiff = d
		}
	}
	return maxDiff, nil
}

// FirstNonFinite returns the index of t's first NaN or ±Inf element, or -1
// when every element is finite.
func FirstNonFinite(t *Tensor) int {
	const exp = 0x7f800000 // all exponent bits set: an infinity or a NaN
	for i, v := range t.data {
		if math.Float32bits(v)&exp == exp {
			return i
		}
	}
	return -1
}

// AllClose reports whether all elements of a and b differ by at most tol.
func AllClose(a, b *Tensor, tol float64) bool {
	d, err := MaxAbsDiff(a, b)
	return err == nil && d <= tol
}

// Rand fills the tensor with a deterministic pseudo-random sequence in
// [-bound, bound] derived from seed. A tiny xorshift generator keeps the
// package dependency-free and reproducible across platforms.
func (t *Tensor) Rand(seed uint64, bound float32) {
	s := seed
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	for i := range t.data {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		// Map to [-1, 1).
		u := float64(s>>11) / float64(1<<53)
		t.data[i] = float32(2*u-1) * bound
	}
}

func (t *Tensor) String() string {
	if len(t.data) <= 16 {
		return fmt.Sprintf("Tensor%v%v", t.shape, t.data)
	}
	return fmt.Sprintf("Tensor%v[%d elems]", t.shape, len(t.data))
}
