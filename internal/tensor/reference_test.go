package tensor

import (
	"fmt"
	"math"
	"testing"
)

// The reference kernels reorder their loops for speed but must sum every
// output on the same operands in the same order as the plain per-output loop
// nests below, so each float32 add is the same add and the outputs are equal
// bit for bit: the float golden model, the calibration it feeds and the
// conformance goldens all rest on that. These nests are the oracles.

// naiveConv2D is Conv2D as one loop nest per output: bias, then in·w over
// (ic, ky, kx) ascending, padding taps skipped.
func naiveConv2D(in, weights, bias *Tensor, p ConvParams) *Tensor {
	inC, h, w := in.shape[0], in.shape[1], in.shape[2]
	outC, kh, kw := weights.shape[0], weights.shape[2], weights.shape[3]
	outH := (h+2*p.Padding-kh)/p.Stride + 1
	outW := (w+2*p.Padding-kw)/p.Stride + 1
	out := New(outC, outH, outW)
	for oc := 0; oc < outC; oc++ {
		var b float32
		if bias != nil {
			b = bias.data[oc]
		}
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				sum := b
				for ic := 0; ic < inC; ic++ {
					for ky := 0; ky < kh; ky++ {
						iy := oy*p.Stride + ky - p.Padding
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < kw; kx++ {
							ix := ox*p.Stride + kx - p.Padding
							if ix < 0 || ix >= w {
								continue
							}
							sum += in.data[(ic*h+iy)*w+ix] * weights.data[((oc*inC+ic)*kh+ky)*kw+kx]
						}
					}
				}
				out.data[(oc*outH+oy)*outW+ox] = sum
			}
		}
	}
	return out
}

// naiveMatVec computes y = M·x one dot product per row, from zero, j
// ascending.
func naiveMatVec(m, x *Tensor) *Tensor {
	rows, cols := m.shape[0], m.shape[1]
	y := New(rows)
	for i := 0; i < rows; i++ {
		sum := float32(0)
		row := m.data[i*cols : (i+1)*cols]
		for j := 0; j < cols; j++ {
			sum += row[j] * x.data[j]
		}
		y.data[i] = sum
	}
	return y
}

// naiveVecMat is VecMat as the dense layer computed it before: MatVec of the
// transposed weights.
func naiveVecMat(x, w *Tensor) *Tensor {
	wt, err := Transpose2D(w)
	if err != nil {
		panic(err)
	}
	return naiveMatVec(wt, x)
}

// sameBits reports the first index where got and want differ as float32 bit
// patterns, NaN matching any NaN, or -1 when they agree everywhere.
func sameBits(got, want *Tensor) int {
	if !SameShape(got, want) {
		return 0
	}
	for i, g := range got.data {
		w := want.data[i]
		if g != g && w != w {
			continue
		}
		if math.Float32bits(g) != math.Float32bits(w) {
			return i
		}
	}
	return -1
}

// specials is a tiny deterministic generator of kernel operands: ordinary
// values in [-4, 4] mixed, with probability rate/256 per element, with ±0,
// ±Inf, NaN, subnormals and values large enough to overflow a sum.
type specials struct {
	s    uint64
	rate uint8
}

func (g *specials) next() uint64 {
	g.s ^= g.s << 13
	g.s ^= g.s >> 7
	g.s ^= g.s << 17
	return g.s
}

func (g *specials) value() float32 {
	r := g.next()
	if uint8(r) >= g.rate {
		return float32(int64(r>>11)%8001-4000) / 1000
	}
	sign := uint32(r>>8&1) << 31
	switch r >> 9 % 5 {
	case 0:
		return math.Float32frombits(sign) // ±0
	case 1:
		return math.Float32frombits(sign | 0x7f800000) // ±Inf
	case 2:
		return float32(math.NaN())
	case 3:
		return math.Float32frombits(sign | uint32(r>>12)&0x007fffff | 1) // subnormal
	default:
		return math.Float32frombits(sign | 0x7e800000 | uint32(r>>12)&0x007fffff) // ≈ 1e38
	}
}

func (g *specials) fill(t *Tensor) *Tensor {
	for i := range t.data {
		t.data[i] = g.value()
	}
	return t
}

// checkReferenceKernels runs Conv2D and VecMat on one generated case and
// compares them bit for bit with their naive nests.
func checkReferenceKernels(t *testing.T, seed uint64, rate, inC, h, w, outC, kh, kw, stride, pad uint8, withBias bool) {
	g := &specials{s: seed | 1, rate: rate}
	ic, ih, iw := int(inC%4)+1, int(h%9)+1, int(w%9)+1
	oc, kH, kW := int(outC%4)+1, int(kh%5)+1, int(kw%5)+1
	p := ConvParams{Stride: int(stride%3) + 1, Padding: int(pad % 3)}
	in := g.fill(New(ic, ih, iw))
	wt := g.fill(New(oc, ic, kH, kW))
	var bias *Tensor
	if withBias {
		bias = g.fill(New(oc))
	}
	name := fmt.Sprintf("conv in %v w %v stride %d pad %d bias %v", in.shape, wt.shape, p.Stride, p.Padding, withBias)
	got, err := Conv2D(in, wt, bias, p)
	if empty := (ih+2*p.Padding-kH)/p.Stride+1 <= 0 || (iw+2*p.Padding-kW)/p.Stride+1 <= 0; empty {
		if err == nil {
			t.Fatalf("%s: empty output accepted", name)
		}
	} else if err != nil {
		t.Fatalf("%s: %v", name, err)
	} else if want := naiveConv2D(in, wt, bias, p); !SameShape(got, want) {
		t.Fatalf("%s: shape %v, want %v", name, got.shape, want.shape)
	} else if i := sameBits(got, want); i >= 0 {
		t.Fatalf("%s: element %d is %v (%#x), the naive nest gives %v (%#x)", name, i, got.data[i], math.Float32bits(got.data[i]), want.data[i], math.Float32bits(want.data[i]))
	}

	// The dense layer: the flattened input against a [n, outC·kH] matrix.
	x := in.Clone()
	x.shape = []int{in.Len()}
	mat := g.fill(New(in.Len(), oc*kH))
	y, err := VecMat(x, mat)
	if err != nil {
		t.Fatal(err)
	}
	if want := naiveVecMat(x, mat); !SameShape(y, want) {
		t.Fatalf("VecMat %v×%v: shape %v, want %v", x.shape, mat.shape, y.shape, want.shape)
	} else if i := sameBits(y, want); i >= 0 {
		t.Fatalf("VecMat %v×%v: element %d is %v, the naive nest gives %v", x.shape, mat.shape, i, y.data[i], want.data[i])
	}
}

// TestReferenceKernelsMatchNaive walks a grid of the fuzz target's shapes:
// every stride and padding, kernels larger than the padded input, special
// values dense and absent.
func TestReferenceKernelsMatchNaive(t *testing.T) {
	seed := uint64(1)
	for _, rate := range []uint8{0, 16, 128} {
		for kh := uint8(0); kh < 5; kh += 2 {
			for stride := uint8(0); stride < 3; stride++ {
				for pad := uint8(0); pad < 3; pad++ {
					for _, bias := range []bool{false, true} {
						seed++
						checkReferenceKernels(t, seed, rate, uint8(seed), 4, 6, uint8(seed>>1), kh, 4-kh, stride, pad, bias)
					}
				}
			}
		}
	}
}

// FuzzReferenceKernels holds Conv2D and VecMat to their naive loop nests bit
// for bit over random shapes, stride 1–3, padding 0–2 (padding at or beyond
// the kernel included), with and without bias, on operands holding ±0, ±Inf,
// NaN and subnormals.
func FuzzReferenceKernels(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(2), uint8(7), uint8(7), uint8(3), uint8(2), uint8(2), uint8(0), uint8(1), true)
	f.Add(uint64(2), uint8(40), uint8(0), uint8(3), uint8(8), uint8(1), uint8(0), uint8(4), uint8(2), uint8(2), false)
	f.Add(uint64(3), uint8(255), uint8(3), uint8(0), uint8(0), uint8(0), uint8(4), uint8(4), uint8(1), uint8(2), true)
	f.Fuzz(func(t *testing.T, seed uint64, rate, inC, h, w, outC, kh, kw, stride, pad uint8, withBias bool) {
		checkReferenceKernels(t, seed, rate, inC, h, w, outC, kh, kw, stride, pad, withBias)
	})
}

// TestVecMatAgainstMatMul: VecMat is the naive MatVec of the transposed
// matrix bit for bit, and the row vector times the matrix as MatMul computes
// it up to rounding.
func TestVecMatAgainstMatMul(t *testing.T) {
	w := New(7, 5)
	w.Rand(1, 1)
	x := New(7)
	x.Rand(2, 1)
	y, err := VecMat(x, w)
	if err != nil {
		t.Fatal(err)
	}
	if i := sameBits(y, naiveVecMat(x, w)); i >= 0 {
		t.Fatalf("VecMat element %d differs from the transposed MatVec", i)
	}
	xm, _ := x.Reshape(1, 7)
	ym, err := MatMul(xm, w)
	if err != nil {
		t.Fatal(err)
	}
	yv, _ := ym.Reshape(5)
	if !AllClose(y, yv, 1e-5) {
		t.Fatal("VecMat disagrees with MatMul")
	}
	if _, err := VecMat(New(6), w); err == nil {
		t.Fatal("VecMat accepted a dimension mismatch")
	}
	if _, err := VecMat(w, w); err == nil {
		t.Fatal("VecMat accepted a rank-2 vector")
	}
}
