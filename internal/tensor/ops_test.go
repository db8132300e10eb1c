package tensor

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestMatMulSmall(t *testing.T) {
	a := fromSlice(t, []float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := fromSlice(t, []float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := fromSlice(t, []float32{58, 64, 139, 154}, 2, 2)
	if !AllClose(c, want, 1e-6) {
		t.Fatalf("MatMul = %v, want %v", c, want)
	}
}

func TestMatMulShapeErrors(t *testing.T) {
	a := New(2, 3)
	b := New(4, 2)
	if _, err := MatMul(a, b); err == nil {
		t.Fatal("MatMul accepted inner dimension mismatch")
	}
	if _, err := MatMul(New(2), b); err == nil {
		t.Fatal("MatMul accepted rank-1 operand")
	}
}

func TestConv2DIdentityKernel(t *testing.T) {
	in := New(1, 3, 3)
	ramp(in, 1)
	w := New(1, 1, 1, 1)
	set(w, 1, 0, 0, 0, 0)
	out, err := Conv2D(in, w, nil, ConvParams{Stride: 1, Padding: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !AllClose(out, in, 0) {
		t.Fatal("1x1 identity convolution changed the input")
	}
}

func TestConv2DKnownValues(t *testing.T) {
	// 2x2 input, 2x2 kernel of ones => single output = sum of inputs.
	in := fromSlice(t, []float32{1, 2, 3, 4}, 1, 2, 2)
	w := fromSlice(t, []float32{1, 1, 1, 1}, 1, 1, 2, 2)
	out, err := Conv2D(in, w, nil, ConvParams{Stride: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || out.Data()[0] != 10 {
		t.Fatalf("conv output = %v, want [10]", out.Data())
	}
}

func TestConv2DPaddingShape(t *testing.T) {
	in := New(3, 32, 32)
	w := New(8, 3, 3, 3)
	out, err := Conv2D(in, w, nil, ConvParams{Stride: 1, Padding: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Dim(0) != 8 || out.Dim(1) != 32 || out.Dim(2) != 32 {
		t.Fatalf("same-padding conv output shape %v, want [8 32 32]", out.Shape())
	}
}

func TestConv2DStride2Shape(t *testing.T) {
	in := New(3, 224, 224)
	w := New(64, 3, 7, 7)
	out, err := Conv2D(in, w, nil, ConvParams{Stride: 2, Padding: 3})
	if err != nil {
		t.Fatal(err)
	}
	if out.Dim(1) != 112 || out.Dim(2) != 112 {
		t.Fatalf("ResNet stem conv output %v, want 112x112", out.Shape())
	}
}

func TestConv2DBias(t *testing.T) {
	in := New(1, 2, 2)
	w := New(2, 1, 1, 1)
	bias := fromSlice(t, []float32{1, -2}, 2)
	out, err := Conv2D(in, w, bias, ConvParams{Stride: 1})
	if err != nil {
		t.Fatal(err)
	}
	if at(out, 0, 0, 0) != 1 || at(out, 1, 1, 1) != -2 {
		t.Fatalf("bias not applied: %v", out.Data())
	}
}

func TestConv2DErrors(t *testing.T) {
	if _, err := Conv2D(New(3, 3), New(1, 1, 1, 1), nil, ConvParams{Stride: 1}); err == nil {
		t.Fatal("accepted rank-2 input")
	}
	if _, err := Conv2D(New(2, 3, 3), New(1, 1, 1, 1), nil, ConvParams{Stride: 1}); err == nil {
		t.Fatal("accepted channel mismatch")
	}
	if _, err := Conv2D(New(1, 3, 3), New(1, 1, 1, 1), nil, ConvParams{Stride: 0}); err == nil {
		t.Fatal("accepted zero stride")
	}
	if _, err := Conv2D(New(1, 2, 2), New(1, 1, 5, 5), nil, ConvParams{Stride: 1}); err == nil {
		t.Fatal("accepted kernel larger than padded input")
	}
	if _, err := Conv2D(New(1, 3, 3), New(1, 1, 1, 1), New(3), ConvParams{Stride: 1}); err == nil {
		t.Fatal("accepted wrong bias shape")
	}
}

// TestIm2ColLowering holds the identity behind mapping a convolution onto
// crossbars: conv(in, w) == im2col(in) · WeightsAsMatrix(w).
func TestIm2ColLowering(t *testing.T) {
	cases := []struct {
		inC, h, w, outC, k, stride, pad int
	}{
		{1, 5, 5, 1, 3, 1, 0},
		{3, 8, 8, 4, 3, 1, 1},
		{2, 7, 9, 3, 3, 2, 1},
		{4, 6, 6, 2, 1, 1, 0},
		{3, 32, 32, 8, 5, 2, 2},
	}
	for _, c := range cases {
		in := New(c.inC, c.h, c.w)
		in.Rand(uint64(c.h*c.w+c.k), 1)
		w := New(c.outC, c.inC, c.k, c.k)
		w.Rand(uint64(c.outC*c.k), 1)
		p := ConvParams{Stride: c.stride, Padding: c.pad}

		direct, err := Conv2D(in, w, nil, p)
		if err != nil {
			t.Fatal(err)
		}
		cols, err := im2col(in, c.k, c.k, p)
		if err != nil {
			t.Fatal(err)
		}
		wm, err := WeightsAsMatrix(w)
		if err != nil {
			t.Fatal(err)
		}
		prod, err := MatMul(cols, wm) // [windows, outC]
		if err != nil {
			t.Fatal(err)
		}
		// direct is [outC, outH, outW]; prod is [outH*outW, outC].
		outH, outW := direct.Dim(1), direct.Dim(2)
		for oc := 0; oc < c.outC; oc++ {
			for i := 0; i < outH*outW; i++ {
				want := direct.Data()[oc*outH*outW+i]
				got := prod.Data()[i*c.outC+oc]
				if math.Abs(float64(want-got)) > 1e-4 {
					t.Fatalf("case %+v: mismatch at oc=%d i=%d: direct %v vs lowered %v", c, oc, i, want, got)
				}
			}
		}
	}
}

// im2col is TestIm2ColLowering's oracle: it lowers input [inC,h,w] into the
// matrix of convolution windows, shape [outH*outW, inC*kH*kW], whose columns
// follow WeightsAsMatrix's rows, so that Conv2D(in,w) is im2col(in) ·
// WeightsAsMatrix(w) up to a transpose of the result.
func im2col(in *Tensor, kh, kw int, p ConvParams) (*Tensor, error) {
	if in.Rank() != 3 {
		return nil, fmt.Errorf("im2col input must be [C,H,W], got %v", in.shape)
	}
	inC, h, w := in.shape[0], in.shape[1], in.shape[2]
	outH := (h+2*p.Padding-kh)/p.Stride + 1
	outW := (w+2*p.Padding-kw)/p.Stride + 1
	if outH <= 0 || outW <= 0 {
		return nil, fmt.Errorf("im2col produces empty output")
	}
	cols := inC * kh * kw
	m := New(outH*outW, cols)
	row := 0
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			base := row * cols
			col := 0
			for ic := 0; ic < inC; ic++ {
				for ky := 0; ky < kh; ky++ {
					iy := oy*p.Stride + ky - p.Padding
					for kx := 0; kx < kw; kx++ {
						ix := ox*p.Stride + kx - p.Padding
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							m.data[base+col] = in.data[(ic*h+iy)*w+ix]
						}
						col++
					}
				}
			}
			row++
		}
	}
	return m, nil
}

func TestReLU(t *testing.T) {
	in := fromSlice(t, []float32{-1, 0, 2, -3.5}, 4)
	out := ReLU(in)
	want := fromSlice(t, []float32{0, 0, 2, 0}, 4)
	if !AllClose(out, want, 0) {
		t.Fatalf("ReLU = %v", out.Data())
	}
	if in.Data()[0] != -1 {
		t.Fatal("ReLU mutated its input")
	}
}

func TestAdd(t *testing.T) {
	a := fromSlice(t, []float32{1, 2}, 2)
	b := fromSlice(t, []float32{3, 4}, 2)
	c, err := Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if at(c, 1) != 6 {
		t.Fatalf("Add = %v", c.Data())
	}
	if _, err := Add(a, New(3)); err == nil {
		t.Fatal("Add accepted shape mismatch")
	}
}

func TestMaxPool2D(t *testing.T) {
	in := fromSlice(t, []float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 4, 4)
	out, err := MaxPool2D(in, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := fromSlice(t, []float32{6, 8, 14, 16}, 1, 2, 2)
	if !AllClose(out, want, 0) {
		t.Fatalf("MaxPool = %v", out.Data())
	}
}

func TestAvgPool2D(t *testing.T) {
	in := fromSlice(t, []float32{1, 3, 5, 7}, 1, 2, 2)
	out, err := AvgPool2D(in, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || out.Data()[0] != 4 {
		t.Fatalf("AvgPool = %v, want [4]", out.Data())
	}
}

func TestPoolErrors(t *testing.T) {
	if _, err := MaxPool2D(New(4, 4), 2, 2); err == nil {
		t.Fatal("MaxPool accepted rank-2 input")
	}
	if _, err := MaxPool2D(New(1, 4, 4), 0, 2); err == nil {
		t.Fatal("MaxPool accepted zero kernel")
	}
	if _, err := AvgPool2D(New(1, 2, 2), 3, 1); err == nil {
		t.Fatal("AvgPool accepted kernel larger than input")
	}
}

func TestGlobalAvgPool(t *testing.T) {
	in := fromSlice(t, []float32{1, 2, 3, 4, 10, 20, 30, 40}, 2, 2, 2)
	out, err := GlobalAvgPool(in)
	if err != nil {
		t.Fatal(err)
	}
	want := fromSlice(t, []float32{2.5, 25}, 2)
	if !AllClose(out, want, 1e-6) {
		t.Fatalf("GlobalAvgPool = %v", out.Data())
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	in := New(3, 5)
	in.Rand(7, 10)
	out := Softmax(in)
	for r := 0; r < 3; r++ {
		sum := float64(0)
		for j := 0; j < 5; j++ {
			v := at(out, r, j)
			if v < 0 || v > 1 {
				t.Fatalf("softmax value %v outside [0,1]", v)
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("softmax row %d sums to %v", r, sum)
		}
	}
}

func TestSoftmaxStableForLargeInputs(t *testing.T) {
	in := fromSlice(t, []float32{1000, 1001, 1002}, 3)
	out := Softmax(in)
	for _, v := range out.Data() {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("softmax overflowed: %v", out.Data())
		}
	}
}

func TestLayerNormZeroMeanUnitVar(t *testing.T) {
	in := New(4, 16)
	in.Rand(11, 5)
	out, err := LayerNorm(in, nil, nil, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		mean, varv := 0.0, 0.0
		for j := 0; j < 16; j++ {
			mean += float64(at(out, r, j))
		}
		mean /= 16
		for j := 0; j < 16; j++ {
			d := float64(at(out, r, j)) - mean
			varv += d * d
		}
		varv /= 16
		if math.Abs(mean) > 1e-4 || math.Abs(varv-1) > 1e-2 {
			t.Fatalf("layernorm row %d: mean=%v var=%v", r, mean, varv)
		}
	}
}

func TestLayerNormGammaBeta(t *testing.T) {
	in := New(1, 4)
	ramp(in, 1)
	gamma := fromSlice(t, []float32{2, 2, 2, 2}, 4)
	beta := fromSlice(t, []float32{1, 1, 1, 1}, 4)
	out, err := LayerNorm(in, gamma, beta, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := LayerNorm(in, nil, nil, 1e-5)
	for j := 0; j < 4; j++ {
		want := at(plain, 0, j)*2 + 1
		if math.Abs(float64(at(out, 0, j)-want)) > 1e-5 {
			t.Fatalf("gamma/beta not applied at %d", j)
		}
	}
	if _, err := LayerNorm(in, New(3), nil, 1e-5); err == nil {
		t.Fatal("accepted wrong gamma shape")
	}
}

func TestGELUKnownPoints(t *testing.T) {
	in := fromSlice(t, []float32{0, 100, -100}, 3)
	out := GELU(in)
	if at(out, 0) != 0 {
		t.Fatalf("GELU(0) = %v", at(out, 0))
	}
	if math.Abs(float64(at(out, 1)-100)) > 1e-3 {
		t.Fatalf("GELU(100) = %v, want ~100", at(out, 1))
	}
	if math.Abs(float64(at(out, 2))) > 1e-3 {
		t.Fatalf("GELU(-100) = %v, want ~0", at(out, 2))
	}
}

func TestTranspose2D(t *testing.T) {
	a := fromSlice(t, []float32{1, 2, 3, 4, 5, 6}, 2, 3)
	tr, err := Transpose2D(a)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Dim(0) != 3 || tr.Dim(1) != 2 || at(tr, 2, 1) != 6 {
		t.Fatalf("Transpose2D wrong: %v", tr)
	}
	if _, err := Transpose2D(New(2)); err == nil {
		t.Fatal("Transpose2D accepted rank-1")
	}
}

// Property: matmul distributes over addition, (A+B)·C == A·C + B·C.
func TestMatMulDistributiveProperty(t *testing.T) {
	f := func(seed uint16) bool {
		m, k, n := int(seed%4)+1, int(seed/4%4)+1, int(seed/16%4)+1
		a := New(m, k)
		b := New(m, k)
		c := New(k, n)
		a.Rand(uint64(seed)+1, 1)
		b.Rand(uint64(seed)+2, 1)
		c.Rand(uint64(seed)+3, 1)
		ab, _ := Add(a, b)
		left, _ := MatMul(ab, c)
		ac, _ := MatMul(a, c)
		bc, _ := MatMul(b, c)
		right, _ := Add(ac, bc)
		return AllClose(left, right, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: ReLU is idempotent.
func TestReLUIdempotentProperty(t *testing.T) {
	f := func(seed uint32) bool {
		x := New(32)
		x.Rand(uint64(seed), 10)
		once := ReLU(x)
		twice := ReLU(once)
		return AllClose(once, twice, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
