package tensor

import (
	"fmt"
	"math"
)

// MatMul computes C = A·B for A of shape [m,k] and B of shape [k,n].
func MatMul(a, b *Tensor) (*Tensor, error) {
	if a.Rank() != 2 || b.Rank() != 2 {
		return nil, fmt.Errorf("tensor: MatMul needs rank-2 operands, got %v and %v", a.shape, b.shape)
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		return nil, fmt.Errorf("tensor: MatMul inner dimensions differ: %v vs %v", a.shape, b.shape)
	}
	c := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		crow := c.data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.data[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				crow[j] += av * brow[j]
			}
		}
	}
	return c, nil
}

// VecMat computes y = x·W for x of shape [n] and W of shape [n,m]: y[i] is
// the sum over j ascending, from zero, of W[j][i]·x[j]. That is MatVec of
// W's transpose, add for add, without the transposed copy: the loop walks
// W's rows and adds each one's contribution to every output.
func VecMat(x, w *Tensor) (*Tensor, error) {
	if x.Rank() != 1 || w.Rank() != 2 {
		return nil, fmt.Errorf("tensor: VecMat needs [n]×[n,m], got %v and %v", x.shape, w.shape)
	}
	n, m := w.shape[0], w.shape[1]
	if x.shape[0] != n {
		return nil, fmt.Errorf("tensor: VecMat dimension mismatch %v vs %v", x.shape, w.shape)
	}
	y := New(m)
	for j, xj := range x.data {
		wrow := w.data[j*m : (j+1)*m]
		yd := y.data[:len(wrow)]
		for i, wv := range wrow {
			yd[i] += wv * xj
		}
	}
	return y, nil
}

// ConvParams describes a 2-D convolution. Weights are laid out
// [outC, inC, kH, kW]; inputs [inC, h, w] (single image, no batch dim).
type ConvParams struct {
	Stride  int
	Padding int
}

// Conv2D computes a 2-D convolution of in [inC,h,w] with weights
// [outC,inC,kH,kW] and optional bias [outC] (nil for none).
func Conv2D(in, weights, bias *Tensor, p ConvParams) (*Tensor, error) {
	if in.Rank() != 3 {
		return nil, fmt.Errorf("tensor: Conv2D input must be [C,H,W], got %v", in.shape)
	}
	if weights.Rank() != 4 {
		return nil, fmt.Errorf("tensor: Conv2D weights must be [outC,inC,kH,kW], got %v", weights.shape)
	}
	inC, h, w := in.shape[0], in.shape[1], in.shape[2]
	outC, wInC, kh, kw := weights.shape[0], weights.shape[1], weights.shape[2], weights.shape[3]
	if inC != wInC {
		return nil, fmt.Errorf("tensor: Conv2D channel mismatch: input %d vs weights %d", inC, wInC)
	}
	if bias != nil && (bias.Rank() != 1 || bias.shape[0] != outC) {
		return nil, fmt.Errorf("tensor: Conv2D bias must be [%d], got %v", outC, bias.shape)
	}
	if p.Stride <= 0 {
		return nil, fmt.Errorf("tensor: Conv2D stride must be positive, got %d", p.Stride)
	}
	outH := (h+2*p.Padding-kh)/p.Stride + 1
	outW := (w+2*p.Padding-kw)/p.Stride + 1
	if outH <= 0 || outW <= 0 {
		return nil, fmt.Errorf("tensor: Conv2D produces empty output for input %v kernel [%d,%d] stride %d pad %d", in.shape, kh, kw, p.Stride, p.Padding)
	}
	// Each output is summed as bias, then in·w over (ic, ky, kx) ascending
	// with the taps that fall in the padding skipped: the order of the plain
	// per-output loop nest. The taps run outermost so that each one is an
	// axpy over the output rows and columns it reaches, every output still
	// receiving its adds in that order.
	out := New(outC, outH, outW)
	s, pad := p.Stride, p.Padding
	for oc := 0; oc < outC; oc++ {
		plane := out.data[oc*outH*outW : (oc+1)*outH*outW]
		if bias != nil {
			b := bias.data[oc]
			for i := range plane {
				plane[i] = b
			}
		}
		for ic := 0; ic < inC; ic++ {
			chans := in.data[ic*h*w : (ic+1)*h*w]
			for ky := 0; ky < kh; ky++ {
				oy0, oy1 := tapRange(ky, pad, s, h, outH)
				for kx := 0; kx < kw; kx++ {
					ox0, ox1 := tapRange(kx, pad, s, w, outW)
					if ox0 >= ox1 {
						continue
					}
					wv := weights.data[((oc*inC+ic)*kh+ky)*kw+kx]
					for oy := oy0; oy < oy1; oy++ {
						orow := plane[oy*outW+ox0 : oy*outW+ox1]
						irow := chans[(oy*s+ky-pad)*w+ox0*s+kx-pad:]
						if s == 1 {
							irow = irow[:len(orow)]
							for i, v := range irow {
								orow[i] += v * wv
							}
							continue
						}
						for i := range orow {
							orow[i] += irow[i*s] * wv
						}
					}
				}
			}
		}
	}
	return out, nil
}

// tapRange returns the outputs [lo, hi) along one axis whose tap k lands
// inside an input of size n: those o with 0 <= o·stride + k − pad < n.
func tapRange(k, pad, stride, n, outN int) (lo, hi int) {
	if d := pad - k; d > 0 {
		lo = (d + stride - 1) / stride
	}
	last := n - 1 + pad - k
	if last < 0 {
		return 0, 0
	}
	return lo, min(outN, last/stride+1)
}

// WeightsAsMatrix reshapes conv weights [outC,inC,kH,kW] into the matrix
// [inC*kH*kW, outC] used for crossbar mapping: each column is one filter.
func WeightsAsMatrix(w *Tensor) (*Tensor, error) {
	if w.Rank() != 4 {
		return nil, fmt.Errorf("tensor: WeightsAsMatrix needs [outC,inC,kH,kW], got %v", w.shape)
	}
	outC := w.shape[0]
	r := w.shape[1] * w.shape[2] * w.shape[3]
	m := New(r, outC)
	for oc := 0; oc < outC; oc++ {
		for i := 0; i < r; i++ {
			m.data[i*outC+oc] = w.data[oc*r+i]
		}
	}
	return m, nil
}

// ReLU applies max(0,x) elementwise, returning a new tensor.
func ReLU(t *Tensor) *Tensor {
	out := t.Clone()
	for i, v := range out.data {
		if v < 0 {
			out.data[i] = 0
		}
	}
	return out
}

// Sigmoid applies the logistic function elementwise.
func Sigmoid(t *Tensor) *Tensor {
	out := t.Clone()
	for i, v := range out.data {
		out.data[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
	return out
}

// Tanh applies the hyperbolic tangent elementwise.
func Tanh(t *Tensor) *Tensor {
	out := t.Clone()
	for i, v := range out.data {
		out.data[i] = float32(math.Tanh(float64(v)))
	}
	return out
}

// Mul returns a*b elementwise for same-shaped tensors.
func Mul(a, b *Tensor) (*Tensor, error) {
	if !SameShape(a, b) {
		return nil, fmt.Errorf("tensor: Mul shape mismatch %v vs %v", a.shape, b.shape)
	}
	out := a.Clone()
	for i := range out.data {
		out.data[i] *= b.data[i]
	}
	return out, nil
}

// Add returns a+b elementwise for same-shaped tensors.
func Add(a, b *Tensor) (*Tensor, error) {
	if !SameShape(a, b) {
		return nil, fmt.Errorf("tensor: Add shape mismatch %v vs %v", a.shape, b.shape)
	}
	out := a.Clone()
	for i := range out.data {
		out.data[i] += b.data[i]
	}
	return out, nil
}

// MaxPool2D applies a kxk max pool with the given stride over [C,H,W].
func MaxPool2D(in *Tensor, k, stride int) (*Tensor, error) {
	if in.Rank() != 3 {
		return nil, fmt.Errorf("tensor: MaxPool2D input must be [C,H,W], got %v", in.shape)
	}
	c, h, w := in.shape[0], in.shape[1], in.shape[2]
	if k <= 0 || stride <= 0 {
		return nil, fmt.Errorf("tensor: MaxPool2D needs positive kernel and stride")
	}
	outH := (h-k)/stride + 1
	outW := (w-k)/stride + 1
	if outH <= 0 || outW <= 0 {
		return nil, fmt.Errorf("tensor: MaxPool2D produces empty output")
	}
	out := New(c, outH, outW)
	for ic := 0; ic < c; ic++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				best := float32(math.Inf(-1))
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						v := in.data[(ic*h+oy*stride+ky)*w+ox*stride+kx]
						if v > best {
							best = v
						}
					}
				}
				out.data[(ic*outH+oy)*outW+ox] = best
			}
		}
	}
	return out, nil
}

// AvgPool2D applies a kxk average pool with the given stride over [C,H,W].
func AvgPool2D(in *Tensor, k, stride int) (*Tensor, error) {
	if in.Rank() != 3 {
		return nil, fmt.Errorf("tensor: AvgPool2D input must be [C,H,W], got %v", in.shape)
	}
	c, h, w := in.shape[0], in.shape[1], in.shape[2]
	if k <= 0 || stride <= 0 {
		return nil, fmt.Errorf("tensor: AvgPool2D needs positive kernel and stride")
	}
	outH := (h-k)/stride + 1
	outW := (w-k)/stride + 1
	if outH <= 0 || outW <= 0 {
		return nil, fmt.Errorf("tensor: AvgPool2D produces empty output")
	}
	out := New(c, outH, outW)
	norm := float32(1) / float32(k*k)
	for ic := 0; ic < c; ic++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				sum := float32(0)
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						sum += in.data[(ic*h+oy*stride+ky)*w+ox*stride+kx]
					}
				}
				out.data[(ic*outH+oy)*outW+ox] = sum * norm
			}
		}
	}
	return out, nil
}

// GlobalAvgPool reduces [C,H,W] to [C] by averaging each channel.
func GlobalAvgPool(in *Tensor) (*Tensor, error) {
	if in.Rank() != 3 {
		return nil, fmt.Errorf("tensor: GlobalAvgPool input must be [C,H,W], got %v", in.shape)
	}
	c, h, w := in.shape[0], in.shape[1], in.shape[2]
	out := New(c)
	norm := float32(1) / float32(h*w)
	for ic := 0; ic < c; ic++ {
		sum := float32(0)
		for i := 0; i < h*w; i++ {
			sum += in.data[ic*h*w+i]
		}
		out.data[ic] = sum * norm
	}
	return out, nil
}

// Softmax applies a numerically stable softmax along the last dimension.
func Softmax(t *Tensor) *Tensor {
	out := t.Clone()
	if t.Rank() == 0 || t.Len() == 0 {
		return out
	}
	last := t.shape[t.Rank()-1]
	if last == 0 {
		return out
	}
	rows := t.Len() / last
	for r := 0; r < rows; r++ {
		seg := out.data[r*last : (r+1)*last]
		maxV := seg[0]
		for _, v := range seg {
			if v > maxV {
				maxV = v
			}
		}
		sum := float64(0)
		for i, v := range seg {
			e := math.Exp(float64(v - maxV))
			seg[i] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for i := range seg {
			seg[i] *= inv
		}
	}
	return out
}

// LayerNorm normalizes along the last dimension with learnable gamma/beta
// (pass nil for identity gamma=1, beta=0).
func LayerNorm(t, gamma, beta *Tensor, eps float64) (*Tensor, error) {
	if t.Rank() == 0 {
		return t.Clone(), nil
	}
	last := t.shape[t.Rank()-1]
	if gamma != nil && (gamma.Rank() != 1 || gamma.shape[0] != last) {
		return nil, fmt.Errorf("tensor: LayerNorm gamma must be [%d], got %v", last, gamma.shape)
	}
	if beta != nil && (beta.Rank() != 1 || beta.shape[0] != last) {
		return nil, fmt.Errorf("tensor: LayerNorm beta must be [%d], got %v", last, beta.shape)
	}
	out := t.Clone()
	rows := t.Len() / last
	for r := 0; r < rows; r++ {
		seg := out.data[r*last : (r+1)*last]
		mean := float64(0)
		for _, v := range seg {
			mean += float64(v)
		}
		mean /= float64(last)
		variance := float64(0)
		for _, v := range seg {
			d := float64(v) - mean
			variance += d * d
		}
		variance /= float64(last)
		inv := 1 / math.Sqrt(variance+eps)
		for i, v := range seg {
			x := (float64(v) - mean) * inv
			if gamma != nil {
				x *= float64(gamma.data[i])
			}
			if beta != nil {
				x += float64(beta.data[i])
			}
			seg[i] = float32(x)
		}
	}
	return out, nil
}

// GELU applies the Gaussian error linear unit using the tanh approximation
// common in transformer implementations.
func GELU(t *Tensor) *Tensor {
	out := t.Clone()
	const c = 0.7978845608028654 // sqrt(2/pi)
	for i, v := range out.data {
		x := float64(v)
		out.data[i] = float32(0.5 * x * (1 + math.Tanh(c*(x+0.044715*x*x*x))))
	}
	return out
}

// Transpose2D returns the transpose of a rank-2 tensor.
func Transpose2D(t *Tensor) (*Tensor, error) {
	if t.Rank() != 2 {
		return nil, fmt.Errorf("tensor: Transpose2D needs rank 2, got %v", t.shape)
	}
	m, n := t.shape[0], t.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = t.data[i*n+j]
		}
	}
	return out, nil
}
