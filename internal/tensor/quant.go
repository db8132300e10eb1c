package tensor

import (
	"fmt"
	"math"
)

// QuantParams describes a symmetric uniform quantizer mapping float32 values
// to signed integers of Bits precision: q = clamp(round(x/Scale)).
//
// The paper quantizes all weights and activations to 8 bits (§4.1); the
// functional simulator uses this quantizer both when loading weights into
// crossbar cells and when streaming activations through DACs.
type QuantParams struct {
	Bits  int
	Scale float32
}

// MaxQ returns the largest representable magnitude, 2^(Bits-1)-1.
func (q QuantParams) MaxQ() int32 {
	return int32(1)<<(q.Bits-1) - 1
}

// Validate reports whether the parameters are usable.
func (q QuantParams) Validate() error {
	if q.Bits < 1 || q.Bits > 31 {
		return fmt.Errorf("tensor: quant bits must be in [1,31], got %d", q.Bits)
	}
	if !(q.Scale > 0) || math.IsInf(float64(q.Scale), 0) {
		return fmt.Errorf("tensor: quant scale must be positive and finite, got %v", q.Scale)
	}
	return nil
}

// CalibrateQuant chooses a symmetric scale so the max-abs value of t maps to
// MaxQ, ignoring NaN. A zero tensor yields scale 1 to stay well-defined, and
// the scale never drops below the smallest positive float32: a subnormal
// max-abs divided by MaxQ would underflow to a zero scale, which no quantizer
// accepts.
func CalibrateQuant(t *Tensor, bits int) QuantParams {
	const sign = 1 << 31
	maxAbs := float32(0)
	for _, v := range t.data {
		// Clearing the sign bit is the magnitude without a branch on the
		// sign; a NaN fails the comparison and is skipped.
		if a := math.Float32frombits(math.Float32bits(v) &^ sign); a > maxAbs {
			maxAbs = a
		}
	}
	q := QuantParams{Bits: bits, Scale: 1}
	if maxAbs > 0 {
		q.Scale = max(maxAbs/float32(q.MaxQ()), math.SmallestNonzeroFloat32)
	}
	return q
}

// Quantize converts t to integers with the given parameters. A value beyond
// the representable range, ±Inf included, saturates to ±MaxQ; a NaN has no
// level and is an error naming its index.
func Quantize(t *Tensor, q QuantParams) ([]int32, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	maxQ := q.MaxQ()
	out := make([]int32, len(t.data))
	for i, v := range t.data {
		if v != v {
			return nil, fmt.Errorf("tensor: quantize: element %d is NaN", i)
		}
		out[i] = Level(v, q.Scale, maxQ)
	}
	return out, nil
}

// Level quantizes one value that is not NaN: v/scale rounded half to even,
// saturated to ±maxQ. The saturation happens in float, before the integer
// conversion, because Go leaves the conversion of an out-of-range float
// implementation-defined (on amd64 it yields MinInt32, whatever the sign).
func Level(v, scale float32, maxQ int32) int32 {
	r := math.RoundToEven(float64(v / scale))
	if m := float64(maxQ); r > m {
		return maxQ
	} else if r < -m {
		return -maxQ
	}
	return int32(r)
}
