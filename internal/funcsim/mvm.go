package funcsim

// This file is the MVM microkernel every read meta-operator runs on, and the
// weight-word formats it consumes.
//
// A weight array is column-major — a weight column's wordlines are contiguous,
// in the order a dot product walks them — and, whenever the precisions allow,
// holds several adjacent weight columns per 64-bit word, each in a field of its
// own: two 32-bit fields, lo + hi<<32, or three 21-bit ones at bits 0, 21 and
// 42. One multiply a·word then accumulates every column of the word, and a sum
// s of such products splits exactly into its fields by sign extension — the
// low field is lo = s<<(64−f)>>(64−f), the rest (s − lo) >> f — as long as
// each field's true sum fits in f signed bits: integer arithmetic is exact, so
// the low f bits of s are the low column's sum whatever the columns above it
// added. Whether the fields fit is decided twice. A node's format is chosen
// once, from the precisions and the rows its dot products sum (wordFormat,
// against settled activations); and before every packed accumulation the
// kernel checks the activations it is about to multiply against the format's
// bound — their magnitudes are OR-reduced in the pass that gathers them
// (copyMag) — sending streams that exceed it — raw accumulators a hand-written
// flow routed into a read, nothing codegen emits — through a loop that unpacks
// each word and accumulates its columns apart. Every read therefore returns
// the exact int64 sums for every input.
//
// The format is a node's, not the image's: a crossbar holds one node's tile at
// a time, and a read may only write into the output region of the node its
// crossbar holds, so every array a chain multiplies is in the format of the
// node the chain writes.

// fieldBits is the width of one column's field in a word that holds per
// weight columns: 64, 32 or 21 bits.
func fieldBits(per int) int { return 64 / per }

// packLimit returns 2^b − 1 for the largest b such that rows products of a
// weightBits-wide weight and an activation in [−2^b, 2^b) sum to less than
// 2^(field−1) in magnitude: rows · 2^(weightBits−1) · 2^b < 2^(field−1), so
// that every sum fits a field of field signed bits. It returns −1 when not
// even b = 0 does.
func packLimit(rows, weightBits, field int) int64 {
	b := field - 1 - weightBits
	for ; b >= 0 && int64(rows)<<(weightBits-1+b) >= 1<<(field-1); b-- {
	}
	if b < 0 {
		return -1
	}
	return 1<<b - 1
}

// wordLimit is the guard bound of arrays that hold per weight columns to the
// word (2 or 3) for sums over rows wordlines of weightBits-wide weights, when
// it covers every actBits-wide settled activation; −1 when it does not: such
// sums do not fit the format's fields.
func wordLimit(rows, weightBits, actBits, per int) int64 {
	if limit := packLimit(rows, weightBits, fieldBits(per)); limit >= 1<<(actBits-1)-1 {
		return limit
	}
	return -1
}

// wordFormat returns how many weight columns share a word of a node's arrays:
// three when the node's k matrix rows fit 21-bit fields, else two when the
// most rows one of its dot products may sum fit 32-bit ones, else one, which
// needs no guard.
func wordFormat(k, most, weightBits, actBits int) int {
	switch {
	case wordLimit(k, weightBits, actBits, 3) >= 0:
		return 3
	case wordLimit(most, weightBits, actBits, 2) >= 0:
		return 2
	}
	return 1
}

// wordsFor returns how many words hold cols weight columns of one wordline,
// per to the word.
func wordsFor(cols, per int) int { return (cols + per - 1) / per }

// placeWeight puts weight v of wordline row, weight column col into a weight
// array whose column words are runs of rows words, per columns to the word.
// The array must start zeroed: the columns of a word are added into it, each
// shifted to its field. (Each format divides by its own constant: a build
// places every weight of the model, and a division by a variable is several
// times a multiply.)
func placeWeight(w []int64, rows, row, col int, v int64, per int) {
	switch per {
	case 1:
		w[col*rows+row] = v
	case 2:
		w[col/2*rows+row] += v << (32 * uint(col%2))
	default:
		w[col/3*rows+row] += v << (21 * uint(col%3))
	}
}

// splitField splits s, a sum of fields f bits apart, into its low field,
// sign-extended, and the sum of the fields above it, shifted down to bit 0:
// exact as long as every field's value fits f signed bits.
func splitField(s int64, f uint) (lo, rest int64) {
	lo = s << (64 - f) >> (64 - f)
	return lo, (s - lo) >> f
}

// mergeLow returns word with its fields below bit own replaced by v, the
// fields a tile places there (placeWeight): the fields above are columns
// beyond the tile and keep their values.
func mergeLow(word, v int64, own uint) int64 {
	lo, _ := splitField(word, own)
	return word - lo + v
}

// mvmRun is one dot-product run of an accumulation chain: n activation words
// starting at src of a stream's activation vector against n consecutive
// wordlines of one weight array. w is cut to start at the run's first
// wordline, so column word c's weights are w[c·stride : c·stride+n]. from is
// where a sweep copies the n words from before the call (a lane-relative
// address), -1 when the window's gather already put them at src. xb and row
// name where w lies in a crossbar view — xb -1: in no crossbar's, a readcore's
// node matrix — so that a sweep plan (sweep.go) can take w from any state's.
type mvmRun struct {
	w       []int64
	stride  int // words between the array's consecutive column words
	n       int
	src     int
	from    int64
	xb, row int32
}

// mvmCall is one accumulation chain's arithmetic over up to four streams —
// (lane, window) pairs whose chains multiply the same weight words: for every
// stream s and weight column j,
//
//	out[s][j·stride] (+)= Σ over runs, i < n: act[s][src+i] · W[i][j]
//
// with the partial sums of a column word in registers and one store — or, with
// acc, one add — per output. act[s] is the stream's activation vector as the
// sweep gathered it, mag[s] the OR of a ^ (a>>63) over it (copyMag), which is
// at most 2^b − 1 exactly when every activation lies in [−2^b, 2^b); out[s] is
// the stream's lane memory from weight column 0's word. per is the weight
// arrays' word format, the weight columns to the word, and limit — when per > 1
// — its guard bound for the runs' rows (wordLimit).
type mvmCall struct {
	runs  []mvmRun
	cols  int // weight columns
	per   int
	limit int64

	stride int64
	acc    bool

	n   int // streams
	act [4][]int64
	mag [4]int64
	out [4][]int64
}

// copyMag copies src into dst[:len(src)] and returns the OR of a ^ (a>>63)
// over the words: the packing guard's operand, taken in the pass that moves
// the activations.
func copyMag(dst, src []int64) int64 {
	var m int64
	dst = dst[:len(src)]
	for i, a := range src {
		dst[i] = a
		m |= a ^ (a >> 63)
	}
	return m
}

// emit writes the accumulated sum s of column word c for one stream: split
// into its columns' fields by sign extension, each stored or (acc) added once.
func (k *mvmCall) emit(o []int64, c int, s int64) {
	switch j := k.per * c; k.per {
	case 1:
		k.put(o, c, s)
	case 2:
		lo, hi := splitField(s, 32)
		k.put(o, j, lo)
		if j+1 < k.cols {
			k.put(o, j+1, hi)
		}
	default:
		lo, s := splitField(s, 21)
		k.put(o, j, lo)
		if j+1 < k.cols {
			mid, hi := splitField(s, 21)
			k.put(o, j+1, mid)
			if j+2 < k.cols {
				k.put(o, j+2, hi)
			}
		}
	}
}

// put stores or accumulates weight column j's output.
func (k *mvmCall) put(o []int64, j int, s int64) {
	if k.acc {
		o[int64(j)*k.stride] += s
	} else {
		o[int64(j)*k.stride] = s
	}
}

// dot4 returns the dot products of one shared vector with four others of its
// length: four streams' activations against one column word's weights, or one
// stream's activations against four column words. The four accumulator chains
// are independent, which is what hides the multiply latency; the loop is a
// function of its own so that its ten live values get the registers.
//
//go:noinline
func dot4(shared, v0, v1, v2, v3 []int64) (s0, s1, s2, s3 int64) {
	v0, v1, v2, v3 = v0[:len(shared)], v1[:len(shared)], v2[:len(shared)], v3[:len(shared)]
	for i, x := range shared {
		s0 += x * v0[i]
		s1 += x * v1[i]
		s2 += x * v2[i]
		s3 += x * v3[i]
	}
	return
}

// run executes the call. Four streams go one column word at a time — they
// share every weight load, and a sweep's adjacent windows store into adjacent
// words; fewer go one at a time, four column words at a time, which share
// every activation load instead. A stream whose activations fail the guard
// sends the call to the lone-stream loop, which settles each stream on its
// own.
func (k *mvmCall) run() {
	runs := k.runs
	packed := k.per > 1
	words := wordsFor(k.cols, k.per)
	// limit is 2^b − 1, so the OR of the magnitudes is within it exactly when
	// each is.
	if k.n == 4 && (!packed || k.mag[0]|k.mag[1]|k.mag[2]|k.mag[3] <= k.limit) {
		a, o := &k.act, &k.out
		for c := 0; c < words; c++ {
			var s0, s1, s2, s3 int64
			for i := range runs {
				r := &runs[i]
				d0, d1, d2, d3 := dot4(r.w[c*r.stride:][:r.n], a[0][r.src:], a[1][r.src:], a[2][r.src:], a[3][r.src:])
				s0, s1, s2, s3 = s0+d0, s1+d1, s2+d2, s3+d3
			}
			k.emit(o[0], c, s0)
			k.emit(o[1], c, s1)
			k.emit(o[2], c, s2)
			k.emit(o[3], c, s3)
		}
		return
	}
	for s := 0; s < k.n; s++ {
		a, o := k.act[s], k.out[s]
		if packed && k.mag[s] > k.limit {
			k.runUnpacking(a, o)
			continue
		}
		for c := 0; c < words; c += 4 {
			// A last group short of four words repeats the last word: its
			// extra sums are computed and dropped.
			c1, c2, c3 := min(c+1, words-1), min(c+2, words-1), min(c+3, words-1)
			var sums [4]int64
			for i := range runs {
				r := &runs[i]
				d0, d1, d2, d3 := dot4(a[r.src:][:r.n], r.w[c*r.stride:], r.w[c1*r.stride:], r.w[c2*r.stride:], r.w[c3*r.stride:])
				sums[0], sums[1], sums[2], sums[3] = sums[0]+d0, sums[1]+d1, sums[2]+d2, sums[3]+d3
			}
			for i, s := range sums[:min(4, words-c)] {
				k.emit(o, c+i, s)
			}
		}
	}
}

// runUnpacking is the exact loop for one stream whose activations exceed the
// packing bound: every packed word is split into its columns' weights before
// the multiply, and the columns' sums accumulate apart in full int64 width.
func (k *mvmCall) runUnpacking(a, o []int64) {
	per, f := k.per, uint(fieldBits(k.per))
	for c := 0; c*per < k.cols; c++ {
		var sums [3]int64
		for _, r := range k.runs {
			w := r.w[c*r.stride:][:r.n]
			x := a[r.src:][:len(w)]
			for i, v := range w {
				for j := range per {
					var lo int64
					lo, v = splitField(v, f)
					sums[j] += x[i] * lo
				}
			}
		}
		for j, s := range sums[:min(per, k.cols-c*per)] {
			k.put(o, c*per+j, s)
		}
	}
}
