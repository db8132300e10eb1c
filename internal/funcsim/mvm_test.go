package funcsim

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// mvmCase builds one random mvmCall from the seed — one to three runs, each
// somewhere inside a longer weight column, weights and activations drawn at
// and around the bounds the packed format depends on — streams every lane
// through it the way a sweep does (four streams to a call, each lane's
// activations copied into its vector with the guard's operand taken in the
// copy), and requires lane memory to equal what a plain int64 loop over the
// row-major weights leaves: every output exact, nothing else touched.
func mvmCase(t *testing.T, seed uint64, rowsIn, colsIn, lanesIn, flags uint8) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0x6d766d))
	nruns := 1 + int(flags>>2)%3
	rows := 1 + int(rowsIn)%128 // per run
	cols := 1 + int(colsIn)%35
	lanes := 1 + int(lanesIn)%9
	acc := flags&1 != 0
	packed := flags&2 != 0

	weightBits := []int{2, 4, 8, 12}[rng.IntN(4)]
	limit := int64(-1)
	if packed {
		limit = packLimit(nruns*rows, weightBits)
		if limit < 0 {
			t.Fatalf("no packing bound for %d rows of %d-bit weights", nruns*rows, weightBits)
		}
	} else {
		weightBits = 16
	}
	wMax := int64(1) << (weightBits - 1)
	weight := func() int64 {
		switch rng.IntN(4) {
		case 0:
			return -wMax
		case 1:
			return wMax - 1
		}
		return rng.Int64N(2*wMax) - wMax
	}
	// Activations: mostly inside the guard, some lanes with a word at, just
	// past or far past it.
	bound := max(limit, 127)
	act := func(wild bool) int64 {
		if wild {
			return []int64{bound + 1, -bound - 2, 1 << 40, -(1 << 40)}[rng.IntN(4)]
		}
		switch rng.IntN(6) {
		case 0:
			return bound // 2^b − 1
		case 1:
			return -bound - 1 // −2^b
		case 2:
			return 0
		}
		return rng.Int64N(2*bound+2) - bound - 1
	}

	colStride := rows + rng.IntN(5)
	stride := int64(1 + rng.IntN(3))
	dst := int64(nruns*rows + rng.IntN(4))
	words := dst + int64(cols)*stride + 3 // per lane: the runs, then the outputs
	mem := make([]int64, int64(lanes)*words)
	for l := 0; l < lanes; l++ {
		wild := rng.IntN(3) == 0
		for i := int64(0); i < words; i++ {
			mem[int64(l)*words+i] = act(wild && rng.IntN(8) == 0)
		}
	}
	want := slices.Clone(mem)

	k := mvmCall{cols: cols, limit: limit, stride: stride, acc: acc}
	for r := 0; r < nruns; r++ {
		w := make([]int64, wordsFor(cols, packed)*colStride)
		row := rng.IntN(colStride - rows + 1)
		src := int64(r * rows)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				v := weight()
				placeWeight(w, colStride, row+i, j, v, packed)
				for l := 0; l < lanes; l++ { // the reference
					o := &want[int64(l)*words+dst+int64(j)*stride]
					if !acc && r == 0 && i == 0 {
						*o = 0
					}
					*o += mem[int64(l)*words+src+int64(i)] * v
				}
			}
		}
		k.runs = append(k.runs, mvmRun{w: w[row:], stride: colStride, n: rows, src: int(src), from: -1})
	}
	for l := 0; l < lanes; l += k.n {
		k.n = min(4, lanes-l)
		for s := 0; s < k.n; s++ {
			lane := mem[int64(l+s)*words:][:words]
			k.act[s] = make([]int64, nruns*rows)
			k.mag[s] = copyMag(k.act[s], lane[:nruns*rows])
			k.out[s] = lane[dst:]
		}
		k.run()
	}
	if !slices.Equal(mem, want) {
		for i := range mem {
			if mem[i] != want[i] {
				t.Fatalf("seed %d: %d runs of %d rows × %d cols, %d lanes, packed=%v (limit %d) acc=%v: lane %d word %d = %d, want %d",
					seed, nruns, rows, cols, lanes, packed, limit, acc, int64(i)/words, int64(i)%words, mem[i], want[i])
			}
		}
	}
}

// TestMVMKernelMatchesPlainArithmetic is the microkernel against a plain
// int64 loop: random shapes (rows 1–128, cols 1–35 with odd counts, lanes 1–9,
// one to three runs, store and accumulate), both word formats, activations on
// both sides of the packing guard.
func TestMVMKernelMatchesPlainArithmetic(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 0))
	for i := 0; i < 3000; i++ {
		mvmCase(t, rng.Uint64(), uint8(rng.Uint32()), uint8(rng.Uint32()), uint8(rng.Uint32()), uint8(rng.Uint32()))
	}
	// The corners a random draw may miss: one column, one row, odd columns.
	for _, flags := range []uint8{0, 1, 2, 3, 2 | 1<<2, 3 | 2<<2} {
		for _, cols := range []uint8{0, 1, 2, 6, 34} {
			for _, lanes := range []uint8{0, 3, 4, 8} {
				mvmCase(t, uint64(flags)<<16|uint64(cols)<<8|uint64(lanes), 0, cols, lanes, flags)
				mvmCase(t, uint64(flags)<<16|uint64(cols)<<8|uint64(lanes), 127, cols, lanes, flags)
			}
		}
	}
}

// TestPackLimit pins the bound the exactness argument rests on: packLimit is
// the largest 2^b − 1 with rows · 2^(weightBits−1) · 2^b < 2^31, and wordLimit
// packs exactly when that covers settled activations.
func TestPackLimit(t *testing.T) {
	for _, tc := range []struct {
		rows, weightBits int
		limit            int64
	}{
		{128, 8, 1<<16 - 1}, // the presets: 2^7 · 2^7 · 2^16 = 2^30
		{255, 8, 1<<16 - 1},
		{256, 8, 1<<15 - 1},
		{27, 8, 1<<19 - 1},
		{1, 31, 0},
		{2, 31, -1},
		{1<<24 - 1, 8, 0},
		{1 << 24, 8, -1}, // 2^24 · 2^7 · 2^0 = 2^31: not below
	} {
		if got := packLimit(tc.rows, tc.weightBits); got != tc.limit {
			t.Errorf("packLimit(%d, %d) = %d, want %d", tc.rows, tc.weightBits, got, tc.limit)
		}
	}
	for _, tc := range []struct {
		rows, weightBits, actBits int
		packed                    bool
	}{
		{32, 8, 8, true}, {128, 8, 8, true}, {256, 8, 8, true}, {1152, 8, 8, true}, // every preset
		{32, 16, 16, false}, {32, 12, 8, true}, {32, 8, 16, true},
		{128, 8, 18, false}, {128, 8, 17, true},
	} {
		if got := wordLimit(tc.rows, tc.weightBits, tc.actBits) >= 0; got != tc.packed {
			t.Errorf("wordLimit(%d rows, %d-bit weights, %d-bit activations) packs: %v, want %v", tc.rows, tc.weightBits, tc.actBits, got, tc.packed)
		}
	}
}

// FuzzMVMKernel drives mvmCase from fuzzed shapes and seeds.
func FuzzMVMKernel(f *testing.F) {
	f.Add(uint64(1), uint8(26), uint8(31), uint8(0), uint8(2))    // a packed 27 × 32 read, one lane
	f.Add(uint64(2), uint8(127), uint8(5), uint8(4), uint8(3))    // odd columns, five lanes, accumulate
	f.Add(uint64(3), uint8(7), uint8(0), uint8(8), uint8(2|2<<2)) // one column, three runs, nine lanes
	f.Add(uint64(4), uint8(99), uint8(20), uint8(6), uint8(1))    // one column per word
	f.Fuzz(mvmCase)
}
