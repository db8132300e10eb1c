package funcsim

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// mvmCase builds one random mvmCall from the seed — one to three runs, each
// somewhere inside a longer weight column, weights and activations drawn at
// and around the bounds the word format depends on, one, two or three weight
// columns to the word (1 + perIn mod 3) — streams every lane through it the
// way a sweep does (four streams to a call, each lane's activations copied
// into its vector with the guard's operand taken in the copy), and requires
// lane memory to equal what a plain int64 loop over the row-major weights
// leaves: every output exact, nothing else touched. flags: bit 0 accumulates,
// bit 1 drives the first lane past the guard against extreme weights (past),
// the bits above count the runs.
func mvmCase(t *testing.T, seed uint64, rowsIn, colsIn, lanesIn, flags, perIn uint8) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0x6d766d))
	nruns := 1 + int(flags>>2)%3
	rows := 1 + int(rowsIn)%128 // per run
	cols := 1 + int(colsIn)%35
	lanes := 1 + int(lanesIn)%9
	acc := flags&1 != 0
	past := flags&2 != 0
	per := 1 + int(perIn)%3

	weightBits := []int{2, 4, 8, 12}[rng.IntN(4)]
	limit := int64(-1)
	if per > 1 {
		limit = packLimit(nruns*rows, weightBits, fieldBits(per))
		if limit < 0 {
			t.Fatalf("no packing bound for %d rows of %d-bit weights in %d-bit fields", nruns*rows, weightBits, fieldBits(per))
		}
	} else {
		weightBits = 16
	}
	wMax := int64(1) << (weightBits - 1)
	weight := func() int64 {
		if past {
			return -wMax
		}
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
	if past {
		// Every activation of the first lane is −2^(b+1), twice the guard's
		// reach 2^b − 1 (one bit past it), and every weight −2^(weightBits−1):
		// packed, each column's sum would overflow its field, so only the guard
		// keeps the lane exact.
		reach := bound
		if per > 1 {
			reach = limit
		}
		for i := range nruns * rows {
			mem[i] = -2 * (reach + 1)
		}
	}
	want := slices.Clone(mem)

	k := mvmCall{cols: cols, per: per, limit: limit, stride: stride, acc: acc}
	for r := 0; r < nruns; r++ {
		w := make([]int64, wordsFor(cols, per)*colStride)
		row := rng.IntN(colStride - rows + 1)
		src := int64(r * rows)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				v := weight()
				placeWeight(w, colStride, row+i, j, v, per)
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
				t.Fatalf("seed %d: %d runs of %d rows × %d cols, %d lanes, %d columns to the word (limit %d) acc=%v: lane %d word %d = %d, want %d",
					seed, nruns, rows, cols, lanes, per, limit, acc, int64(i)/words, int64(i)%words, mem[i], want[i])
			}
		}
	}
}

// TestMVMKernelMatchesPlainArithmetic is the microkernel against a plain
// int64 loop: random shapes (rows 1–128, cols 1–35 of every residue mod 2 and
// 3, lanes 1–9, one to three runs, store and accumulate), all three word
// formats, activations on both sides of the packing guard.
func TestMVMKernelMatchesPlainArithmetic(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 0))
	for i := 0; i < 3000; i++ {
		mvmCase(t, rng.Uint64(), uint8(rng.Uint32()), uint8(rng.Uint32()), uint8(rng.Uint32()), uint8(rng.Uint32()), uint8(rng.Uint32()))
	}
	// The corners a random draw may miss: one column, one row, column counts
	// of every residue mod 2 and 3, a lane past the guard.
	for per := uint8(0); per < 3; per++ {
		for _, flags := range []uint8{0, 1, 2, 3, 2 | 1<<2, 3 | 2<<2} {
			for _, cols := range []uint8{0, 1, 2, 3, 6, 31, 34} {
				for _, lanes := range []uint8{0, 3, 4, 8} {
					seed := uint64(per)<<24 | uint64(flags)<<16 | uint64(cols)<<8 | uint64(lanes)
					mvmCase(t, seed, 0, cols, lanes, flags, per)
					mvmCase(t, seed, 127, cols, lanes, flags, per)
				}
			}
		}
	}
}

// TestPackLimit pins the bound the exactness argument rests on: packLimit is
// the largest 2^b − 1 with rows · 2^(weightBits−1) · 2^b < 2^(field−1), and
// wordFormat packs three columns, two or one exactly when that covers settled
// activations — 8-bit activations against 8-bit weights take three columns at
// 63 rows and not at 64.
func TestPackLimit(t *testing.T) {
	for _, tc := range []struct {
		rows, weightBits, field int
		limit                   int64
	}{
		{128, 8, 32, 1<<16 - 1}, // the presets' wordlines: 2^7 · 2^7 · 2^16 = 2^30
		{255, 8, 32, 1<<16 - 1},
		{256, 8, 32, 1<<15 - 1},
		{27, 8, 32, 1<<19 - 1},
		{1, 31, 32, 0},
		{2, 31, 32, -1},
		{1<<24 - 1, 8, 32, 0},
		{1 << 24, 8, 32, -1}, // 2^24 · 2^7 · 2^0 = 2^31: not below
		{27, 8, 21, 255},     // conv-relu's conv: 27 · 2^7 · 2^8 < 2^20
		{25, 8, 21, 255},     // lenet5's conv1
		{63, 8, 21, 127},     // 63 · 2^7 · 2^7 < 2^20
		{64, 8, 21, 63},      // 2^6 · 2^7 · 2^7 = 2^20: not below
		{1, 20, 21, 0},
		{2, 20, 21, -1},
	} {
		if got := packLimit(tc.rows, tc.weightBits, tc.field); got != tc.limit {
			t.Errorf("packLimit(%d, %d, %d) = %d, want %d", tc.rows, tc.weightBits, tc.field, got, tc.limit)
		}
	}
	for _, tc := range []struct {
		k, most, weightBits, actBits int
		per                          int
	}{
		{27, 128, 8, 8, 3}, {25, 128, 8, 8, 3}, {63, 128, 8, 8, 3}, {64, 128, 8, 8, 2}, // three columns up to 63 rows
		{150, 128, 8, 8, 2}, {1152, 256, 8, 8, 2}, {1152, 1152, 8, 8, 2}, // every preset's larger nodes
		{27, 32, 16, 16, 1}, {27, 32, 12, 8, 2}, {27, 32, 8, 16, 2}, // conv-relu on the toy arch at other precisions
		{3, 32, 12, 8, 3}, {1, 32, 8, 13, 3}, {1, 32, 8, 14, 2},
		{27, 128, 8, 18, 1}, {27, 128, 8, 17, 2},
	} {
		if got := wordFormat(tc.k, tc.most, tc.weightBits, tc.actBits); got != tc.per {
			t.Errorf("wordFormat(%d rows, %d summed, %d-bit weights, %d-bit activations) = %d columns to the word, want %d", tc.k, tc.most, tc.weightBits, tc.actBits, got, tc.per)
		}
	}
}

// FuzzMVMKernel drives mvmCase from fuzzed shapes, seeds and word formats.
func FuzzMVMKernel(f *testing.F) {
	f.Add(uint64(1), uint8(26), uint8(31), uint8(0), uint8(0), uint8(1))    // a packed 27 × 32 read, one lane
	f.Add(uint64(2), uint8(127), uint8(5), uint8(4), uint8(1), uint8(1))    // odd columns, five lanes, accumulate
	f.Add(uint64(3), uint8(7), uint8(0), uint8(8), uint8(2<<2), uint8(1))   // one column, three runs, nine lanes
	f.Add(uint64(4), uint8(99), uint8(20), uint8(6), uint8(1), uint8(0))    // one column per word
	f.Add(uint64(5), uint8(26), uint8(31), uint8(3), uint8(0), uint8(2))    // conv-relu's 27 × 32 read in three columns, four lanes
	f.Add(uint64(6), uint8(24), uint8(5), uint8(0), uint8(0), uint8(2))     // lenet5's 25 × 6 conv1
	f.Add(uint64(7), uint8(13), uint8(6), uint8(4), uint8(1<<2), uint8(2))  // seven columns: 7 ≡ 1 mod 3
	f.Add(uint64(8), uint8(40), uint8(10), uint8(2), uint8(1), uint8(2))    // eleven columns: 11 ≡ 2 mod 3
	f.Add(uint64(9), uint8(26), uint8(31), uint8(4), uint8(2), uint8(2))    // 27 × 32 with a lane past the 21-bit guard
	f.Add(uint64(10), uint8(62), uint8(13), uint8(8), uint8(2|1), uint8(2)) // 63 rows, a lane past the 21-bit guard, accumulate
	f.Add(uint64(11), uint8(127), uint8(3), uint8(1), uint8(2), uint8(1))   // 128 rows, a lane past the 32-bit guard
	f.Fuzz(mvmCase)
}
