package mapping

import "cimmlc/internal/arch"

// This file counts what programming a placement writes. Codegen programs a
// tile as one write of its wordlines (writexb / writerow of Tile.Rows rows);
// each core owns one write port, so its tiles program one after another,
// while cores program in parallel. A programming step — a segment's first
// round, or a later round of an operator that wraps — therefore takes as
// long as its busiest core's wordlines: the sum of Tile.Rows over that
// core's tiles of the round.
//
// The tiles of an extent take consecutive slots (Extent.tiles), and a tile's
// wordlines depend only on its row stripe and sub-tile, so the wordlines
// along the slots are runs TilesC long: a full stripe's sub-tiles, TilesR−1
// times, then the last stripe's, then the slots up to the next copy empty.
// A core is XBCount slots from a core boundary. Its wordlines are a
// difference of the closed-form prefix upTo; which cores can be the busiest
// follows from where the runs start and from the period the copies repeat at
// relative to the cores, so no tile is walked.

// rowSeq is the wordlines one extent writes, slot by slot.
type rowSeq struct {
	tc              int // slots of one sub-tile row: the column tiles
	xbRows          int // wordlines of a full stripe
	nFull, subFull  int // a full stripe's sub-tiles and their wordlines (the last holds the rest)
	lastRows        int // wordlines of the last stripe
	nLast, subLast  int // its sub-tiles and their wordlines
	fullEnd, tiles  int // slots of one copy's full stripes, and of all its tiles
	stride, slots   int // slots between copy starts, and from the first tile to past the last
	stripes, copies int // full stripes per copy, and copies
	perCopy         int // wordlines of one copy
}

// newRowSeq describes d copies of f at remap m, stride slots apart.
func newRowSeq(a *arch.Arch, f *Footprint, d, m, stride int) rowSeq {
	lastRows := f.TileRows(f.TilesR-1, a)
	// At remap 1 a stripe is one sub-tile: no division needed.
	nFull, subFull, nLast, subLast, tiles := 1, a.XB.Rows, 1, lastRows, f.TilesR*f.TilesC
	if m != 1 {
		nFull, subFull = subTiles(a.XB.Rows, m)
		nLast, subLast = subTiles(lastRows, m)
		tiles = f.CopyTiles(a, m)
	}
	return rowSeq{
		tc:     f.TilesC,
		xbRows: a.XB.Rows, nFull: nFull, subFull: subFull,
		lastRows: lastRows, nLast: nLast, subLast: subLast,
		fullEnd: (f.TilesR - 1) * nFull * f.TilesC, tiles: tiles,
		stride: stride, slots: (d-1)*stride + tiles,
		stripes: f.TilesR - 1, copies: d,
		perCopy: f.Rows * f.TilesC,
	}
}

// stripeRows returns the wordlines of the first u slots of a stripe of rows
// wordlines cut into n sub-tiles of sub wordlines, the last holding the rest.
func (q *rowSeq) stripeRows(u, rows, n, sub int) int {
	j, rem := u/q.tc, u%q.tc
	w := min(j*sub, rows) * q.tc
	if j < n {
		w += rem * min(sub, rows-j*sub)
	}
	return w
}

// upTo returns the wordlines of slots [0, s), s ≤ slots.
func (q *rowSeq) upTo(s int) int {
	c, o := s/q.stride, min(s%q.stride, q.tiles)
	w := c * q.perCopy
	if o < q.fullEnd {
		lf := q.nFull * q.tc
		return w + o/lf*q.xbRows*q.tc + q.stripeRows(o%lf, q.xbRows, q.nFull, q.subFull)
	}
	return w + q.stripes*q.xbRows*q.tc + q.stripeRows(o-q.fullEnd, q.lastRows, q.nLast, q.subLast)
}

// busiest returns the most wordlines one core writes, over every core the
// slots reach from slot 0, x slots a core; the extent must not wrap.
//
// A core holds the start of a copy, of a last-stripe sub-tile or of the
// empty slots after a copy; or it lies inside one copy's full stripes; or
// inside one last-stripe sub-tile's run, where it writes what the core after
// the run's first core writes; or it writes nothing. A full stripe's
// sub-tiles never grow, so no x slots of the full stripes write more than the
// first x of them, which core 0 holds whenever a core fits in them. So the
// busiest core is core 0 or one that holds a start, or the core after it.
// Copy c + x/gcd(stride, x) starts at the same place in its core as copy c,
// and the slots after it write what those after copy c do, or nothing past
// the end: only the first x/gcd(stride, x) copies are looked at. The work is
// bounded by x and the last stripe's sub-tiles, not by the tiles. It stops at
// the most a core can write.
func (q *rowSeq) busiest(x int) int {
	top := q.subLast
	if q.stripes > 0 {
		top = q.subFull
	}
	bound := min(min(x, q.slots)*top, q.copies*q.perCopy)
	best := 0
	// try looks at the core holding slot s and the one after it. The slots
	// come in increasing order, so each core is looked at once, and a core
	// starts where the one before it ended: its prefix is reused.
	next, end, upToEnd := 0, 0, 0
	try := func(s int) {
		for k := max(s/x, next); k <= s/x+1 && k*x < q.slots && best < bound; k++ {
			lo, hi := k*x, min(k*x+x, q.slots)
			w := q.upTo(hi)
			if lo != end {
				upToEnd = q.upTo(lo)
			}
			best, next, end = max(best, w-upToEnd), k+1, hi
			upToEnd = w
		}
	}
	for c := 0; c < min(q.copies, x/gcd(q.stride, x)) && best < bound; c++ {
		base := c * q.stride
		try(base)
		for j := 0; j < q.nLast; j++ {
			try(base + q.fullEnd + j*q.tc)
		}
		try(base + q.tiles)
	}
	return best
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// undivided is upTo for one copy at remap 1: full stripes of xbRows
// wordlines a tile, then the last stripe's tiles of lastRows.
func (q *rowSeq) undivided(s int) int {
	return min(s, q.fullEnd)*q.xbRows + max(0, min(s, q.slots)-q.fullEnd)*q.lastRows
}

// roundRows returns the most wordlines one core writes in round r of one
// undivided copy at remap 1 whose window is w slots. Its slots are one run
// of full stripes, then the last stripe's TilesC tiles: a round whose first
// core lies in the full stripes has that core as its busiest, x full
// crossbars; in any other only its first core can reach back into them.
func (q *rowSeq) roundRows(x, w, r int) int {
	lo, hi := r*w, min((r+1)*w, q.slots)
	if lo+x <= q.fullEnd {
		return x * q.xbRows
	}
	first := q.undivided(min(lo+x, hi)) - q.undivided(lo)
	if lo+x >= hi {
		return first
	}
	return max(first, min(x, hi-lo-x)*q.lastRows)
}

// laterRoundRows sums roundRows over rounds 1 … R−1 of one undivided copy at
// remap 1 with a window of w slots, R the rounds it wraps into. Rounds whose
// first core lies in the full stripes write x full crossbars each; of the
// rest only the first and the last can differ from x crossbars of the last
// stripe, so the sum is closed-form whatever the stripe count.
func (q *rowSeq) laterRoundRows(x, w int) int {
	rounds := ceilDiv(q.slots, w)
	full := 0
	if q.fullEnd >= x {
		full = min(rounds-1, (q.fullEnd-x)/w)
	}
	sum := full * x * q.xbRows
	if r := full + 1; r < rounds {
		sum += q.roundRows(x, w, r)
		if last := rounds - 1; last > r {
			sum += q.roundRows(x, w, last) + (last-r-1)*x*q.lastRows
		}
	}
	return sum
}

// wordlines returns the most wordlines one core of e writes in its first
// round, the one its segment's programming writes.
func (e *Extent) wordlines(a *arch.Arch, f *Footprint) int {
	x := a.Core.XBCount()
	q := newRowSeq(a, f, e.Dup, e.Remap, e.Stride)
	if q.tc < 1 || q.stride < 1 {
		return 0 // no tiles: only a footprint that fails validate has none
	}
	if e.Dup == 1 && e.Remap == 1 {
		// The only extent that may wrap: its first round is O(1).
		return q.roundRows(x, e.Window, 0)
	}
	return q.busiest(x)
}

// Wordlines returns what programming one copy of f at remap 1, packed from
// core 0, writes on its busiest core: in its first round, and summed over
// the rounds after it (0 unless f is oversized). The first is what a segment
// that starts with the copy pays to program it; the sum, what the operator
// pays to reload itself round by round.
func (f *Footprint) Wordlines(a *arch.Arch) (first, later int) {
	x, w := a.Core.XBCount(), a.TotalCrossbars()
	q := newRowSeq(a, f, 1, 1, f.TilesR*f.TilesC) // one copy: its tiles, as many at remap 1
	return q.roundRows(x, w, 0), q.laterRoundRows(x, w)
}
