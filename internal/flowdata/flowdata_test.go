package flowdata

import (
	"reflect"
	"testing"

	"cimmlc/internal/arch"
	"cimmlc/internal/codegen"
	"cimmlc/internal/graph"
	"cimmlc/internal/mop"
)

// testEnv is a hand-laid analysis environment: a two-node graph (input →
// relu) whose layout carries two disjoint scratch slots owned by pseudo-node
// IDs. Scratch ownership only needs a layout entry, not a graph node, so
// the tests can craft arbitrary Mov streams against a geometry they fully
// control instead of fishing addresses out of a generated flow.
//
//	words [ 0, 8)  input region (preloaded)
//	words [ 8,16)  output region
//	words [16,20)  scratch A (node 100, 4 words)
//	words [20,26)  scratch B (node 101, 6 words)
type testEnv struct {
	g   *graph.Graph
	a   *arch.Arch
	lay *codegen.Layout

	in, out            int
	inBase, outBase    int64
	scrA, scrB         int64
	scrANode, scrBNode int
	scrASize, scrBSize int64
}

func newTestEnv() *testEnv {
	g := graph.New("flowdata-test")
	in := g.AddInput("in", 8)
	out := g.AddNode("relu", graph.OpReLU, []int{in}, graph.Attr{}, nil)
	if err := g.InferShapes(); err != nil {
		panic(err)
	}
	e := &testEnv{
		g: g, a: arch.ToyExample(),
		in: in, out: out,
		inBase: 0, outBase: 8,
		scrA: 16, scrB: 20,
		scrANode: 100, scrBNode: 101,
		scrASize: 4, scrBSize: 6,
	}
	e.lay = &codegen.Layout{
		Region:  make([]codegen.Area, len(g.Nodes)),
		Scratch: make([]codegen.Area, e.scrBNode+1),
		Total:   26,
		XBs:     e.a.TotalCrossbars(),
	}
	e.lay.Region[in], e.lay.Region[out] = codegen.Area{Base: e.inBase, Size: 8}, codegen.Area{Base: e.outBase, Size: 8}
	e.lay.Scratch[e.scrANode] = codegen.Area{Base: e.scrA, Size: e.scrASize}
	e.lay.Scratch[e.scrBNode] = codegen.Area{Base: e.scrB, Size: e.scrBSize}
	return e
}

// analyze runs Build over a hand-crafted body.
func (e *testEnv) analyze(body []mop.Op) *Analysis {
	fr := &codegen.Result{
		Flow:   &mop.Flow{Mode: "XBM", Graph: e.g.Name, Arch: "toy", Body: body},
		Layout: e.lay,
	}
	return Build(e.g, e.a, fr)
}

func ops(movs []mop.Mov) []mop.Op {
	out := make([]mop.Op, len(movs))
	for i, o := range movs {
		out[i] = o
	}
	return out
}

// regionIndex finds the Analysis region for (node, scratch).
func regionIndex(t *testing.T, an *Analysis, node int, scratch bool) int {
	t.Helper()
	for i, r := range an.Regions {
		if r.Node == node && r.Scratch == scratch {
			return i
		}
	}
	t.Fatalf("no region for node %d (scratch=%v)", node, scratch)
	return -1
}

func hasRule(ps []Problem, rule string) bool {
	for _, p := range ps {
		if p.Rule == rule {
			return true
		}
	}
	return false
}

// TestEmptyFlowUndefinedOutput: a flow with no instructions leaves the
// output region undefined, and the analysis stops at that problem instead
// of fabricating liveness facts.
func TestEmptyFlowUndefinedOutput(t *testing.T) {
	e := newTestEnv()
	an := e.analyze(nil)
	if !hasRule(an.Problems, RuleOutputUndef) {
		t.Fatalf("empty flow problems = %v, want %s", an.Problems, RuleOutputUndef)
	}
	if an.Dead != nil || an.Intervals != nil {
		t.Errorf("analysis of a broken flow carries liveness facts: dead=%v intervals=%v", an.Dead, an.Intervals)
	}
	if an.PeakLiveScratchWords != 0 || an.PeakLiveRegions != 0 {
		t.Errorf("peaks on a broken flow: %d words, %d regions, want 0",
			an.PeakLiveScratchWords, an.PeakLiveRegions)
	}
}

// TestEmptyFlowInputPassthrough: on a graph whose output IS a preloaded
// input, the empty flow is legal — the fixpoint over zero instructions must
// terminate with zero peaks and a zero histogram, and the shared region's
// live range collapses to the single position 0.
func TestEmptyFlowInputPassthrough(t *testing.T) {
	g := graph.New("io")
	g.AddInput("in", 4)
	fr := &codegen.Result{
		Flow:   &mop.Flow{Mode: "XBM", Graph: g.Name, Arch: "toy"},
		Layout: &codegen.Layout{Region: []codegen.Area{{Base: 0, Size: 4}}, Total: 4},
	}
	an := Build(g, arch.ToyExample(), fr)
	if len(an.Problems) != 0 {
		t.Fatalf("passthrough problems: %v", an.Problems)
	}
	if len(an.Instrs) != 0 || len(an.Dead) != 0 {
		t.Fatalf("empty flow has %d instrs, %d dead marks", len(an.Instrs), len(an.Dead))
	}
	if got := an.Intervals[0]; got != (Interval{0, 0}) {
		t.Errorf("input/output interval = %+v, want {0 0}", got)
	}
	if an.PeakLiveScratchWords != 0 || an.PeakLiveRegions != 0 || an.PeakLiveCrossbars != 0 {
		t.Errorf("peaks = %d/%d/%d, want all 0",
			an.PeakLiveScratchWords, an.PeakLiveRegions, an.PeakLiveCrossbars)
	}
	for b, n := range an.Pressure {
		if n != 0 {
			t.Errorf("pressure bucket %s = %d on an empty flow", PressureBuckets[b], n)
		}
	}
}

// TestSingleMOPFlow pins the smallest legal flow: one mov from the preloaded
// input to the output. Both regions are live at the single position, and
// nothing is dead, redundant or scratch.
func TestSingleMOPFlow(t *testing.T) {
	e := newTestEnv()
	an := e.analyze(ops([]mop.Mov{{Src: e.inBase, Dst: e.outBase, Len: 8}}))
	if len(an.Problems) != 0 {
		t.Fatalf("problems: %v", an.Problems)
	}
	if len(an.Instrs) != 1 {
		t.Fatalf("instrs = %d, want 1", len(an.Instrs))
	}
	if an.TransferWords != 8 {
		t.Errorf("transfer words = %d, want 8", an.TransferWords)
	}
	if an.Dead[0] || an.Redundant[0] {
		t.Errorf("single mov marked dead=%v redundant=%v", an.Dead[0], an.Redundant[0])
	}
	inIdx := regionIndex(t, an, e.in, false)
	outIdx := regionIndex(t, an, e.out, false)
	if an.Intervals[inIdx] != (Interval{0, 0}) || an.Intervals[outIdx] != (Interval{0, 0}) {
		t.Errorf("intervals in=%+v out=%+v, want {0 0} both", an.Intervals[inIdx], an.Intervals[outIdx])
	}
	if an.PeakLiveScratchWords != 0 || an.PeakLiveRegions != 2 {
		t.Errorf("peaks = %d scratch words, %d regions, want 0 and 2",
			an.PeakLiveScratchWords, an.PeakLiveRegions)
	}
	if an.Pressure[pressureBucket(2)] != 1 {
		t.Errorf("pressure = %v, want the one instruction in bucket %q", an.Pressure, PressureBuckets[pressureBucket(2)])
	}
}

// TestDiamondDefUse builds the diamond: one gather defines scratch A, two
// independent consumers read it into disjoint output halves. Nothing is
// removable, and scratch A stays live from the gather to the last consumer.
func TestDiamondDefUse(t *testing.T) {
	e := newTestEnv()
	an := e.analyze(ops([]mop.Mov{
		{Src: e.inBase, Dst: e.scrA, Len: 4},      // 0: gather (the diamond's top)
		{Src: e.scrA, Dst: e.outBase, Len: 4},     // 1: left consumer
		{Src: e.scrA, Dst: e.outBase + 4, Len: 4}, // 2: right consumer
	}))
	if len(an.Problems) != 0 {
		t.Fatalf("problems: %v", an.Problems)
	}
	if an.DeadCount() != 0 || an.RedundantCount() != 0 {
		t.Errorf("diamond marked %d dead, %d redundant, want none", an.DeadCount(), an.RedundantCount())
	}
	aIdx := regionIndex(t, an, e.scrANode, true)
	if an.Intervals[aIdx] != (Interval{0, 2}) {
		t.Errorf("scratch A interval = %+v, want {0 2}", an.Intervals[aIdx])
	}
	if an.PeakLiveScratchWords != e.scrASize {
		t.Errorf("peak scratch = %d, want %d", an.PeakLiveScratchWords, e.scrASize)
	}
}

// TestScratchDisjointVsInterleavedRanges: sequential fill/consume pairs give
// the two scratch regions disjoint live ranges (peak = the larger slot),
// while interleaving the fills overlaps them (peak = the sum).
func TestScratchDisjointVsInterleavedRanges(t *testing.T) {
	e := newTestEnv()

	an := e.analyze(ops([]mop.Mov{
		{Src: e.inBase, Dst: e.scrA, Len: 4},      // 0: fill A
		{Src: e.scrA, Dst: e.outBase, Len: 4},     // 1: consume A
		{Src: e.inBase + 4, Dst: e.scrB, Len: 4},  // 2: fill B
		{Src: e.scrB, Dst: e.outBase + 4, Len: 4}, // 3: consume B
	}))
	if len(an.Problems) != 0 {
		t.Fatalf("disjoint problems: %v", an.Problems)
	}
	aIdx := regionIndex(t, an, e.scrANode, true)
	bIdx := regionIndex(t, an, e.scrBNode, true)
	if an.Intervals[aIdx] != (Interval{0, 1}) || an.Intervals[bIdx] != (Interval{2, 3}) {
		t.Errorf("intervals A=%+v B=%+v, want {0 1} and {2 3}", an.Intervals[aIdx], an.Intervals[bIdx])
	}
	if an.PeakLiveScratchWords != e.scrBSize {
		t.Errorf("disjoint peak = %d scratch words, want the larger slot %d, not the sum %d",
			an.PeakLiveScratchWords, e.scrBSize, e.scrASize+e.scrBSize)
	}

	an = e.analyze(ops([]mop.Mov{
		{Src: e.inBase, Dst: e.scrA, Len: 4},      // 0: fill A
		{Src: e.inBase + 4, Dst: e.scrB, Len: 4},  // 1: fill B (A still pending)
		{Src: e.scrA, Dst: e.outBase, Len: 4},     // 2: consume A
		{Src: e.scrB, Dst: e.outBase + 4, Len: 4}, // 3: consume B
	}))
	if len(an.Problems) != 0 {
		t.Fatalf("interleaved problems: %v", an.Problems)
	}
	aIdx, bIdx = regionIndex(t, an, e.scrANode, true), regionIndex(t, an, e.scrBNode, true)
	if an.Intervals[aIdx] != (Interval{0, 2}) || an.Intervals[bIdx] != (Interval{1, 3}) {
		t.Errorf("interleaved intervals A=%+v B=%+v, want {0 2} and {1 3}", an.Intervals[aIdx], an.Intervals[bIdx])
	}
	if an.PeakLiveScratchWords != e.scrASize+e.scrBSize {
		t.Errorf("interleaved peak = %d scratch words, want the sum %d",
			an.PeakLiveScratchWords, e.scrASize+e.scrBSize)
	}
}

// TestAliasedScratchSlotConservative: in codegen's shared arena two scratch
// regions share addresses. The analysis cannot tell which owner a word
// access means, so every containing region goes conservatively live: the
// aliased slots' live ranges coincide.
func TestAliasedScratchSlotConservative(t *testing.T) {
	e := newTestEnv()
	e.lay.Scratch[e.scrBNode] = e.lay.Scratch[e.scrANode] // B now aliases A's slot exactly
	an := e.analyze(ops([]mop.Mov{
		{Src: e.inBase, Dst: e.scrA, Len: 4},      // 0: fill the slot (for A)
		{Src: e.scrA, Dst: e.outBase, Len: 4},     // 1: consume
		{Src: e.inBase + 4, Dst: e.scrA, Len: 4},  // 2: refill the slot (for B)
		{Src: e.scrA, Dst: e.outBase + 4, Len: 4}, // 3: consume
	}))
	if len(an.Problems) != 0 {
		t.Fatalf("aliased problems: %v", an.Problems)
	}
	aIdx := regionIndex(t, an, e.scrANode, true)
	bIdx := regionIndex(t, an, e.scrBNode, true)
	if an.Intervals[aIdx] != (Interval{0, 3}) || an.Intervals[bIdx] != (Interval{0, 3}) {
		t.Errorf("aliased intervals A=%+v B=%+v, want {0 3} both", an.Intervals[aIdx], an.Intervals[bIdx])
	}
	if an.PeakLiveScratchWords != 2*e.scrASize {
		t.Errorf("aliased peak = %d, want both regions counted (%d)", an.PeakLiveScratchWords, 2*e.scrASize)
	}
}

// naiveRef recomputes every liveness-derived fact of a Mov-only body with
// direct O(n²) scans — per-word forward searches for redundancy, an
// iterate-to-fixpoint dead set, and a per-position region count — sharing no
// code with the single-sweep passes under test beyond the region geometry.
type naiveRef struct {
	dead, redundant []bool
	intervals       []Interval
	peakScratch     int64
	peakRegions     int
	pressure        [len(PressureBuckets)]int64
	transferWords   int64
}

func computeNaiveRef(e *testEnv, regions []*Region, body []mop.Mov) naiveRef {
	n := len(body)
	ref := naiveRef{
		dead:      make([]bool, n),
		redundant: make([]bool, n),
		intervals: make([]Interval, len(regions)),
	}
	words := e.lay.Total
	isNode := make([]bool, words)
	nodeRegionAt := make([]int, words)
	for w := range nodeRegionAt {
		nodeRegionAt[w] = -1
	}
	for ri, r := range regions {
		if r.Scratch {
			continue
		}
		for w := r.Base; w < r.End(); w++ {
			isNode[w] = true
			nodeRegionAt[w] = ri
		}
	}
	live := func(o mop.Mov) bool { return o.Len > 0 }
	for _, o := range body {
		if live(o) {
			ref.transferWords += o.Len
		}
	}

	// Redundancy, forward: a transfer identical to the latest surviving one
	// is redundant iff none of its source words (region-granular for node
	// regions) nor destination words changed hands since that survivor ran.
	writer := make([]int, words)
	nodeStamp := make([]int, len(regions))
	for w := range writer {
		writer[w] = -1
	}
	for ri := range nodeStamp {
		nodeStamp[ri] = -1
	}
	for _, id := range e.g.InputIDs() {
		for ri, r := range regions {
			if r.Scratch || r.Node != id {
				continue
			}
			for w := r.Base; w < r.End(); w++ {
				writer[w] = -2
			}
			_ = ri
		}
	}
	unchanged := func(cand int, o mop.Mov) bool {
		for w := o.Src; w < o.Src+o.Len; w++ {
			if isNode[w] {
				if nodeStamp[nodeRegionAt[w]] >= cand {
					return false
				}
			} else if writer[w] >= cand {
				return false
			}
		}
		for w := o.Dst; w < o.Dst+o.Len; w++ {
			if writer[w] != cand {
				return false
			}
			if isNode[w] && nodeStamp[nodeRegionAt[w]] != cand {
				return false
			}
		}
		return true
	}
	last := map[mop.Mov]int{}
	for i, o := range body {
		if !live(o) {
			continue
		}
		cand, seen := last[o]
		if seen && unchanged(cand, o) {
			ref.redundant[i] = true
			continue
		}
		last[o] = i
		for w := o.Dst; w < o.Dst+o.Len; w++ {
			writer[w] = i
		}
		if ri := nodeRegionAt[o.Dst]; ri >= 0 {
			nodeStamp[ri] = i
		}
	}

	// Deadness, iterate to fixpoint: a surviving scratch-writing transfer is
	// dead when no written word reaches a surviving reader before a surviving
	// overwrite. Marking one dead can orphan its producers, so re-scan.
	deletable := func(o mop.Mov) bool { return live(o) && !isNode[o.Dst] }
	observed := func(i int) bool {
		o := body[i]
		for w := o.Dst; w < o.Dst+o.Len; w++ {
			for j := i + 1; j < n; j++ {
				if ref.dead[j] || ref.redundant[j] || !live(body[j]) {
					continue
				}
				oj := body[j]
				if oj.Src <= w && w < oj.Src+oj.Len {
					return true
				}
				if oj.Dst <= w && w < oj.Dst+oj.Len {
					break
				}
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for i := range body {
			if ref.dead[i] || ref.redundant[i] || !deletable(body[i]) {
				continue
			}
			if !observed(i) {
				ref.dead[i] = true
				changed = true
			}
		}
	}

	// Live ranges over the surviving stream; a span starting in a node
	// region touches it alone, a scratch span touches every containing slot.
	for ri := range ref.intervals {
		ref.intervals[ri] = Interval{-1, -1}
	}
	touch := func(ri, i int) {
		if ref.intervals[ri].First < 0 {
			ref.intervals[ri].First = i
		}
		ref.intervals[ri].Last = i
	}
	touchSpan := func(lo, ln int64, i int) {
		if ln <= 0 {
			return
		}
		if ri := nodeRegionAt[lo]; ri >= 0 {
			touch(ri, i)
			return
		}
		for ri, r := range regions {
			if r.Scratch && r.Base <= lo && lo+ln <= r.End() {
				touch(ri, i)
			}
		}
	}
	for i, o := range body {
		if ref.dead[i] || ref.redundant[i] {
			continue
		}
		touchSpan(o.Src, o.Len, i)
		touchSpan(o.Dst, o.Len, i)
	}
	end := n - 1
	if end < 0 {
		end = 0
	}
	boundary := func(id int, input bool) {
		for ri, r := range regions {
			if r.Scratch || r.Node != id {
				continue
			}
			if input {
				ref.intervals[ri].First = 0
				if ref.intervals[ri].Last < 0 {
					ref.intervals[ri].Last = 0
				}
			} else {
				if ref.intervals[ri].First < 0 {
					ref.intervals[ri].First = 0
				}
				ref.intervals[ri].Last = end
			}
		}
	}
	for _, id := range e.g.InputIDs() {
		boundary(id, true)
	}
	for _, id := range e.g.Outputs() {
		boundary(id, false)
	}

	// Peaks and pressure by brute force: count at every position.
	for pos := 0; pos < n; pos++ {
		liveR := 0
		var liveW int64
		for ri, r := range regions {
			iv := ref.intervals[ri]
			if iv.First >= 0 && iv.First <= pos && pos <= iv.Last {
				liveR++
				if r.Scratch {
					liveW += r.Size
				}
			}
		}
		if liveR > ref.peakRegions {
			ref.peakRegions = liveR
		}
		if liveW > ref.peakScratch {
			ref.peakScratch = liveW
		}
		ref.pressure[pressureBucket(liveR)]++
	}
	return ref
}

// TestLivenessOracle cross-checks the single-sweep passes (backward
// liveness, forward redundancy, the event-sweep peaks) against the naive
// reference on hand-built Mov streams, alongside explicit expectations so a
// shared bug in both implementations cannot hide.
func TestLivenessOracle(t *testing.T) {
	cases := []struct {
		name     string
		body     []mop.Mov
		wantDead []int // indices expected dead (cascades included)
		wantRed  []int // indices expected redundant
	}{
		{
			name: "single-mov",
			body: []mop.Mov{{Src: 0, Dst: 8, Len: 8}},
		},
		{
			name: "diamond",
			body: []mop.Mov{
				{Src: 0, Dst: 16, Len: 4},
				{Src: 16, Dst: 8, Len: 4},
				{Src: 16, Dst: 12, Len: 4},
			},
		},
		{
			name: "disjoint-slot-reuse",
			body: []mop.Mov{
				{Src: 0, Dst: 16, Len: 4},
				{Src: 16, Dst: 8, Len: 4},
				{Src: 4, Dst: 20, Len: 4},
				{Src: 20, Dst: 12, Len: 4},
			},
		},
		{
			name: "interleaved-slots",
			body: []mop.Mov{
				{Src: 0, Dst: 16, Len: 4},
				{Src: 4, Dst: 20, Len: 4},
				{Src: 16, Dst: 8, Len: 4},
				{Src: 20, Dst: 12, Len: 4},
			},
		},
		{
			name: "dead-chain-cascade",
			body: []mop.Mov{
				{Src: 0, Dst: 16, Len: 4},  // 0: feeds only the dead copy below
				{Src: 16, Dst: 20, Len: 4}, // 1: scratch→scratch, never read
				{Src: 0, Dst: 8, Len: 8},   // 2: the real output
			},
			wantDead: []int{0, 1},
		},
		{
			name: "overwrite-kills-first-fill",
			body: []mop.Mov{
				{Src: 0, Dst: 16, Len: 4}, // 0: clobbered before any read
				{Src: 4, Dst: 16, Len: 4}, // 1: the fill that is consumed
				{Src: 16, Dst: 8, Len: 4},
				{Src: 4, Dst: 12, Len: 4},
			},
			wantDead: []int{0},
		},
		{
			name: "partial-overwrite-keeps-fill",
			body: []mop.Mov{
				{Src: 0, Dst: 16, Len: 4}, // 0: words [18,20) still reach the read
				{Src: 4, Dst: 16, Len: 2}, // 1: overwrites only half
				{Src: 16, Dst: 8, Len: 4},
				{Src: 4, Dst: 12, Len: 4},
			},
		},
		{
			name: "redundant-pair",
			body: []mop.Mov{
				{Src: 0, Dst: 16, Len: 4},
				{Src: 0, Dst: 16, Len: 4}, // 1: byte-identical re-transfer
				{Src: 16, Dst: 8, Len: 4},
				{Src: 4, Dst: 12, Len: 4},
			},
			wantRed: []int{1},
		},
		{
			name: "redundant-triple-one-survivor",
			body: []mop.Mov{
				{Src: 0, Dst: 16, Len: 4},
				{Src: 0, Dst: 16, Len: 4}, // 1: resolves against 0
				{Src: 0, Dst: 16, Len: 4}, // 2: still against 0, not 1
				{Src: 16, Dst: 8, Len: 4},
				{Src: 4, Dst: 12, Len: 4},
			},
			wantRed: []int{1, 2},
		},
		{
			name: "refill-breaks-redundancy",
			body: []mop.Mov{
				{Src: 0, Dst: 16, Len: 4}, // 0: dead — fully re-filled by 2
				{Src: 4, Dst: 16, Len: 4}, // 1: dead — also re-filled by 2
				{Src: 0, Dst: 16, Len: 4}, // 2: identical to 0 but dst changed hands: NOT redundant
				{Src: 16, Dst: 8, Len: 4},
				{Src: 4, Dst: 12, Len: 4},
			},
			wantDead: []int{0, 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEnv()
			an := e.analyze(ops(tc.body))
			if got, want := len(an.Problems), len(tc.wantDead)+len(tc.wantRed); got != want {
				t.Fatalf("problems: %v, want %d", an.Problems, want)
			}
			wantDead := indexSet(tc.wantDead, len(tc.body))
			wantRed := indexSet(tc.wantRed, len(tc.body))
			if !reflect.DeepEqual(an.Dead, wantDead) {
				t.Errorf("dead = %v, want %v", an.Dead, wantDead)
			}
			if !reflect.DeepEqual(an.Redundant, wantRed) {
				t.Errorf("redundant = %v, want %v", an.Redundant, wantRed)
			}

			ref := computeNaiveRef(e, an.Regions, tc.body)
			if !reflect.DeepEqual(an.Dead, ref.dead) {
				t.Errorf("dead = %v, naive reference = %v", an.Dead, ref.dead)
			}
			if !reflect.DeepEqual(an.Redundant, ref.redundant) {
				t.Errorf("redundant = %v, naive reference = %v", an.Redundant, ref.redundant)
			}
			if !reflect.DeepEqual(an.Intervals, ref.intervals) {
				t.Errorf("intervals = %+v, naive reference = %+v", an.Intervals, ref.intervals)
			}
			if an.PeakLiveScratchWords != ref.peakScratch {
				t.Errorf("peak scratch = %d, naive reference = %d", an.PeakLiveScratchWords, ref.peakScratch)
			}
			if an.PeakLiveRegions != ref.peakRegions {
				t.Errorf("peak regions = %d, naive reference = %d", an.PeakLiveRegions, ref.peakRegions)
			}
			if an.Pressure != ref.pressure {
				t.Errorf("pressure = %v, naive reference = %v", an.Pressure, ref.pressure)
			}
			if an.TransferWords != ref.transferWords {
				t.Errorf("transfer words = %d, naive reference = %d", an.TransferWords, ref.transferWords)
			}

			// The problems are exactly the dead/redundant marks.
			if got := countRule(an.Problems, RuleDeadMOP); got != len(tc.wantDead) {
				t.Errorf("%s problems = %d, want %d", RuleDeadMOP, got, len(tc.wantDead))
			}
			if got := countRule(an.Problems, RuleRedundant); got != len(tc.wantRed) {
				t.Errorf("%s problems = %d, want %d", RuleRedundant, got, len(tc.wantRed))
			}
		})
	}
}

func indexSet(idx []int, n int) []bool {
	out := make([]bool, n)
	for _, i := range idx {
		out[i] = true
	}
	return out
}

func countRule(ps []Problem, rule string) int {
	n := 0
	for _, p := range ps {
		if p.Rule == rule {
			n++
		}
	}
	return n
}
