package flowdata

import (
	"sort"

	"cimmlc/internal/codegen"
)

// backwardLiveness runs the backward scratch-liveness pass and marks dead
// instructions. Node-region words are permanently observable — Program
// extracts every node's activation after a run and funcsim's settleNode re-reads
// whole regions — so only scratch words participate in the kill/gen lattice,
// and only pure scratch-writing transfers are deletion candidates. One
// reverse sweep is the fixpoint: the flow is straight-line, and skipping a
// freshly dead instruction's reads cascades deadness to its producers
// within the same pass.
func (m *machine) backwardLiveness(an *Analysis) {
	dead := make([]bool, len(m.instrs))
	live := make([]bool, m.lay.Total)
	for i := len(m.instrs) - 1; i >= 0; i-- {
		if m.redundant[i] {
			continue // deleted before execution: no reads to gen, no writes to kill
		}
		eff := m.effects[i]
		// Only single-span scratch transfers are deletable or killing.
		dst := eff.Writes.Span
		if m.instrs[i].Group < 0 && m.deletable(eff) {
			any := false
			for k := int64(0); k < dst.Count && !any; k++ {
				any = live[dst.Word(k)]
			}
			if !any {
				dead[i] = true
				continue
			}
		}
		// Accumulating writes preserve the prior value: no kill.
		if eff.Writes.Rep > 0 && !eff.Acc && m.regions[eff.WriteRegion].Scratch {
			for k := int64(0); k < dst.Count; k++ {
				live[dst.Word(k)] = false
			}
		}
		if eff.Reads.Count > 0 && m.regions[eff.ReadRegion].Scratch {
			for k := int64(0); k < eff.Reads.Count; k++ {
				live[eff.Reads.Word(k)] = true
			}
		}
	}
	an.Dead = dead
}

// deletable reports whether an effect is a candidate for dead-code removal:
// a plain transfer (mov / mov_window) writing only scratch words. Weight
// writes write no word; a crossbar read writes its node's region.
func (m *machine) deletable(eff effect) bool {
	return eff.Writes.Rep > 0 && !eff.Acc && m.regions[eff.WriteRegion].Scratch
}

// liveRanges computes region live ranges over the surviving instruction
// stream (dead and redundant instructions excluded), then sweeps the
// timeline once for peak live scratch, peak live regions and the pressure
// histogram.
func (m *machine) liveRanges(an *Analysis) {
	iv := make([]Interval, len(m.regions))
	for i := range iv {
		iv[i] = Interval{-1, -1}
	}
	touch := func(idx, i int) {
		if iv[idx].First < 0 {
			iv[idx].First = i
		}
		iv[idx].Last = i
	}
	// touchSpan marks the region holding a span; for aliased scratch, every
	// containing region is (conservatively) live.
	touchSpan := func(sp codegen.Span, region, i int) {
		if !m.regions[region].Scratch {
			touch(region, i)
			return
		}
		for idx, r := range m.regions {
			if r.Scratch && r.Base <= sp.Lo && sp.End() <= r.End() {
				touch(idx, i)
			}
		}
	}
	for i := range m.instrs {
		if an.Dead[i] || m.redundant[i] {
			continue
		}
		eff := m.effects[i]
		if eff.Reads.Count > 0 {
			touchSpan(eff.Reads, eff.ReadRegion, i)
		}
		for _, id := range eff.RegionReads {
			touch(m.res.NodeRegion(id), i)
		}
		for r := int64(0); r < eff.Writes.Rep; r++ {
			touchSpan(eff.Writes.Row(r), eff.WriteRegion, i)
		}
	}
	end := len(m.instrs) - 1
	if end < 0 {
		end = 0
	}
	for _, id := range m.g.InputIDs() {
		idx := m.res.NodeRegion(id)
		iv[idx].First = 0
		if iv[idx].Last < 0 {
			iv[idx].Last = 0
		}
	}
	for _, id := range m.g.Outputs() {
		idx := m.res.NodeRegion(id)
		if iv[idx].First < 0 {
			iv[idx].First = 0
		}
		iv[idx].Last = end
	}
	an.Intervals = iv

	n := len(m.instrs)
	type ev struct {
		pos int
		dR  int
		dW  int64
	}
	var evs []ev
	for idx, r := range m.regions {
		if !iv[idx].Live() {
			continue
		}
		var w int64
		if r.Scratch {
			w = r.Size
		}
		evs = append(evs, ev{iv[idx].First, 1, w}, ev{iv[idx].Last + 1, -1, -w})
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
	var curR, peakR int
	var curW, peakW int64
	k, pos := 0, 0
	for pos < n {
		for k < len(evs) && evs[k].pos <= pos {
			curR += evs[k].dR
			curW += evs[k].dW
			k++
		}
		next := n
		if k < len(evs) && evs[k].pos < n {
			next = evs[k].pos
		}
		if curR > peakR {
			peakR = curR
		}
		if curW > peakW {
			peakW = curW
		}
		an.Pressure[pressureBucket(curR)] += int64(next - pos)
		pos = next
	}
	an.PeakLiveScratchWords = peakW
	an.PeakLiveRegions = peakR
}

// crossbarPressure sweeps the crossbar programming epochs — [first write,
// last read] per programming, epochs nothing ever read excluded — for the
// peak number of crossbars whose contents still matter.
func (m *machine) crossbarPressure(an *Analysis) {
	spans := append([]Interval(nil), m.xbSpans...)
	for xb := range m.xbFirst {
		if m.xbRead[xb] >= 0 {
			spans = append(spans, Interval{int(m.xbFirst[xb]), int(m.xbRead[xb])})
		}
	}
	type ev struct{ pos, d int }
	evs := make([]ev, 0, 2*len(spans))
	for _, s := range spans {
		evs = append(evs, ev{s.First, 1}, ev{s.Last + 1, -1})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].pos != evs[j].pos {
			return evs[i].pos < evs[j].pos
		}
		return evs[i].d < evs[j].d // releases before acquires at the same tick
	})
	cur, peak := 0, 0
	for _, e := range evs {
		cur += e.d
		if cur > peak {
			peak = cur
		}
	}
	an.PeakLiveCrossbars = peak
}
