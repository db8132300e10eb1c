package conformance

import (
	"context"
	"testing"

	"cimmlc"
	"cimmlc/internal/arch"
	"cimmlc/internal/mop"
)

// TestReloadIsTheFlowsWrites: on every short-zoo cell lowered at XBM and WLM
// (each CIM stage of a staged one), the simulator charges for programming
// crossbars exactly what the flow writes. The Body's writexb / writerow ops
// are grouped by (segment, round) — one run of writes per node and round —
// and summed per core; each group costs its busiest core's wordlines. Each
// segment after the first pays its first round before it, which the
// report's ReloadCycles sums in segment order; an oversized operator's
// later rounds are its OpCost.Reload. The init section, segment 0's first
// round, is free: it holds segment 0's writes only.
func TestReloadIsTheFlowsWrites(t *testing.T) {
	cfg := ShortConfig()
	groups, wrapped := 0, 0
	for _, cell := range shortCells(cfg) {
		if cell.Level == arch.CM {
			continue // a core-mode flow programs no crossbar: cim.readcore only
		}
		c, a, stages, winCap := compileStages(t, cell, cfg)
		for _, st := range stages {
			g, w := checkReloads(t, cell, c, a, st, winCap)
			groups, wrapped = groups+g, wrapped+w
		}
	}
	t.Logf("%d programming steps priced from the flows, %d oversized operators' later rounds", groups, wrapped)
	if wrapped == 0 {
		t.Error("no cell holds an oversized operator: the later rounds went unchecked")
	}
}

// checkReloads holds one stage's report and cost model to its flow's weight
// writes and returns the (segment, round) groups it priced and the
// operators whose later rounds it did.
func checkReloads(t *testing.T, cell Cell, c *cimmlc.Compiler, a *cimmlc.Arch, st stage, winCap int64) (groups, wrapped int) {
	t.Helper()
	fr, err := c.Lower(context.Background(), st.g, st.res, cimmlc.CodegenOptions{MaxWindowsPerOp: winCap})
	if err != nil {
		t.Fatal(err)
	}
	s, m := st.res.Schedule, st.res.Model
	segOf := make([]int, len(s.Graph.Nodes))
	for seg, nodes := range s.Segments {
		for _, id := range nodes {
			segOf[id] = seg
		}
	}
	write := func(op mop.Op) (node, xb, rows int, ok bool) {
		switch w := op.(type) {
		case mop.WriteXB:
			return w.Node, w.XB, w.Rows, true
		case mop.WriteRow:
			return w.Node, w.XB, w.NumRows, true
		}
		return 0, 0, 0, false
	}
	for _, op := range fr.Flow.Init {
		if node, _, _, ok := write(op); ok && segOf[node] != 0 {
			t.Fatalf("%s: init programs node %d of segment %d", cell.Key(), node, segOf[node])
		}
	}
	type group struct{ seg, round int }
	perCore := map[[3]int]int{} // (segment, round, core) → wordlines
	busiest := map[group]int{}
	runs := make([]int, len(s.Graph.Nodes)) // runs of writes seen per node
	inRun := -1                             // the node whose run of writes the last op extends
	for _, op := range fr.Flow.Body {
		node, xb, rows, ok := write(op)
		if !ok {
			inRun = -1
			continue
		}
		if node != inRun {
			runs[node]++
			inRun = node
		}
		round := runs[node] - 1
		if segOf[node] == 0 {
			round++ // segment 0's first round is the init section
		}
		g := group{segOf[node], round}
		k := [3]int{g.seg, g.round, xb / a.Core.XBCount()}
		perCore[k] += rows
		busiest[g] = max(busiest[g], perCore[k])
	}
	reload := 0.0
	for seg := 1; seg < len(s.Segments); seg++ {
		reload += m.Program(busiest[group{seg, 0}])
	}
	if got := st.res.Report.ReloadCycles; got != reload {
		t.Errorf("%s: report reloads %v cycles, the flow's segments write %v", cell.Key(), got, reload)
	}
	for _, id := range s.Graph.CIMNodeIDs() {
		if m.FPs[id].Rounds > 1 {
			wrapped++
		}
		later := 0
		for r := 1; ; r++ {
			w, ok := busiest[group{segOf[id], r}]
			if !ok {
				break
			}
			later += w
		}
		oc, err := m.CIMOp(id, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if want := m.Program(later); oc.Reload != want {
			t.Errorf("%s node %d: %d rounds reload %v cycles, the flow's later rounds write %d wordlines: %v", cell.Key(), id, oc.Rounds, oc.Reload, later, want)
		}
	}
	return len(busiest), wrapped
}
