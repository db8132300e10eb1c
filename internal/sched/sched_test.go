package sched

import (
	"fmt"
	"slices"
	"testing"

	"cimmlc/internal/arch"
	"cimmlc/internal/graph"
	"cimmlc/internal/models"
)

// sequential is a schedule of every operator once, with no pipeline, in one
// segment; it suits a model that fits the chip.
func sequential(g *graph.Graph, a *arch.Arch) *Schedule {
	var seg []int
	for _, n := range g.Nodes {
		if n.Op != graph.OpInput {
			seg = append(seg, n.ID)
		}
	}
	return &Schedule{
		Graph:    g,
		Arch:     a,
		Dup:      make([]int, len(g.Nodes)),
		Remap:    make([]int, len(g.Nodes)),
		Segments: [][]int{seg},
	}
}

func TestNewSequentialValidates(t *testing.T) {
	for _, name := range []string{"conv-relu", "lenet5", "resnet18", "vit-tiny"} {
		g, err := models.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		s := sequential(g, arch.ISAACBaseline())
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if s.Pipeline || s.Stagger {
			t.Errorf("%s: sequential schedule must disable pipelining", name)
		}
		if len(s.Segments) != 1 {
			t.Errorf("%s: sequential schedule must be one segment", name)
		}
	}
}

func TestDefaults(t *testing.T) {
	g := models.ConvReLU()
	s := sequential(g, arch.ToyExample())
	if s.DupOf(1) != 1 || s.RemapOf(1) != 1 {
		t.Fatal("defaults must be 1")
	}
	s.Dup[1] = 3
	s.Remap[1] = 2
	if s.DupOf(1) != 3 || s.RemapOf(1) != 2 {
		t.Fatal("set values not returned")
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	g := models.ConvReLU()
	a := arch.ToyExample()
	cases := []struct {
		name string
		mut  func(*Schedule)
	}{
		{"no segments", func(s *Schedule) { s.Segments = nil }},
		{"empty segment", func(s *Schedule) { s.Segments = [][]int{{}} }},
		{"input scheduled", func(s *Schedule) { s.Segments = [][]int{{0, 1, 2}} }},
		{"node missing", func(s *Schedule) { s.Segments = [][]int{{1}} }},
		{"node twice", func(s *Schedule) { s.Segments = [][]int{{1, 2}, {1}} }},
		{"bad order", func(s *Schedule) { s.Segments = [][]int{{2, 1}} }},
		{"bad id", func(s *Schedule) { s.Segments = [][]int{{1, 2, 99}} }},
		{"dup negative", func(s *Schedule) { s.Dup[1] = -1 }},
		{"dup on relu", func(s *Schedule) { s.Dup[2] = 2 }},
		{"dup of 1 on relu", func(s *Schedule) { s.Dup[2] = 1 }},
		{"dup table too long", func(s *Schedule) { s.Dup = append(s.Dup, 0) }},
		{"remap negative", func(s *Schedule) { s.Remap[1] = -1 }},
		{"remap on relu", func(s *Schedule) { s.Remap[2] = 2 }},
		{"remap table too long", func(s *Schedule) { s.Remap = make([]int, 4) }},
		{"nil graph", func(s *Schedule) { s.Graph = nil }},
	}
	for _, c := range cases {
		s := sequential(g, a)
		c.mut(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: not caught", c.name)
		}
	}
}

func TestValidateErrorsAreDeterministic(t *testing.T) {
	// Several invalid entries at once: Validate reports the one at the lowest
	// node ID, and checks Dup before Remap.
	g := models.LeNet5()
	a := arch.ToyExample()
	var cim, digital []int
	for _, n := range g.Nodes {
		switch {
		case n.Op.CIMSupported():
			cim = append(cim, n.ID)
		case n.ID > 0:
			digital = append(digital, n.ID)
		}
	}
	cases := []struct {
		name string
		mut  func(*Schedule)
		want string
	}{
		{"dup on digital nodes", func(s *Schedule) {
			for _, id := range digital[1:] {
				s.Dup[id] = 2
			}
		}, fmt.Sprintf("sched: dup set on non-CIM node %d", digital[1])},
		{"negative dups", func(s *Schedule) {
			for _, id := range cim[1:] {
				s.Dup[id] = -3
			}
		}, fmt.Sprintf("sched: node %d has dup -3", cim[1])},
		{"negative dup below a digital one", func(s *Schedule) {
			s.Dup[digital[len(digital)-1]] = 2
			s.Dup[cim[2]] = -1
		}, fmt.Sprintf("sched: node %d has dup -1", cim[2])},
		{"remap on digital nodes", func(s *Schedule) {
			for _, id := range digital[2:] {
				s.Remap[id] = 1
			}
		}, fmt.Sprintf("sched: remap set on non-CIM node %d", digital[2])},
		{"negative remaps", func(s *Schedule) {
			for _, id := range cim[2:] {
				s.Remap[id] = -2
			}
		}, fmt.Sprintf("sched: node %d has remap -2", cim[2])},
		{"dup before remap", func(s *Schedule) {
			s.Remap[cim[0]] = -1
			s.Dup[cim[len(cim)-1]] = -1
		}, fmt.Sprintf("sched: node %d has dup -1", cim[len(cim)-1])},
		{"long dup table", func(s *Schedule) {
			s.Dup = make([]int, len(g.Nodes)+1)
			s.Dup[digital[0]] = 2
		}, fmt.Sprintf("sched: dup table has %d entries for %d nodes", len(g.Nodes)+1, len(g.Nodes))},
		{"long remap table", func(s *Schedule) {
			s.Remap = append(s.Remap, 1)
		}, fmt.Sprintf("sched: remap table has %d entries for %d nodes", len(g.Nodes)+1, len(g.Nodes))},
		// The segment rules, the duplicate naming the segment that first
		// holds the node.
		{"node in two later segments", func(s *Schedule) {
			seg := s.Segments[0]
			s.Segments = [][]int{seg[:1], seg[1:4], seg[4:], {seg[2]}}
		}, fmt.Sprintf("sched: node %d in segments 1 and 3", cim[0]+2)},
		{"node twice in one segment", func(s *Schedule) {
			s.Segments[0] = append(s.Segments[0], s.Segments[0][3])
		}, fmt.Sprintf("sched: node %d in segments 0 and 0", cim[0]+3)},
		{"node before its input", func(s *Schedule) {
			seg := s.Segments[0]
			seg[0], seg[1] = seg[1], seg[0]
		}, fmt.Sprintf("sched: node %d scheduled before its input %d", cim[0]+1, cim[0])},
		{"node unscheduled", func(s *Schedule) {
			s.Segments[0] = s.Segments[0][:5]
		}, fmt.Sprintf("sched: node %d (%s) not scheduled", cim[0]+5, g.Nodes[cim[0]+5].Name)},
	}
	for _, c := range cases {
		s := sequential(g, a)
		c.mut(s)
		if err := s.Validate(); err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
	}
}

// TestNilTableIsDefault: a nil or short decision table reads as every node
// at the default, validates, and digests like a full table of zeros; a
// setter grows it to the graph's size.
func TestNilTableIsDefault(t *testing.T) {
	g := models.LeNet5()
	full := sequential(g, arch.ToyExample())
	for _, short := range [][]int{nil, {}, make([]int, 3)} {
		s := full.Clone()
		s.Dup, s.Remap = short, slices.Clone(short)
		if err := s.Validate(); err != nil {
			t.Fatalf("table %v: %v", short, err)
		}
		for _, n := range g.Nodes {
			if s.DupOf(n.ID) != 1 || s.RemapOf(n.ID) != 1 {
				t.Fatalf("table %v: node %d reads dup %d remap %d, want 1", short, n.ID, s.DupOf(n.ID), s.RemapOf(n.ID))
			}
		}
		if s.Fingerprint() != full.Fingerprint() {
			t.Fatalf("table %v digests unlike a full table of zeros", short)
		}
		cim := g.CIMNodeIDs()
		last := cim[len(cim)-1]
		s.SetDup(last, 3)
		s.SetRemap(last, 2)
		if len(s.Dup) != len(g.Nodes) || len(s.Remap) != len(g.Nodes) || s.DupOf(last) != 3 || s.RemapOf(last) != 2 {
			t.Fatalf("table %v: setters left dup %v remap %v", short, s.Dup, s.Remap)
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if full.DupOf(-1) != 1 || full.DupOf(len(g.Nodes)) != 1 {
		t.Fatal("an ID outside the table must read as the default")
	}
}

func TestValidateAllowsCrossSegmentOrder(t *testing.T) {
	g := models.ConvReLU()
	s := sequential(g, arch.ToyExample())
	s.Segments = [][]int{{1}, {2}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := models.ConvReLU()
	s := sequential(g, arch.ToyExample())
	s.Dup[1] = 2
	s.Remap[1] = 3
	c := s.Clone()
	c.Dup[1] = 9
	c.Remap[1] = 8
	c.SetDup(2, 0)
	c.Segments[0][0] = 99
	c.Pipeline = true
	if s.Dup[1] != 2 || s.Remap[1] != 3 || s.Segments[0][0] == 99 || s.Pipeline {
		t.Fatal("Clone shares state")
	}
	// Clones of one schedule must not share tables with each other either:
	// the tuner scores sibling clones in parallel.
	c1, c2 := s.Clone(), s.Clone()
	c1.Dup[1], c1.Remap[1] = 5, 5
	if c2.Dup[1] != 2 || c2.Remap[1] != 3 {
		t.Fatal("sibling clones share a table")
	}
}
