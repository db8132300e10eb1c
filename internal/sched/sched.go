// Package sched defines the scheduling decision record the multi-level
// optimizers fill in and the simulators consume.
//
// A Schedule captures everything CIM-MLC decides about a model on a machine:
// per-operator duplication (CG-grained, §3.3.2, refined by MVM-grained
// Equation 1, §3.3.3), WLM remap factors (VVM-grained, §3.3.4), whether
// inter-operator pipelining and staggered crossbar activation are enabled,
// and the resource-adaptive graph segmentation.
package sched

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"

	"cimmlc/internal/arch"
	"cimmlc/internal/graph"
)

// Schedule is the complete scheduling decision for one (graph, arch) pair.
type Schedule struct {
	Graph *graph.Graph
	Arch  *arch.Arch

	// Dup is indexed by node ID: a CIM node's number of spatially concurrent
	// copies (≥1). After CG-grained optimization it counts core-granularity
	// copies; MVM-grained optimization raises it to crossbar-granularity
	// packing (Equation 1's D′). 0, like an entry past the table's end, means
	// unset: the default, 1.
	Dup []int

	// Remap is indexed by node ID: a CIM node's WLM remap factor m (≥1), each
	// row-stripe split over m crossbars so m parallel-row groups activate at
	// once. 0 or past the end means unset: the default, 1.
	Remap []int

	// Pipeline enables inter-operator pipelining (CG-grained).
	Pipeline bool

	// Stagger enables the MVM-grained computing pipeline: a copy's
	// row-stripes activate one after another as their input chunks arrive
	// instead of all at once (Figure 12), cutting peak power.
	Stagger bool

	// Segments partitions all non-input node IDs into sequentially executed
	// segments (resource-adaptive compute graph segmentation, Figure 9(b)).
	Segments [][]int

	// Levels records which optimization levels produced this schedule
	// ("CG", "MVM", "VVM"), for reports.
	Levels []string
}

// DupOf returns the duplication of a node (default 1).
func (s *Schedule) DupOf(node int) int { return Setting(s.Dup, node) }

// RemapOf returns the remap factor of a node (default 1).
func (s *Schedule) RemapOf(node int) int { return Setting(s.Remap, node) }

// SetDup sets the duplication of a node, growing a short table to the
// graph's size.
func (s *Schedule) SetDup(node, d int) { s.Dup = set(s.Dup, len(s.Graph.Nodes), node, d) }

// SetRemap sets the remap factor of a node, growing a short table to the
// graph's size.
func (s *Schedule) SetRemap(node, m int) { s.Remap = set(s.Remap, len(s.Graph.Nodes), node, m) }

// Setting reads a decision table indexed by node ID, such as Dup or Remap:
// t[id], or the default 1 where t holds 0 (unset) or ends before id.
func Setting(t []int, id int) int {
	if uint(id) < uint(len(t)) && t[id] != 0 {
		return t[id]
	}
	return 1
}

// set writes v at t[id], first growing t to n entries if it is shorter.
func set(t []int, n, id, v int) []int {
	if len(t) < n {
		t = append(t, make([]int, n-len(t))...)
	}
	t[id] = v
	return t
}

// Validate checks the schedule covers every non-input node exactly once, in
// segment-topological order, with positive dup/remap values.
func (s *Schedule) Validate() error {
	if s == nil || s.Graph == nil || s.Arch == nil {
		return fmt.Errorf("sched: no schedule, or one missing its graph or arch")
	}
	if len(s.Segments) == 0 {
		return fmt.Errorf("sched: no segments")
	}
	// rank[id] is 1 + id's position in the segments' concatenation, 0 while
	// id is unscheduled.
	rank := make([]int32, len(s.Graph.Nodes))
	pos := int32(0)
	for segIdx, seg := range s.Segments {
		if len(seg) == 0 {
			return fmt.Errorf("sched: segment %d is empty", segIdx)
		}
		for _, id := range seg {
			n, err := s.Graph.Node(id)
			if err != nil {
				return fmt.Errorf("sched: %w", err)
			}
			if n.Op == graph.OpInput {
				return fmt.Errorf("sched: input node %d must not be scheduled", id)
			}
			if rank[id] != 0 {
				return fmt.Errorf("sched: node %d in segments %d and %d", id, s.segmentOf(id), segIdx)
			}
			pos++
			rank[id] = pos
		}
	}
	for _, n := range s.Graph.Nodes {
		if n.Op == graph.OpInput {
			continue
		}
		if rank[n.ID] == 0 {
			return fmt.Errorf("sched: node %d (%s) not scheduled", n.ID, n.Name)
		}
		// An input node is never scheduled: its rank 0 precedes every other.
		for _, in := range n.Inputs {
			if rank[in] > rank[n.ID] {
				return fmt.Errorf("sched: node %d scheduled before its input %d", n.ID, in)
			}
		}
	}
	if err := s.checkTable("dup", s.Dup); err != nil {
		return err
	}
	return s.checkTable("remap", s.Remap)
}

// segmentOf returns the first segment holding id, or -1.
func (s *Schedule) segmentOf(id int) int {
	for segIdx, seg := range s.Segments {
		if slices.Contains(seg, id) {
			return segIdx
		}
	}
	return -1
}

// checkTable reports, at the lowest node ID, an entry of the decision table
// t, named what, that is set to anything but a positive value on a CIM node,
// and a table longer than the graph.
func (s *Schedule) checkTable(what string, t []int) error {
	if len(t) > len(s.Graph.Nodes) {
		return fmt.Errorf("sched: %s table has %d entries for %d nodes", what, len(t), len(s.Graph.Nodes))
	}
	for id, v := range t {
		switch {
		case v == 0:
		case v < 0:
			return fmt.Errorf("sched: node %d has %s %d", id, what, v)
		case !s.Graph.Nodes[id].Op.CIMSupported():
			return fmt.Errorf("sched: %s set on non-CIM node %d", what, id)
		}
	}
	return nil
}

// Clone returns a deep copy (Graph and Arch are shared; decision tables are
// copied) so optimization levels can refine without aliasing.
func (s *Schedule) Clone() *Schedule {
	c := &Schedule{
		Graph:    s.Graph,
		Arch:     s.Arch,
		Dup:      slices.Clone(s.Dup),
		Remap:    slices.Clone(s.Remap),
		Pipeline: s.Pipeline,
		Stagger:  s.Stagger,
	}
	for _, seg := range s.Segments {
		cp := make([]int, len(seg))
		copy(cp, seg)
		c.Segments = append(c.Segments, cp)
	}
	c.Levels = append(c.Levels, s.Levels...)
	return c
}

// Fingerprint returns a canonical digest of every scheduling decision: the
// Dup and Remap tables (in node-ID order, unset and default entries
// omitted), the Pipeline and Stagger flags, the segment partition and the
// Levels trail. Two schedules with identical decisions produce identical
// fingerprints regardless of table length, explicit defaults or how the
// decisions were reached, so the autotuner uses
// it to deduplicate search states and the determinism tests use it to compare
// schedules across runs byte-for-byte. Graph and Arch identity are NOT part
// of the fingerprint; callers comparing across machines must scope it.
func (s *Schedule) Fingerprint() string {
	h := sha256.New()
	writeI64 := func(v int64) { binary.Write(h, binary.LittleEndian, v) }
	writeTable := func(tag byte, t []int) {
		h.Write([]byte{tag})
		for id, v := range t {
			if v == 0 || v == 1 {
				continue // unset or the default; absent and 1 must digest alike
			}
			writeI64(int64(id))
			writeI64(int64(v))
		}
	}
	writeTable('D', s.Dup)
	writeTable('R', s.Remap)
	flags := byte(0)
	if s.Pipeline {
		flags |= 1
	}
	if s.Stagger {
		flags |= 2
	}
	h.Write([]byte{'F', flags})
	h.Write([]byte{'S'})
	for _, seg := range s.Segments {
		writeI64(int64(len(seg)))
		for _, id := range seg {
			writeI64(int64(id))
		}
	}
	h.Write([]byte{'L'})
	for _, l := range s.Levels {
		writeI64(int64(len(l)))
		h.Write([]byte(l))
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}
