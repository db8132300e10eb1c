package graph

// Clone returns a deep copy of g sharing no mutable state with the
// original: nodes and their slice fields are copied, so shape inference or
// other mutation of the clone never affects g. It replaces the JSON
// encode/decode round trip the compiler used for graph isolation, which
// paid serialization costs on every call.
//
// The copy takes a constant number of allocations whatever the node count:
// the nodes live in one array and their Inputs, WeightShape and OutShape in
// one arena, each slice capped at its own length so that appending to one
// never writes into the next. Empty slices are nil, as in the original.
func (g *Graph) Clone() *Graph {
	if g == nil {
		return nil
	}
	words := 0
	for _, n := range g.Nodes {
		if n != nil {
			words += len(n.Inputs) + len(n.WeightShape) + len(n.OutShape)
		}
	}
	arena := make([]int, 0, words)
	take := func(s []int) []int {
		if len(s) == 0 {
			return nil
		}
		lo := len(arena)
		arena = append(arena, s...)
		return arena[lo:len(arena):len(arena)]
	}
	nodes := make([]*Node, len(g.Nodes))
	copies := make([]Node, len(g.Nodes))
	for i, n := range g.Nodes {
		if n == nil {
			continue
		}
		c := &copies[i]
		*c = *n
		c.Inputs = take(n.Inputs)
		c.WeightShape = take(n.WeightShape)
		c.OutShape = take(n.OutShape)
		nodes[i] = c
	}
	return &Graph{Name: g.Name, Nodes: nodes}
}
