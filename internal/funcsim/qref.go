package funcsim

import (
	"fmt"

	"cimmlc/internal/arch"
	"cimmlc/internal/codegen"
	"cimmlc/internal/graph"
	"cimmlc/internal/mop"
	"cimmlc/internal/tensor"
)

// QuantReferenceCalib executes the network under the same quantization
// semantics as the flow simulator — integer MVMs over the quantized weight
// matrices, float digital kernels requantized to each node's calibrated
// activation scale — but without crossbars, placement or meta-operators. A
// correct compiler must reproduce it bit-exactly. The activation scales are
// calibrated on calib, as a compile-once Program's image fixes them at build
// time before it serves arbitrary inputs.
func QuantReferenceCalib(g *graph.Graph, a *arch.Arch, weights graph.Weights, calib, inputs map[int]*tensor.Tensor) (map[int]*tensor.Tensor, error) {
	lay := referenceLayout(g)
	img, err := NewImage(g, a, lay, weights, calib)
	if err != nil {
		return nil, err
	}
	// One reference operator per node, in node order: readcore computes a CIM
	// node's integer MVMs straight from its quantized weight matrix.
	var body []mop.Op
	for _, n := range g.Nodes {
		switch {
		case n.Op == graph.OpInput:
			continue
		case n.Op.CIMSupported():
			body = append(body, mop.ReadCore{
				OpType: string(n.Op), Node: n.ID, Core: 0,
				Src: lay.Base[n.Inputs[0]], Dst: lay.Base[n.ID],
				WinStart: 0, WinCount: n.MVMCount(),
			})
		case n.Op == graph.OpFlatten || n.Op == graph.OpIdentity:
			body = append(body, mop.Mov{Src: lay.Base[n.Inputs[0]], Dst: lay.Base[n.ID], Len: lay.Size[n.ID]})
		default:
			fn, ok := codegen.DcomFn(n.Op)
			if !ok {
				return nil, fmt.Errorf("funcsim: no reference lowering for %s", n.Op)
			}
			srcs := make([]int64, len(n.Inputs))
			for i, in := range n.Inputs {
				srcs[i] = lay.Base[in]
			}
			body = append(body, mop.Dcom{Fn: fn, Node: n.ID, Srcs: srcs, Dst: lay.Base[n.ID], Len: lay.Size[n.ID]})
		}
	}
	m := img.Exec(img.NewState())
	if err := m.LoadInputs(inputs); err != nil {
		return nil, err
	}
	if err := m.RunBody(&mop.Flow{Body: body}); err != nil {
		return nil, fmt.Errorf("funcsim: reference: %w", err)
	}
	m.SettleAll()
	return m.Tensors(), nil
}

// referenceLayout allocates one region per node (no scratch space).
func referenceLayout(g *graph.Graph) *codegen.Layout {
	lay := &codegen.Layout{Base: map[int]int64{}, Size: map[int]int64{}, Scratch: map[int]int64{}}
	next := int64(0)
	for _, n := range g.Nodes {
		size := graph.NumElements(n.OutShape)
		lay.Base[n.ID] = next
		lay.Size[n.ID] = size
		next += size
	}
	lay.Total = next
	return lay
}

// CheckExact verifies that got matches the quantized reference want bit for
// bit on every non-Input node of g.
func CheckExact(g *graph.Graph, got, want map[int]*tensor.Tensor) error {
	for _, n := range g.Nodes {
		if n.Op == graph.OpInput {
			continue
		}
		if !tensor.AllClose(got[n.ID], want[n.ID], 0) {
			d, _ := tensor.MaxAbsDiff(got[n.ID], want[n.ID])
			return fmt.Errorf("funcsim: node %d (%s %s): flow diverges from quantized reference by %g", n.ID, n.Name, n.Op, d)
		}
	}
	return nil
}

// CheckOutputs verifies per-node flow outputs: got must match the quantized
// reference want bit-exactly (CheckExact) and stay within floatTol of the
// float reference ref, relative to each node output's max magnitude.
func CheckOutputs(g *graph.Graph, got, want, ref map[int]*tensor.Tensor, floatTol float64) error {
	if err := CheckExact(g, got, want); err != nil {
		return err
	}
	for _, n := range g.Nodes {
		if n.Op == graph.OpInput {
			continue
		}
		scale := maxAbs(ref[n.ID])
		if scale == 0 {
			scale = 1
		}
		d, err := tensor.MaxAbsDiff(got[n.ID], ref[n.ID])
		if err != nil {
			return fmt.Errorf("funcsim: node %d: %w", n.ID, err)
		}
		if d > floatTol*scale {
			return fmt.Errorf("funcsim: node %d (%s %s): quantization error %g exceeds %g of max magnitude %g", n.ID, n.Name, n.Op, d, floatTol, scale)
		}
	}
	return nil
}

func maxAbs(t *tensor.Tensor) float64 {
	m := 0.0
	for _, v := range t.Data() {
		a := float64(v)
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
	}
	return m
}
