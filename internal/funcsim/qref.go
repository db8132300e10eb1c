package funcsim

import (
	"fmt"

	"cimmlc/internal/codegen"
	"cimmlc/internal/graph"
	"cimmlc/internal/mop"
	"cimmlc/internal/tensor"
)

// Reference executes the image's graph on inputs under the same quantization
// semantics as the flow simulator — integer MVMs over the quantized weight
// matrices, float digital kernels requantized to each node's calibrated
// activation scale — but without crossbars, placement or generated flows: one
// readcore, mov or dcom per node, addressed at the node regions of the image's
// own layout and run on a fresh one-lane state. A correct compiler must
// reproduce it bit-exactly. The scales and quantized weights are the image's,
// fixed at build time before it serves arbitrary inputs; the crossbars are
// never read (a readcore multiplies its node's matrix), so the reference is
// the same before ProgramInit and after, and safe beside any run of the image.
func (img *Image) Reference(inputs map[int]*tensor.Tensor) (map[int]*tensor.Tensor, error) {
	var body []mop.Op
	ids := make([]int, len(img.g.Nodes))
	for i, n := range img.g.Nodes {
		ids[i] = n.ID
		switch {
		case n.Op == graph.OpInput:
			continue
		case n.Op.CIMSupported():
			body = append(body, mop.ReadCore{
				OpType: string(n.Op), Node: n.ID, Core: 0,
				Src: img.base[n.Inputs[0]], Dst: img.base[n.ID],
				WinStart: 0, WinCount: n.MVMCount(),
			})
		case n.Op == graph.OpFlatten || n.Op == graph.OpIdentity:
			body = append(body, mop.Mov{Src: img.base[n.Inputs[0]], Dst: img.base[n.ID], Len: img.size[n.ID]})
		default:
			fn, ok := codegen.DcomFn(n.Op)
			if !ok {
				return nil, fmt.Errorf("funcsim: no reference lowering for %s", n.Op)
			}
			srcs := make([]int64, len(n.Inputs))
			for j, in := range n.Inputs {
				srcs[j] = img.base[in]
			}
			body = append(body, mop.Dcom{Fn: fn, Node: n.ID, Srcs: srcs, Dst: img.base[n.ID], Len: img.size[n.ID]})
		}
	}
	cf, err := img.CompileBody(body)
	if err != nil {
		return nil, fmt.Errorf("funcsim: reference: %w", err)
	}
	bm := img.ExecBatch(img.NewBatchState(1))
	if err := bm.LoadInputs(0, inputs); err != nil {
		return nil, err
	}
	if err := bm.RunBody(cf); err != nil {
		return nil, fmt.Errorf("funcsim: reference: %w", err)
	}
	bm.SettleAll()
	return bm.TensorsOf(0, ids), nil
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
