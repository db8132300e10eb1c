package conformance

import (
	"context"
	"testing"

	"cimmlc"
	"cimmlc/internal/codegen"
	"cimmlc/internal/mop"
)

// TestZooOperandsResolve: every operator codegen emits, on every cell of the
// short zoo at every level, resolves through the shared operand calculus
// without error — the crossbar programming records threaded through in
// program order — so the addresses the emitter chose are ones the verifier and
// the executor both take. The models the matrix does not execute lower two
// windows per operator (compileStages): every operator a truncated flow holds
// still resolves. A staged (mixed) cell resolves each of its CIM stages'
// flows.
func TestZooOperandsResolve(t *testing.T) {
	cfg := ShortConfig()
	for _, cell := range shortCells(cfg) {
		t.Run(cell.Key(), func(t *testing.T) {
			c, a, stages, winCap := compileStages(t, cell, cfg)
			for _, st := range stages {
				resolveStage(t, c, a, st.g, st.res, winCap)
			}
		})
	}
}

// shortCells lists the cells of cfg, model by model, arch by arch, level by
// level.
func shortCells(cfg Config) []Cell {
	var cells []Cell
	for _, model := range cfg.Models {
		for _, archName := range cfg.Archs {
			for _, level := range cfg.Levels {
				cells = append(cells, Cell{Model: model, Arch: archName, Level: level})
			}
		}
	}
	return cells
}

// stage is one one-chip compilation of a cell: the whole model, or one CIM
// stage of a staged (mixed) one.
type stage struct {
	g   *cimmlc.Graph
	res *cimmlc.Result
}

// compileStages compiles one cell with the IR verifier off and returns its
// compiler, arch and CIM stages, and the windows per operator to lower: all
// of them on the models the matrix executes, two elsewhere, like the CLI
// sweeps (a truncated flow does not run, but every operator it holds is
// emitted, and every weight write).
func compileStages(t *testing.T, cell Cell, cfg Config) (*cimmlc.Compiler, *cimmlc.Arch, []stage, int64) {
	t.Helper()
	g, err := cimmlc.Model(cell.Model)
	if err != nil {
		t.Fatal(err)
	}
	a, err := cellArch(cell)
	if err != nil {
		t.Fatal(err)
	}
	opts, _ := cellOptions(cell, cimmlc.WithoutVerifyIR())
	c, err := cimmlc.New(a, opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Compile(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	var winCap int64 = 2
	if execCell(cell, cfg) {
		winCap = 0
	}
	stages := []stage{{g, res}}
	if info := res.Partition; info != nil {
		stages = nil
		for i, sub := range info.Plan.Subs {
			if sr := info.Subs[i].Res; sr != nil {
				stages = append(stages, stage{sub.G, sr})
			}
		}
	}
	return c, a, stages, winCap
}

// resolveStage lowers one one-stage compilation and resolves every operator
// of its flow, init section first, in program order.
func resolveStage(t *testing.T, c *cimmlc.Compiler, a *cimmlc.Arch, g *cimmlc.Graph, res *cimmlc.Result, winCap int64) {
	t.Helper()
	fr, err := c.Lower(context.Background(), g, res, cimmlc.CodegenOptions{MaxWindowsPerOp: winCap})
	if err != nil {
		t.Fatal(err)
	}
	gc := g.Clone()
	if err := gc.InferShapes(); err != nil {
		t.Fatal(err)
	}
	r, bad := codegen.NewResolver(gc, a, fr.Layout)
	if len(bad) > 0 {
		t.Fatalf("layout: %v", bad[0])
	}
	prog := make([]codegen.XBRecord, a.TotalCrossbars())
	for i := range prog {
		prog[i].Node = -1
	}
	var resolve func(ops []mop.Op)
	resolve = func(ops []mop.Op) {
		for _, op := range ops {
			var err error
			if par, ok := op.(mop.Parallel); ok {
				resolve(par.Body)
			} else if w, ok, e := r.ResolveWrite(op); ok {
				if err = e; e == nil {
					r.Program(&prog[w.XB], w)
				}
			} else if rd, ok, e := r.ResolveRead(op); ok {
				if err = e; e == nil {
					_, err = prog[rd.XB].Activate(&rd)
				}
			} else {
				_, err = r.Resolve(op)
			}
			if err != nil {
				t.Fatalf("%s: %v", op, err)
			}
		}
	}
	resolve(fr.Flow.Init)
	resolve(fr.Flow.Body)
}
