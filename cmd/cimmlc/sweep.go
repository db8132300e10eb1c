package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"cimmlc"
	"cimmlc/internal/conformance"
)

// zooCell is one (model, arch, level) point of the short conformance matrix
// as the CLI sweeps visit it. WinCap caps window emission for models whose
// full flows are too large to materialize on every sweep (0 = emit all).
type zooCell struct {
	Model  string
	Arch   string
	Level  cimmlc.Mode
	WinCap int64
}

// Key matches the conformance/golden "model|arch|level" convention.
func (c zooCell) Key() string { return c.Model + "|" + c.Arch + "|" + string(c.Level) }

// shortZooCells enumerates the short conformance matrix in deterministic
// order: the exec models lower their complete flows, the rest cap window
// emission so the sweep stays fast.
func shortZooCells() []zooCell {
	cfg := conformance.ShortConfig()
	full := map[string]bool{}
	for _, m := range cfg.ExecModels {
		full[m] = true
	}
	var cells []zooCell
	for _, model := range cfg.Models {
		for _, archName := range cfg.Archs {
			for _, level := range cfg.Levels {
				var winCap int64 = 2
				if full[model] {
					winCap = 0
				}
				cells = append(cells, zooCell{Model: model, Arch: archName, Level: level, WinCap: winCap})
			}
		}
	}
	return cells
}

// sweepShortZoo analyzes every cell of the short conformance matrix: the one
// sweep behind vet -zoo, analyze -zoo and the golden test. A failing cell
// never aborts it. The per-cell lines go to progress and the summary to
// stderr; it returns the reports of the cells that passed and the number
// that failed.
func sweepShortZoo(ctx context.Context, progress io.Writer, verb string) (map[string]cimmlc.FlowReport, int) {
	reports := map[string]cimmlc.FlowReport{}
	outcomes := sweepZoo(progress, shortZooCells(), func(cell zooCell) error {
		rep, err := analyzeZooCell(ctx, cell)
		if err == nil {
			reports[cell.Key()] = *rep
		}
		return err
	})
	return reports, summarizeSweep(os.Stderr, verb, outcomes)
}

// analyzeZooCell loads and analyzes one cell; a model or arch that does not
// load is that cell's failure, not the sweep's.
func analyzeZooCell(ctx context.Context, cell zooCell) (*cimmlc.FlowReport, error) {
	g, err := cimmlc.Model(cell.Model)
	if err != nil {
		return nil, err
	}
	a, err := cimmlc.Preset(cell.Arch)
	if err != nil {
		return nil, err
	}
	return analyzeCell(ctx, g, a, cell.Level, cell.WinCap)
}

// sweepOutcome records one visited cell; Err nil means the cell passed.
type sweepOutcome struct {
	Cell zooCell
	Err  error
}

// sweepZoo runs fn over every cell, never aborting mid-sweep: any failure —
// including a model or arch that fails to load inside fn — is recorded and
// the sweep moves on, so one broken cell cannot hide the state of the rest
// of the matrix. Progress streams to w as each cell completes; the caller
// renders the final summary from the returned outcomes.
func sweepZoo(w io.Writer, cells []zooCell, fn func(zooCell) error) []sweepOutcome {
	outcomes := make([]sweepOutcome, 0, len(cells))
	for _, cell := range cells {
		err := fn(cell)
		outcomes = append(outcomes, sweepOutcome{Cell: cell, Err: err})
		if err != nil {
			fmt.Fprintf(w, "FAIL %s: %v\n", cell.Key(), err)
		} else {
			fmt.Fprintf(w, "ok   %s\n", cell.Key())
		}
	}
	return outcomes
}

// summarizeSweep prints the per-cell summary table and returns the number of
// failed cells.
func summarizeSweep(w io.Writer, verb string, outcomes []sweepOutcome) int {
	bad := 0
	for _, o := range outcomes {
		if o.Err != nil {
			bad++
		}
	}
	if bad == 0 {
		fmt.Fprintf(w, "%s: all %d cells ok\n", verb, len(outcomes))
		return 0
	}
	fmt.Fprintf(w, "%s: %d of %d cells failed\n", verb, bad, len(outcomes))
	// Size the cell column to the longest key so long model or arch names
	// cannot push the result column out of alignment.
	width := len("cell")
	for _, o := range outcomes {
		if n := len(o.Cell.Key()); n > width {
			width = n
		}
	}
	fmt.Fprintf(w, "%-*s %s\n", width, "cell", "result")
	for _, o := range outcomes {
		result := "ok"
		if o.Err != nil {
			result = "FAIL: " + firstLine(o.Err.Error())
		}
		fmt.Fprintf(w, "%-*s %s\n", width, o.Cell.Key(), result)
	}
	return bad
}

// firstLine truncates a (possibly multi-line) error message to its first
// line so the summary table stays one row per cell.
func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i] + " ..."
		}
	}
	return s
}
