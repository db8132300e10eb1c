// Package analyzers implements cimlint's static-analysis rules for the
// CIM-MLC codebase on top of the standard library's go/ast and go/types
// alone — the x/tools analysis framework is deliberately not a dependency,
// so the linters build in a hermetic container.
//
// Four rules guard properties the test suite can only probe statistically:
//
//   - maprange: no bare `range` over a map in the deterministic compiler
//     packages (scheduling, codegen, tuning, simulation). Map iteration
//     order is randomized per run, so an unsorted walk makes two identical
//     compilations emit different (if equivalent) schedules or flows,
//     breaking golden-snapshot testing and the artifact cache.
//   - nondet: no wall-clock or math/rand use in those same packages — a
//     compiler pass must be a pure function of (graph, arch, options).
//   - libpanic: no panic in library (non-cmd) code; errors must flow back
//     to the caller per the repo's error-return convention. Must* helpers
//     are the sanctioned panicking wrappers and are exempt.
//   - ctxcancel: every outermost loop in a context-accepting compiler
//     function must poll ctx.Err()/ctx.Done() or forward ctx to a callee,
//     so cancelled compilations actually stop.
//
// TestNoDeadExports (deadexport_test.go) is the one module-wide check beside
// them: no exported identifier of an internal/ package without a non-test user.
//
// A finding can be locally waived with a comment on the flagged line or the
// line directly above it:
//
//	//cimlint:ignore maprange -- summing ints is order-insensitive
//
// The rule name list is comma-separated; everything after ` -- ` is the
// mandatory justification.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding inside a Pass, positioned in the pass fileset.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one typechecked package through an analyzer.
type Pass struct {
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
	ImportPath string
	Report     func(Diagnostic)
}

// Analyzer is one named rule.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// All returns every cimlint rule in reporting order.
func All() []*Analyzer { return []*Analyzer{MapRange, NonDet, LibPanic, CtxCancel} }

// Finding is a resolved diagnostic: rule name plus file position.
type Finding struct {
	Analyzer string
	Posn     token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [%s]", f.Posn, f.Message, f.Analyzer)
}

// Run executes every rule over one typechecked package, skipping _test.go
// files and honoring //cimlint:ignore suppressions, and returns the findings
// sorted by position.
func Run(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, importPath string) ([]Finding, error) {
	kept := make([]*ast.File, 0, len(files))
	for _, f := range files {
		if strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		kept = append(kept, f)
	}
	sup := collectSuppressions(fset, kept)
	var findings []Finding
	for _, a := range All() {
		pass := &Pass{
			Fset:       fset,
			Files:      kept,
			Pkg:        pkg,
			Info:       info,
			ImportPath: importPath,
		}
		name := a.Name
		pass.Report = func(d Diagnostic) {
			posn := fset.Position(d.Pos)
			if sup.suppressed(name, posn) {
				return
			}
			findings = append(findings, Finding{Analyzer: name, Posn: posn, Message: d.Message})
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Posn, findings[j].Posn
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
	return findings, nil
}

// suppressions maps (file, rule) to the set of suppressed lines.
type suppressions map[string]map[int]bool

func (s suppressions) suppressed(rule string, posn token.Position) bool {
	return s[posn.Filename+"\x00"+rule][posn.Line]
}

// collectSuppressions scans //cimlint:ignore comments. A comment suppresses
// the named rules on its own line (trailing comment) and on the line below
// it (comment on its own line above the flagged statement); one in a
// function's doc comment suppresses the whole function.
func collectSuppressions(fset *token.FileSet, files []*ast.File) suppressions {
	sup := suppressions{}
	add := func(filename, name string, from, to int) {
		key := filename + "\x00" + name
		if sup[key] == nil {
			sup[key] = map[int]bool{}
		}
		for l := from; l <= to; l++ {
			sup[key][l] = true
		}
	}
	forEachDirective := func(cg *ast.CommentGroup, fn func(c *ast.Comment, names []string)) {
		if cg == nil {
			return
		}
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//cimlint:ignore ")
			if !ok {
				continue
			}
			list, _, _ := strings.Cut(text, " -- ")
			var names []string
			for _, name := range strings.Split(list, ",") {
				if name = strings.TrimSpace(name); name != "" {
					names = append(names, name)
				}
			}
			fn(c, names)
		}
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			forEachDirective(cg, func(c *ast.Comment, names []string) {
				posn := fset.Position(c.Pos())
				for _, name := range names {
					add(posn.Filename, name, posn.Line, posn.Line+1)
				}
			})
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			forEachDirective(fd.Doc, func(c *ast.Comment, names []string) {
				from := fset.Position(fd.Pos())
				to := fset.Position(fd.End())
				for _, name := range names {
					add(from.Filename, name, from.Line, to.Line)
				}
			})
		}
	}
	return sup
}

// deterministicPkgs lists the import paths whose output must be a pure,
// reproducible function of the inputs: every package that contributes to a
// schedule, placement, flow, or simulated report. internal/core is excluded
// on purpose — its trace hooks legitimately measure pass wall time.
var deterministicPkgs = map[string]bool{
	"cimmlc/internal/sched":     true,
	"cimmlc/internal/codegen":   true,
	"cimmlc/internal/tuner":     true,
	"cimmlc/internal/perfsim":   true,
	"cimmlc/internal/cg":        true,
	"cimmlc/internal/mvm":       true,
	"cimmlc/internal/vvm":       true,
	"cimmlc/internal/mapping":   true,
	"cimmlc/internal/cost":      true,
	"cimmlc/internal/funcsim":   true,
	"cimmlc/internal/irverify":  true,
	"cimmlc/internal/flowdata":  true,
	"cimmlc/internal/partition": true,
	"cimmlc/internal/hostexec":  true,
}

// pkgNameOf resolves an identifier to the package it names, or nil.
func pkgNameOf(info *types.Info, id *ast.Ident) *types.PkgName {
	if obj, ok := info.Uses[id]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn
		}
	}
	return nil
}

// isBuiltin reports whether the identifier resolves to the named predeclared
// function (append, panic, ...).
func isBuiltin(info *types.Info, id *ast.Ident, name string) bool {
	if id.Name != name {
		return false
	}
	obj, ok := info.Uses[id]
	if !ok {
		return false
	}
	_, isB := obj.(*types.Builtin)
	return isB
}
