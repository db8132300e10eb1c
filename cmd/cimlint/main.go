// Command cimlint runs the repo's custom static-analysis rules (see
// cimmlc/tools/analyzers): maprange, nondet, libpanic and ctxcancel. It
// speaks the `go vet -vettool` unit-checker protocol by hand — the x/tools
// analysis driver is deliberately not a dependency — and is driven only
// through go vet, locally and in CI:
//
//	go build -o bin/cimlint ./cmd/cimlint
//	go vet -vettool=$PWD/bin/cimlint ./...
//
// Protocol notes: `go vet` probes the tool with -V=full (a version line the
// build cache fingerprints) and -flags (a JSON list of the tool's analyzer
// flags — empty here), then invokes it once per package with a JSON config
// file. Dependency packages arrive with VetxOnly set and only need a facts
// file written; cimlint keeps no cross-package facts, so those are empty.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"cimmlc/tools/analyzers"
)

func main() {
	args := os.Args[1:]
	for _, a := range args {
		if a == "-V=full" || a == "--V=full" || a == "-V" {
			printVersion()
			return
		}
	}
	if len(args) == 1 && (args[0] == "-flags" || args[0] == "--flags") {
		fmt.Println("[]")
		return
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(runUnit(args[0]))
	}
	fmt.Fprintln(os.Stderr, "usage: go vet -vettool=$PWD/bin/cimlint ./...")
	os.Exit(2)
}

// printVersion answers `cimlint -V=full`: the go command hashes this line
// into its build cache key, so it embeds a digest of the executable — a
// rebuilt linter invalidates cached vet results.
func printVersion() {
	name := strings.TrimSuffix(filepath.Base(os.Args[0]), ".exe")
	var sum [sha256.Size]byte
	if exe, err := os.Executable(); err == nil {
		if data, err := os.ReadFile(exe); err == nil {
			sum = sha256.Sum256(data)
		}
	}
	fmt.Printf("%s version devel cimlint buildID=%02x\n", name, sum)
}

// vetConfig is the JSON unit description `go vet` hands the tool.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func runUnit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cimlint:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "cimlint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// The facts file must exist for go vet's cache even though cimlint
	// exports no facts.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "cimlint:", err)
			return 1
		}
	}
	// Dependencies only need facts; test-variant packages (ID like
	// "p [p.test]") would duplicate findings already reported on the plain
	// package, since _test.go files are skipped anyway.
	if cfg.VetxOnly || !inModule(cfg.ImportPath) || strings.Contains(cfg.ID, " [") || strings.HasSuffix(cfg.ID, ".test") {
		return 0
	}
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	findings, err := analyze(cfg.ImportPath, cfg.Compiler, cfg.GoFiles, cfg.ImportMap, lookup)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "cimlint: %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}

func inModule(importPath string) bool {
	return importPath == "cimmlc" || strings.HasPrefix(importPath, "cimmlc/")
}

// analyze parses and typechecks one package unit (imports resolved through
// export data via lookup) and runs every analyzer over it.
func analyze(importPath, compiler string, goFiles []string, importMap map[string]string, lookup func(string) (io.ReadCloser, error)) ([]analyzers.Finding, error) {
	if compiler == "" {
		compiler = "gc"
	}
	fset := token.NewFileSet()
	files := make([]*ast.File, 0, len(goFiles))
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	compImp := importer.ForCompiler(fset, compiler, lookup)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		return compImp.Import(path)
	})
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor(compiler, runtime.GOARCH),
	}
	pkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, err
	}
	return analyzers.Run(fset, files, pkg, info, importPath)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
