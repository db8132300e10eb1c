package analyzers

// The module-wide dead-export check. It cannot be a cimlint analyzer: the
// vet unit protocol hands a tool one package at a time, and whether an
// export is used is a question about every file that could import it.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// allowEntry exempts exports from the check. Its pattern is one export's
// key ("internal/baseline.NoOpt", "internal/funcsim.(*Image).Programmed"),
// a key prefix ending in "*", or a bare package directory ("internal/conformance")
// that covers every export of that package.
type allowEntry struct {
	pattern string
	reason  string
}

// deadExportAllow is what the check tolerates, each with why. An entry that
// covers no dead export fails the check, so the list cannot go stale.
var deadExportAllow = []allowEntry{
	{"internal/conformance", "the harness API: the matrix runner, cells and checks are driven by conformance's own tests and the CI matrix steps"},
	{"internal/irverify.Rule*", "the verifier's documented rule vocabulary; tests and callers match diagnostics against these names"},
	{"internal/funcsim.(*Image).Programmed", "the root package's TestBuildFootprint and BenchmarkBuild read it across a package boundary"},
	{"internal/arch.(*Arch).CoreTransferCycles", "waits on the decision to price the NoC from the placement or delete it (ROADMAP item 13)"},
	{"internal/arch.(*Arch).XBTransferCycles", "waits on the decision to price the NoC from the placement or delete it (ROADMAP item 13)"},
}

// TestNoDeadExports fails on any exported identifier of an internal/ package
// that no non-test file of the repository uses: bench/, cmd/, examples/ and
// serving/ all count as users.
func TestNoDeadExports(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	for _, e := range deadExportAllow {
		if strings.TrimSpace(e.reason) == "" {
			t.Errorf("allowlist entry %q has no reason", e.pattern)
		}
	}
	dead, err := deadExports(root)
	if err != nil {
		t.Fatal(err)
	}
	flagged, stale := applyAllow(dead, deadExportAllow)
	for _, ex := range flagged {
		t.Errorf("%s: %s is exported but no non-test code uses it; delete it, or move it into the tests that use it", ex.pos, ex.key())
	}
	for _, p := range stale {
		t.Errorf("allowlist entry %q covers no dead export; remove it", p)
	}
}

// TestDeadExportFixture pins what the check reports on a tree built to hold
// each case once.
func TestDeadExportFixture(t *testing.T) {
	dead, err := deadExports(filepath.Join("testdata", "deadexport"))
	if err != nil {
		t.Fatal(err)
	}
	flagged, stale := applyAllow(dead, []allowEntry{
		{"internal/lib.Kept", "allowlisted dead export"},
		{"internal/lib.Used", "stale: now used"},
		{"internal/lib.Gone", "stale: deleted"},
	})
	var got []string
	for _, ex := range flagged {
		got = append(got, ex.key())
	}
	want := []string{"internal/lib.(*Exported).Dead", "internal/lib.Dead", "internal/lib.TestOnly"}
	if !slices.Equal(got, want) {
		t.Errorf("flagged %q, want %q", got, want)
	}
	if want := []string{"internal/lib.Used", "internal/lib.Gone"}; !slices.Equal(stale, want) {
		t.Errorf("stale entries %q, want %q", stale, want)
	}
}

// export is one exported top-level identifier of an internal/ package.
type export struct {
	dir  string // package directory, slash-separated, relative to the root
	name string // "Name", "T.Method" or "(*T).Method"
	pos  token.Position
}

func (e export) key() string { return e.dir + "." + e.name }

// pkgFiles is the non-test files of one directory.
type pkgFiles struct {
	dir        string // relative to the root, slash-separated
	importPath string
	name       string // the package clause's name
	files      []*ast.File
}

// deadExports parses every non-test .go file under root, skipping testdata,
// vendor and dot/underscore directories, and returns the exports of
// internal/ packages that nothing references but their own declaration,
// sorted by key.
func deadExports(root string) ([]export, error) {
	fset := token.NewFileSet()
	pkgs, err := parseTree(fset, root)
	if err != nil {
		return nil, err
	}
	ix := indexExports(fset, pkgs)
	used := map[*export]bool{}
	for _, p := range pkgs {
		for _, f := range p.files {
			ix.markUses(p, f, used)
		}
	}
	var dead []export
	for _, exs := range ix.declared {
		for _, ex := range exs {
			if !used[ex] {
				dead = append(dead, *ex)
			}
		}
	}
	slices.SortFunc(dead, func(a, b export) int { return strings.Compare(a.key(), b.key()) })
	return dead, nil
}

// exportIndex holds every export of the tree's internal/ packages.
type exportIndex struct {
	byPath   map[string]*pkgFiles          // every package, by import path
	top      map[string]map[string]*export // top-level exports by package dir, then name
	methods  map[string][]*export          // methods by name: a selector reaches them by name alone
	declared map[ast.Node][]*export        // by declaration (a FuncDecl or a spec)
}

func indexExports(fset *token.FileSet, pkgs []*pkgFiles) *exportIndex {
	ix := &exportIndex{
		byPath:   map[string]*pkgFiles{},
		top:      map[string]map[string]*export{},
		methods:  map[string][]*export{},
		declared: map[ast.Node][]*export{},
	}
	for _, p := range pkgs {
		ix.byPath[p.importPath] = p
		if !slices.Contains(strings.Split(p.dir, "/"), "internal") {
			continue
		}
		top := map[string]*export{}
		ix.top[p.dir] = top
		newExport := func(name string, id *ast.Ident) *export {
			pos := fset.Position(id.Pos())
			pos.Filename = path.Join(p.dir, filepath.Base(pos.Filename))
			return &export{dir: p.dir, name: name, pos: pos}
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					if d.Recv == nil {
						ex := newExport(d.Name.Name, d.Name)
						top[ex.name] = ex
						ix.declared[d] = []*export{ex}
						continue
					}
					recv, ptr := recvType(d.Recv.List[0].Type)
					if recv == nil || !recv.IsExported() {
						continue
					}
					name := recv.Name + "." + d.Name.Name
					if ptr {
						name = "(*" + recv.Name + ")." + d.Name.Name
					}
					ex := newExport(name, d.Name)
					ix.methods[d.Name.Name] = append(ix.methods[d.Name.Name], ex)
					ix.declared[d] = []*export{ex}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						for _, id := range specNames(spec) {
							if id.IsExported() {
								ex := newExport(id.Name, id)
								top[id.Name] = ex
								ix.declared[spec] = append(ix.declared[spec], ex)
							}
						}
					}
				}
			}
		}
	}
	return ix
}

// markUses records in used every export that file f of package p
// references. A reference from inside a declaration does not keep what it
// declares alive.
func (ix *exportIndex) markUses(p *pkgFiles, f *ast.File, used map[*export]bool) {
	own := ix.top[p.dir]
	imports := fileImports(f, ix.byPath)
	// The parser resolves an identifier declared in the same file to its
	// declaration; one declared at top level in another file of the package
	// stays unresolved (Obj == nil).
	var units []ast.Node // FuncDecls and specs
	topLevel := map[any]bool{}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			units = append(units, d)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				units = append(units, spec)
			}
		}
	}
	for _, u := range units {
		topLevel[u] = true
	}
	for _, unit := range units {
		self := ix.declared[unit]
		mark := func(ex *export) {
			if ex != nil && !slices.Contains(self, ex) {
				used[ex] = true
			}
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Obj == nil {
					if ip, ok := imports[x.Name]; ok {
						if q := ix.byPath[ip]; q != nil {
							mark(ix.top[q.dir][n.Sel.Name])
						}
						return false
					}
				}
				for _, m := range ix.methods[n.Sel.Name] {
					mark(m)
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if n.Obj == nil || topLevel[n.Obj.Decl] {
					mark(own[n.Name])
				}
			}
			return true
		}
		for _, n := range useSites(unit) {
			ast.Inspect(n, visit)
		}
	}
}

// useSites returns the parts of a declaration that can use other names:
// everything but the declared names and a method's receiver clause, which
// belongs to the method's declaration rather than using its type.
func useSites(unit ast.Node) []ast.Node {
	var out []ast.Node
	switch u := unit.(type) {
	case *ast.FuncDecl:
		out = append(out, u.Type)
		if u.Body != nil {
			out = append(out, u.Body)
		}
	case *ast.TypeSpec:
		if u.TypeParams != nil {
			out = append(out, u.TypeParams)
		}
		out = append(out, u.Type)
	case *ast.ValueSpec:
		if u.Type != nil {
			out = append(out, u.Type)
		}
		for _, v := range u.Values {
			out = append(out, v)
		}
	}
	return out
}

// applyAllow splits dead exports into those no entry covers and the
// patterns of entries that cover none.
func applyAllow(dead []export, allow []allowEntry) (flagged []export, stale []string) {
	hits := make([]int, len(allow))
	for _, ex := range dead {
		covered := false
		for i, e := range allow {
			if matchAllow(e.pattern, ex) {
				hits[i]++
				covered = true
			}
		}
		if !covered {
			flagged = append(flagged, ex)
		}
	}
	for i, e := range allow {
		if hits[i] == 0 {
			stale = append(stale, e.pattern)
		}
	}
	return flagged, stale
}

func matchAllow(pattern string, ex export) bool {
	if prefix, ok := strings.CutSuffix(pattern, "*"); ok {
		return strings.HasPrefix(ex.key(), prefix)
	}
	return pattern == ex.dir || pattern == ex.key()
}

// parseTree parses the non-test files of every package directory under
// root. A nested module (bench/) is a user like any other directory; its
// packages take import paths under root's module path, which is what
// bench/'s own go.mod declares.
func parseTree(fset *token.FileSet, root string) ([]*pkgFiles, error) {
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	byDir := map[string]*pkgFiles{}
	var pkgs []*pkgFiles
	err = filepath.WalkDir(root, func(file string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if file != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(file))
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(rel)
		p := byDir[dir]
		if p == nil {
			p = &pkgFiles{dir: dir, importPath: path.Join(mod, dir), name: f.Name.Name}
			byDir[dir] = p
			pkgs = append(pkgs, p)
		}
		p.files = append(p.files, f)
		return nil
	})
	return pkgs, err
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for line := range strings.Lines(string(data)) {
		if mod, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(mod), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// fileImports maps each import's local name in f to its path. An unnamed
// import of a repository package is known by that package's clause name.
func fileImports(f *ast.File, byPath map[string]*pkgFiles) map[string]string {
	out := map[string]string{}
	for _, spec := range f.Imports {
		ip, err := strconv.Unquote(spec.Path.Value)
		if err != nil {
			continue
		}
		name := ip[strings.LastIndex(ip, "/")+1:]
		if p := byPath[ip]; p != nil {
			name = p.name
		}
		if spec.Name != nil {
			name = spec.Name.Name
		}
		out[name] = ip
	}
	return out
}

// recvType returns a method receiver's type name and whether it is a pointer.
func recvType(e ast.Expr) (*ast.Ident, bool) {
	ptr := false
	if s, ok := e.(*ast.StarExpr); ok {
		e, ptr = s.X, true
	}
	switch t := e.(type) {
	case *ast.IndexExpr:
		e = t.X
	case *ast.IndexListExpr:
		e = t.X
	}
	id, _ := e.(*ast.Ident)
	return id, ptr
}

// specNames returns the identifiers a type or value spec declares.
func specNames(spec ast.Spec) []*ast.Ident {
	switch s := spec.(type) {
	case *ast.TypeSpec:
		return []*ast.Ident{s.Name}
	case *ast.ValueSpec:
		return s.Names
	}
	return nil
}
