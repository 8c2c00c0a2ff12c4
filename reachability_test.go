package parcolor

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// testOnlyAllowed lists the package-level functions under internal/ that
// no shipped code reaches but that tests of other packages call. Go test
// files cannot be imported across packages, so these stay in production
// code; each entry names the test packages that need it.
var testOnlyAllowed = map[string]string{
	"parcolor/internal/graph.Path":            "hknt, linial and mpc tests build path fixtures",
	"parcolor/internal/graph.Star":            "d1lc, greedy, hknt, linial, lowdeg, mis and params tests build star fixtures",
	"parcolor/internal/graph.Grid":            "linial, lowdeg and mis tests build grid fixtures",
	"parcolor/internal/graph.CountEdgesAmong": "mpc and params tests check edge counts against it",
	"parcolor/internal/d1lc.ShiftedPalettes":  "params tests build shifted-palette instances",
	"parcolor/internal/d1lc.GreedyComplete":   "sparsify tests complete partial colorings with it",
	"parcolor/internal/mpc.RowsFromScalar":    "deframe's cross-tier test feeds the MPC row protocol with it",
}

// shipped reports whether every function of the package at import path
// p is a root: the root package, the commands, the examples and the
// benchmark module.
func shipped(p string) bool {
	if p == "parcolor" {
		return true
	}
	for _, dir := range []string{"parcolor/cmd/", "parcolor/examples/", "parcolor/bench/"} {
		if strings.HasPrefix(p+"/", dir) {
			return true
		}
	}
	return false
}

// fileScope is what resolving an identifier in one file needs: the
// file's package and the module packages it imports, by local name.
type fileScope struct {
	pkg     string
	imports map[string]string
}

// scoped is a declaration or body with the scope its names resolve in.
type scoped struct {
	scope *fileScope
	node  ast.Node
}

// module is the module's non-test source: every non-test .go file,
// bench/ included, by import path.
type module struct {
	fset    *token.FileSet
	files   map[string][]*ast.File // import path → non-test files
	pkgName map[string]string      // import path → package name
}

// parseModule parses every non-test file of the module.
func parseModule(t *testing.T) *module {
	m := &module{fset: token.NewFileSet(), files: map[string][]*ast.File{}, pkgName: map[string]string{}}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(m.fset, p, nil, 0)
		if err != nil {
			return err
		}
		imp := path.Join("parcolor", filepath.ToSlash(filepath.Dir(p)))
		m.files[imp] = append(m.files[imp], f)
		m.pkgName[imp] = f.Name.Name
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// imports maps the local names of the module packages f imports to
// their import paths.
func (m *module) imports(f *ast.File) map[string]string {
	imports := map[string]string{}
	for _, is := range f.Imports {
		ip, _ := strconv.Unquote(is.Path.Value)
		name, ok := m.pkgName[ip]
		if !ok {
			continue // not a module package
		}
		if is.Name != nil {
			name = is.Name.Name
		}
		imports[name] = ip
	}
	return imports
}

// TestProductionFunctionsReachable fails on every package-level function
// under internal/ that shipped code cannot reach, so code that only tests
// run lives in _test.go files next to those tests. It parses every
// non-test file of the module, bench/ included, and resolves identifiers
// syntactically: pkg.Name through the file's imports, a bare name to the
// file's own package. Roots are every function of a shipped package,
// every main and init, every method body and every package-level var,
// const and type declaration. Methods are not checked here, because
// interface dispatch hides their callers; TestProductionMethodsCalled
// checks them by name.
func TestProductionFunctionsReachable(t *testing.T) {
	m := parseModule(t)
	fset, files := m.fset, m.files

	funcs := map[string]scoped{} // "import/path.Name" → package-level function
	var roots []scoped           // method, main and init bodies; var, const and type declarations
	for pkg, pfiles := range files {
		for _, f := range pfiles {
			sc := &fileScope{pkg: pkg, imports: m.imports(f)}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if name := d.Name.Name; d.Recv == nil && name != "init" && name != "main" {
						funcs[pkg+"."+name] = scoped{sc, d}
					} else {
						roots = append(roots, scoped{sc, d})
					}
				case *ast.GenDecl:
					roots = append(roots, scoped{sc, d})
				}
			}
		}
	}

	live := map[string]bool{}
	var queue []string
	visit := func(key string) {
		if _, ok := funcs[key]; ok && !live[key] {
			live[key] = true
			queue = append(queue, key)
		}
	}
	mark := func(s scoped) {
		sc := s.scope
		var walk func(ast.Node) bool
		walk = func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok && id.Obj == nil {
					if ip, ok := sc.imports[id.Name]; ok {
						visit(ip + "." + x.Sel.Name)
						return false
					}
				}
				ast.Inspect(x.X, walk) // x.Sel is a field or method name
				return false
			case *ast.Ident:
				if x.Obj == nil || x.Obj.Kind == ast.Fun {
					visit(sc.pkg + "." + x.Name)
				}
			}
			return true
		}
		n := s.node
		if fd, ok := n.(*ast.FuncDecl); ok {
			n = fd.Body // not fd.Name: a method may share a function's name
		}
		ast.Inspect(n, walk)
	}
	drain := func() {
		for len(queue) > 0 {
			key := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			mark(funcs[key])
		}
	}
	for key, d := range funcs {
		if shipped(d.scope.pkg) {
			visit(key)
		}
	}
	for _, r := range roots {
		mark(r)
	}
	drain()

	for key := range testOnlyAllowed {
		if _, ok := funcs[key]; !ok {
			t.Errorf("allow-list entry %s is not a declared package-level function", key)
		} else if live[key] {
			t.Errorf("allow-list entry %s is reachable from shipped code; drop it from the list", key)
		}
		visit(key) // what only allow-listed functions call is test support too
	}
	drain()

	var dead []string
	for key, d := range funcs {
		if strings.HasPrefix(d.scope.pkg, "parcolor/internal/") && !live[key] {
			dead = append(dead, key+" ("+fset.Position(d.node.Pos()).String()+")")
		}
	}
	slices.Sort(dead)
	for _, d := range dead {
		t.Errorf("%s is reachable only from tests: move it into a _test.go file next to its callers, or delete it", d)
	}
}

// TestProductionMethodsCalled fails on every method declared under
// internal/ whose name no non-test file of the module, bench/ included,
// uses as a selector x.Name: a method that only tests call, or that
// nothing calls, which the linker drops from every binary in silence.
// Methods of the types the root package re-exports by alias (Graph,
// Instance, Coloring, ...) are library API and exempt. The check goes
// by name alone, so it cannot see a dead method whose name a live
// selector elsewhere shares: a method named Shuffle stays hidden as long
// as any file calls some other Shuffle, such as math/rand's.
func TestProductionMethodsCalled(t *testing.T) {
	m := parseModule(t)
	used := map[string]bool{}    // every selector name of the module
	aliased := map[string]bool{} // "import/path.Type" the root package aliases
	for pkg, pfiles := range m.files {
		for _, f := range pfiles {
			ast.Inspect(f, func(n ast.Node) bool {
				if x, ok := n.(*ast.SelectorExpr); ok {
					used[x.Sel.Name] = true
				}
				return true
			})
			if pkg != "parcolor" {
				continue
			}
			imports := m.imports(f)
			for _, d := range f.Decls {
				if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
					for _, spec := range gd.Specs {
						ts := spec.(*ast.TypeSpec)
						if x, ok := ts.Type.(*ast.SelectorExpr); ok && ts.Assign.IsValid() {
							if id, ok := x.X.(*ast.Ident); ok {
								aliased[imports[id.Name]+"."+x.Sel.Name] = true
							}
						}
					}
				}
			}
		}
	}

	var dead []string
	for pkg, pfiles := range m.files {
		if !strings.HasPrefix(pkg, "parcolor/internal/") {
			continue
		}
		for _, f := range pfiles {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || used[fd.Name.Name] {
					continue
				}
				recv := fd.Recv.List[0].Type
				if x, ok := recv.(*ast.StarExpr); ok {
					recv = x.X
				}
				switch x := recv.(type) {
				case *ast.IndexExpr:
					recv = x.X
				case *ast.IndexListExpr:
					recv = x.X
				}
				typ := pkg + "." + recv.(*ast.Ident).Name
				if !aliased[typ] {
					dead = append(dead, typ+"."+fd.Name.Name+" ("+m.fset.Position(fd.Pos()).String()+")")
				}
			}
		}
	}
	slices.Sort(dead)
	for _, d := range dead {
		t.Errorf("method %s is called by no non-test file: move it into a _test.go file next to its callers, or delete it", d)
	}
}
