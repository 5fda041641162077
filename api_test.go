package repro

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update", false, "rewrite testdata/api.txt from the current exported surface")

// apiPackages are the layers whose exported surface is pinned: the model
// and its caches, the search, the service in front of it, and — with the
// root facade gone — the packages the commands and bench/ reach directly.
var apiPackages = []string{
	"internal/core", "internal/placement", "internal/serve",
	"internal/measure", "internal/profile", "internal/hetero", "internal/cluster", "internal/obs",
}

// exportedSurface lists every exported identifier of the package in dir,
// one per line: top-level funcs, types, consts and vars, methods of
// exported types, and the exported fields / interface methods of exported
// types (so a Config field counts).
func exportedSurface(t *testing.T, dir string) []string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	add := func(kind, name string) { out = append(out, fmt.Sprintf("%s %s %s", dir, kind, name)) }
	members := func(typ, kind string, fl *ast.FieldList) {
		for _, f := range fl.List {
			for _, n := range f.Names {
				if n.IsExported() {
					add(kind, typ+"."+n.Name)
				}
			}
		}
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					if d.Recv == nil {
						add("func", d.Name.Name)
						continue
					}
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
						add("method", id.Name+"."+d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if !s.Name.IsExported() {
								continue
							}
							add("type", s.Name.Name)
							switch u := s.Type.(type) {
							case *ast.StructType:
								members(s.Name.Name, "field", u.Fields)
							case *ast.InterfaceType:
								members(s.Name.Name, "method", u.Methods)
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() {
									add(strings.ToLower(d.Tok.String()), n.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// TestAPISurface pins the exported surface of apiPackages against
// testdata/api.txt, so a symbol cannot be added (or
// a deleted generation quietly return) without the diff showing it.
// Regenerate with: go test -run TestAPISurface -update .
func TestAPISurface(t *testing.T) {
	var lines []string
	for _, dir := range apiPackages {
		lines = append(lines, exportedSurface(t, dir)...)
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "api.txt")
	if *updateAPI {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("snapshot missing (regenerate with -update): %v", err)
	}
	if got == string(want) {
		return
	}
	wantSet := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		wantSet[l] = true
	}
	for _, l := range lines {
		if !wantSet[l] {
			t.Errorf("added to the exported surface: %s", l)
		}
		delete(wantSet, l)
	}
	for l := range wantSet {
		t.Errorf("removed from the exported surface: %s", l)
	}
	t.Error("exported surface drifted from testdata/api.txt; if intentional, rerun with -update")
}
