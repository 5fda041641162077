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

// apiRow is one exported identifier: its api.txt line, the name another
// package would write to use it, and whether it is a JSON-tagged field
// (which encoding/json needs exported even when no Go code names it).
type apiRow struct {
	line, name string
	json       bool
}

// exportedSurface lists every exported identifier of the package in dir,
// one per line: top-level funcs, types, consts and vars, methods of
// exported types, and the exported fields / interface methods of exported
// types (so a Config field counts).
func exportedSurface(t *testing.T, dir string) []apiRow {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []apiRow
	add := func(kind, name string) {
		out = append(out, apiRow{line: fmt.Sprintf("%s %s %s", dir, kind, name), name: name[strings.LastIndex(name, ".")+1:]})
	}
	members := func(typ, kind string, fl *ast.FieldList) {
		for _, f := range fl.List {
			for _, n := range f.Names {
				if n.IsExported() {
					add(kind, typ+"."+n.Name)
					out[len(out)-1].json = f.Tag != nil && strings.Contains(f.Tag.Value, `json:"`)
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
		for _, r := range exportedSurface(t, dir) {
			lines = append(lines, r.line)
		}
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

// apiExempt lists the api.txt rows that stay exported although no Go file
// outside their own package names them, each with the reason: each is the
// type of a value that other packages get from an exported function or
// field and use without writing its name.
var apiExempt = map[string]string{
	"internal/cluster type UnitPos":      "element type of Placement.UnitPositions, which core, measure and interfd call",
	"internal/hetero type ErrStats":      "value type of Selection.Stats and .BestStats, which experiments and paperrepro profile read",
	"internal/measure type Batch":        "returned by Env.NewBatch, which core and experiments call",
	"internal/obs type RuntimeCollector": "returned by NewRuntimeCollector, which interfd calls",
}

// identsByDir parses every Go file in the module and in bench/, tests
// included, and returns the identifiers each directory's files name.
func identsByDir(t *testing.T) map[string]map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	out := map[string]map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if out[dir] == nil {
			out[dir] = map[string]bool{}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				out[dir][id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestAPISurfaceIsImported: every pinned row is named, as a Go
// identifier, by some file outside its own directory — another package,
// the root tests or bench/. A row only its own package uses should be
// unexported or deleted. JSON-tagged fields are exempt, and so is each
// row of apiExempt, which must list only pinned rows that are unnamed.
func TestAPISurfaceIsImported(t *testing.T) {
	idents := identsByDir(t)
	stale := map[string]bool{}
	for line := range apiExempt {
		stale[line] = true
	}
	for _, dir := range apiPackages {
		for _, r := range exportedSurface(t, dir) {
			if r.json {
				continue
			}
			named := false
			for d, set := range idents {
				if d != dir && set[r.name] {
					named = true
					break
				}
			}
			_, exempt := apiExempt[r.line]
			if exempt && !named {
				delete(stale, r.line)
			}
			if !named && !exempt {
				t.Errorf("named by no file outside %s: %s", dir, r.line)
			}
		}
	}
	for line := range stale {
		t.Errorf("apiExempt lists a row that is not pinned, or is named elsewhere: %s", line)
	}
}
