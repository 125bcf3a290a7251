package zaatar

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files: api/zaatar.txt and testdata/metrics_surface.golden")

const apiGoldenPath = "api/zaatar.txt"

// exportedAPI renders the package's exported surface — every exported
// type, func, method, const, and var declaration, bodies and comments
// stripped — as a sorted, deterministic text form.
func exportedAPI(t *testing.T) string {
	t.Helper()
	fset := token.NewFileSet()
	var decls []string
	render := func(node any) string {
		var buf bytes.Buffer
		if err := printer.Fprint(&buf, fset, node); err != nil {
			t.Fatal(err)
		}
		// One decl per line: the golden diffs line-by-line.
		return strings.Join(strings.Fields(buf.String()), " ")
	}

	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if n := e.Name(); strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		file, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ast.FileExports(file) // prune everything unexported, including struct fields
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				d.Doc, d.Body = nil, nil
				decls = append(decls, render(d))
			case *ast.GenDecl:
				if len(d.Specs) == 0 || d.Tok == token.IMPORT {
					continue
				}
				d.Doc = nil
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						s.Doc, s.Comment = nil, nil
						decls = append(decls, "type "+render(s))
					case *ast.ValueSpec:
						s.Doc, s.Comment = nil, nil
						decls = append(decls, d.Tok.String()+" "+render(s))
					}
				}
			}
		}
	}
	sort.Strings(decls)
	return strings.Join(decls, "\n") + "\n"
}

// TestAPIGolden diffs the exported surface of package zaatar against the
// checked-in golden file, so API changes are deliberate: regenerate with
//
//	go test -run TestAPIGolden -update .
func TestAPIGolden(t *testing.T) {
	got := exportedAPI(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(apiGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(apiGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d declarations)", apiGoldenPath, strings.Count(got, "\n"))
		return
	}
	wantBytes, err := os.ReadFile(apiGoldenPath)
	if err != nil {
		t.Fatalf("reading %s (regenerate with -update): %v", apiGoldenPath, err)
	}
	want := string(wantBytes)
	if got == want {
		return
	}
	gotSet := make(map[string]bool)
	for _, l := range strings.Split(strings.TrimSuffix(got, "\n"), "\n") {
		gotSet[l] = true
	}
	wantSet := make(map[string]bool)
	for _, l := range strings.Split(strings.TrimSuffix(want, "\n"), "\n") {
		wantSet[l] = true
	}
	var diff []string
	for l := range wantSet {
		if !gotSet[l] {
			diff = append(diff, "- "+l)
		}
	}
	for l := range gotSet {
		if !wantSet[l] {
			diff = append(diff, "+ "+l)
		}
	}
	sort.Strings(diff)
	t.Fatalf("exported API differs from %s (run `go test -run TestAPIGolden -update .` if intentional):\n%s",
		apiGoldenPath, strings.Join(diff, "\n"))
}

// TestAPIGoldenCoversNewSurface spot-checks that the renderer sees the v2
// surface, guarding against the golden silently going empty.
func TestAPIGoldenCoversNewSurface(t *testing.T) {
	api := exportedAPI(t)
	for _, want := range []string{
		"func Serve(",
		"func Dial(",
		"func (c *Client) RunBatch(",
		"type SessionResult =",
		"type CompileOption interface",
		"type RunOption interface",
	} {
		if !strings.Contains(api, want) {
			t.Errorf("exported API render is missing %q:\n%s", want, api)
		}
	}
	if fmt.Sprintf("%c", api[0]) == " " {
		t.Error("API render starts with whitespace")
	}
}
