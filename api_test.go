package bench

import (
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestExportedNamesHaveCallers holds internal/ to the rule that every
// exported top-level func, method, type, var and const has a caller outside
// its own package's tests: an identifier token with its name in a non-test
// file (anywhere in the repository, the benchmark harness and examples
// included) other than the declaration itself, or in a test file of another
// directory. A name only its own package's tests use belongs in that
// package's export_test.go, or unexported.
//
// Matching is by token, not by type, so a dead method whose name collides
// with a live one passes; the test is a floor, not a proof.
func TestExportedNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	type occurrence struct {
		file string
		pos  token.Pos
	}
	type source struct {
		path string
		src  []byte
		base token.Pos
	}
	uses := map[string][]occurrence{}
	var internal []source
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f := fset.AddFile(path, -1, len(src))
		var s scanner.Scanner
		s.Init(f, src, nil, 0)
		for {
			pos, tok, lit := s.Scan()
			if tok == token.EOF {
				break
			}
			if tok == token.IDENT && ast.IsExported(lit) {
				uses[lit] = append(uses[lit], occurrence{path, pos})
			}
		}
		if strings.HasPrefix(path, "internal"+string(filepath.Separator)) && !strings.HasSuffix(path, "_test.go") {
			internal = append(internal, source{path, src, token.Pos(f.Base())})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Parse each internal file against its scanned positions, so a
	// declaration's name token is the same token.Pos the scan recorded.
	var missing []string
	for _, file := range internal {
		path := file.path
		pf := token.NewFileSet()
		f, err := parser.ParseFile(pf, path, file.src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkg := f.Name.Name
		check := func(id *ast.Ident, qualified string) {
			if !id.IsExported() {
				return
			}
			decl := file.base + token.Pos(pf.Position(id.Pos()).Offset)
			dir := filepath.Dir(path)
			for _, u := range uses[id.Name] {
				test := strings.HasSuffix(u.file, "_test.go")
				if (!test && u.pos != decl) || (test && filepath.Dir(u.file) != dir) {
					return
				}
			}
			missing = append(missing, pf.Position(id.Pos()).String()+" "+pkg+"."+qualified)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					check(d.Name, d.Name.Name)
					continue
				}
				if recv := receiverName(d.Recv.List[0].Type); ast.IsExported(recv) {
					check(d.Name, recv+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						check(spec.Name, spec.Name.Name)
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							check(n, n.Name)
						}
					}
				}
			}
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		t.Errorf("%d exported names have no caller outside their package's tests:\n%s",
			len(missing), strings.Join(missing, "\n"))
	}
}

// receiverName returns the base type name of a method receiver.
func receiverName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}
