package exec

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneProbeLoop holds the package to one probe loop for every streaming
// join: nested-loop and index nested-loop joins are pipeline stages probed
// through joinProbe.each, as hash joins are, so no operator of their own may
// come back. The only join operators are the sharded hash join and the two
// joins that drain both inputs before they emit, and each is made in one
// place: build reaches them only through newGather, newShardedHashJoin and
// buildJoin, which makes g-joins itself and merge joins through
// newMergeJoin, the one maker the hash join's sort-merge fallback shares.
func TestOneProbeLoop(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var parsed []*ast.File
	ops := map[string]bool{} // types with an Open method: the operators
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		parsed = append(parsed, f)
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv != nil && fn.Name.Name == "Open" {
				typ := fn.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if id, ok := typ.(*ast.Ident); ok {
					ops[id.Name] = true
				}
			}
		}
	}
	// Where each join operator may be made.
	makers := map[string]string{"mergeJoin": "newMergeJoin", "gJoin": "buildJoin", "shardedHashJoin": "newShardedHashJoin"}
	calls := map[string]bool{}
	for _, f := range parsed {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok {
						switch ts.Name.Name {
						case "nlJoin", "indexNLJoin", "symHashJoin":
							t.Errorf("%s: type %s: a streaming join is a pipeline stage, not an operator", fset.Position(ts.Pos()), ts.Name.Name)
						}
					}
				}
			case *ast.FuncDecl:
				fn := d.Name.Name
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						id, ok := n.Type.(*ast.Ident)
						if !ok || !ops[id.Name] || !strings.Contains(strings.ToLower(id.Name), "join") {
							break
						}
						switch where := makers[id.Name]; {
						case where == "":
							t.Errorf("%s: %s makes a %s, a join operator beside the pipeline's stages", fset.Position(n.Pos()), fn, id.Name)
						case where != fn:
							t.Errorf("%s: %s makes a %s; only %s may", fset.Position(n.Pos()), fn, id.Name, where)
						}
					case *ast.CallExpr:
						if id, ok := n.Fun.(*ast.Ident); ok && fn == "build" {
							calls[id.Name] = true
						}
					}
					return true
				})
			}
		}
	}
	for _, want := range []string{"newGather", "newShardedHashJoin", "buildJoin"} {
		if !calls[want] {
			t.Errorf("build does not call %s", want)
		}
	}
}

// TestBuildOnlyPlannedNodes holds build to the plan nodes some planner
// makes: every *plan.XNode case of build's type switch must be made by a
// struct literal in a non-test file outside internal/exec and internal/plan.
// An operator only tests build is code no query runs.
func TestBuildOnlyPlannedNodes(t *testing.T) {
	fset := token.NewFileSet()
	cases := map[string]token.Pos{} // node type → its case in build
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || fn.Name.Name != "build" {
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				sw, ok := n.(*ast.TypeSwitchStmt)
				if !ok {
					return true
				}
				for _, c := range sw.Body.List {
					for _, e := range c.(*ast.CaseClause).List {
						if star, ok := e.(*ast.StarExpr); ok {
							if name := planType(star.X); name != "" {
								cases[name] = e.Pos()
							}
						}
					}
				}
				return false
			})
		}
	}
	if len(cases) == 0 {
		t.Fatal("found no *plan node case in build")
	}
	made := map[string]bool{}
	root := filepath.Join("..", "..")
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			switch rel {
			case ".git", filepath.Join("internal", "exec"), filepath.Join("internal", "plan"):
				return filepath.SkipDir
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.CompositeLit); ok {
				if name := planType(lit.Type); name != "" {
					made[name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, pos := range cases {
		if !made[name] {
			t.Errorf("%s: build runs *plan.%s, which no planner makes", fset.Position(pos), name)
		}
	}
}

// planType returns X when e names plan.X, "" otherwise.
func planType(e ast.Expr) string {
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == "plan" {
			return sel.Sel.Name
		}
	}
	return ""
}
