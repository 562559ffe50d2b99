package exec

import (
	"go/ast"
	"go/parser"
	"go/token"
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
// buildJoin, which makes merge joins and g-joins.
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
	makers := map[string]string{"mergeJoin": "buildJoin", "gJoin": "buildJoin", "shardedHashJoin": "newShardedHashJoin"}
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
