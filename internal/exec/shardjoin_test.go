package exec

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneShardJoinPath holds the sharded join to one path: outside tests,
// only the in-process exchange's Collect builds and probes ShardJoiners —
// every mode, co-located included, goes through an exchange — and the
// sharded join never re-packs a build of boxed rows, since its joinStage
// packed the build once as it was collected.
func TestOneShardJoinPath(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var joiners []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			where := fn.Name.Name
			if fn.Recv != nil {
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				where = recv.(*ast.Ident).Name + "." + where
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				id, ok := call.Fun.(*ast.Ident)
				switch {
				case !ok:
				case id.Name == "NewShardJoiner":
					joiners = append(joiners, where)
				case id.Name == "packRows" && name == "shardjoin.go":
					t.Errorf("%s: %s calls packRows; the stage packs the build once", fset.Position(call.Pos()), where)
				}
				return true
			})
		}
	}
	if len(joiners) != 1 || joiners[0] != "localExchange.Collect" {
		t.Errorf("NewShardJoiner is called from %v; want only localExchange.Collect", joiners)
	}
}
