package opt

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

// TestCards: LEO's factor is a moving average of actual/estimated; a factor
// multiplies the estimate, floored at one row and never capped; exact rows
// replace it; a layer applies its own entries over the table under it and
// writes nothing into that table.
func TestCards(t *testing.T) {
	c := &Cards{}
	if c.Len() != 0 || c.apply("p", 7, true) != 7 {
		t.Fatal("an empty table changed an estimate")
	}
	c.Learn("p", 100, 1000)
	if got := c.apply("p", 100, true); math.Abs(got-1000) > 1e-9 {
		t.Errorf("learned factor applied to 100 rows gives %v, want 1000", got)
	}
	c.Learn("p", 100, 100) // halfway from 10 toward 1
	if got := c.apply("p", 100, true); math.Abs(got-550) > 1e-9 {
		t.Errorf("moving average applied to 100 rows gives %v, want 550", got)
	}
	if got := c.apply("p", 0.01, true); got != 1 {
		t.Errorf("a factor's result is floored at one row: got %v", got)
	}
	if got := c.apply("p", 1e6, true); math.Abs(got-5.5e6) > 1e-3 {
		t.Errorf("a factor's result has no ceiling: got %v, want 5.5e6", got)
	}
	c.Learn("", 1, 100)
	if c.Len() != 1 || c.apply("q", 42, true) != 42 {
		t.Errorf("a keyless or unknown node moved the table: %d keys", c.Len())
	}

	corner := c.Over()
	corner.ScaleBase(2)
	if got := corner.apply("p", 100, true); math.Abs(got-1100) > 1e-9 {
		t.Errorf("a corner's factor multiplies the learned one: got %v, want 1100", got)
	}
	if got := corner.apply("p", 100, false); math.Abs(got-550) > 1e-9 {
		t.Errorf("a corner scales base relations only: got %v, want 550", got)
	}
	if got := corner.apply("", 10, true); got != 20 {
		t.Errorf("a corner scales a filterless base relation too: got %v, want 20", got)
	}
	check := c.Over()
	check.SetRows("p", 3)
	if got := check.apply("p", 100, true); got != 3 {
		t.Errorf("exact rows replace the estimate: got %v, want 3", got)
	}
	if c.Len() != 1 || c.apply("p", 100, true) != 550 {
		t.Error("a layer wrote into the table under it")
	}
}

// TestCardsConcurrent: the engine's table is learned into by every finishing
// execution while other sessions plan over it (run under -race).
func TestCardsConcurrent(t *testing.T) {
	c := &Cards{}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			layer := c.Over()
			layer.ScaleBase(2)
			for i := 0; i < 200; i++ {
				sig := fmt.Sprintf("t|a = %d", i%8)
				c.Learn(sig, 10, float64(10+w))
				if layer.Len() == 0 || layer.apply(sig, 10, true) < 1 {
					t.Error("a learned key vanished")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() != 8 {
		t.Errorf("%d keys learned, want 8", c.Len())
	}
}

// TestOneCardinalitySeam: an estimate is replaced only through Cards. No
// non-test code outside this package assigns (or builds with) the Rows or
// Pages of a BaseRel — Rio and POP once copied the relations and overwrote
// them — and the private paths the table replaced stay gone: the LEO option,
// the feedback store and BaseRel's Exact flag.
func TestOneCardinalitySeam(t *testing.T) {
	for typ, field := range map[reflect.Type]string{reflect.TypeOf(Options{}): "UseFeedback", reflect.TypeOf(BaseRel{}): "Exact"} {
		if _, ok := typ.FieldByName(field); ok {
			t.Errorf("%s.%s is back; replace estimates through Cards", typ.Name(), field)
		}
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	src := &srcImporter{root: root, fset: fset, std: importer.Default(),
		pkgs: map[string]*types.Package{}, files: map[string][]*ast.File{},
		info: &types.Info{Selections: map[*ast.SelectorExpr]*types.Selection{}, Types: map[ast.Expr]types.TypeAndValue{}}}
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		if dir := filepath.Dir(path); !slices.Contains(dirs, dir) {
			dirs = append(dirs, dir)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && (id.Name == "UseFeedback" || id.Name == "FeedbackStore") {
				t.Errorf("%s: %s is back; replace estimates through opt.Cards", fset.Position(id.Pos()), id.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	isBaseRel := func(typ types.Type) bool {
		if p, ok := typ.(*types.Pointer); ok {
			typ = p.Elem()
		}
		n, ok := typ.(*types.Named)
		return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "rqp/internal/opt" && n.Obj().Name() == "BaseRel"
	}
	checked := 0
	for _, dir := range dirs {
		rel, _ := filepath.Rel(root, dir)
		path := filepath.ToSlash(filepath.Join("rqp", rel))
		if path == "rqp/internal/opt" {
			continue
		}
		if _, err := src.Import(path); err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
		for _, f := range src.files[path] {
			checked++
			report := func(n ast.Node, field string) {
				t.Errorf("%s: sets opt.BaseRel.%s; replace the estimate through opt.Cards", fset.Position(n.Pos()), field)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				var lhs []ast.Expr
				switch n := n.(type) {
				case *ast.AssignStmt:
					lhs = n.Lhs
				case *ast.IncDecStmt:
					lhs = []ast.Expr{n.X}
				case *ast.CompositeLit:
					if tv, ok := src.info.Types[n]; ok && isBaseRel(tv.Type) {
						for _, el := range n.Elts {
							if kv, ok := el.(*ast.KeyValueExpr); ok {
								if k, ok := kv.Key.(*ast.Ident); ok && (k.Name == "Rows" || k.Name == "Pages") {
									report(kv, k.Name)
								}
							}
						}
					}
				}
				for _, e := range lhs {
					if sel, ok := e.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Rows" || sel.Sel.Name == "Pages") {
						if s, ok := src.info.Selections[sel]; ok && isBaseRel(s.Recv()) {
							report(sel, sel.Sel.Name)
						}
					}
				}
				return true
			})
		}
	}
	if checked < 100 {
		t.Fatalf("only %d files type-checked", checked)
	}
}

// srcImporter type-checks the module's packages from their non-test sources
// (recording every selection and expression type in info) and imports the
// standard library's export data.
type srcImporter struct {
	root  string
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
	info  *types.Info
}

func (s *srcImporter) Import(path string) (*types.Package, error) {
	if path != "rqp" && !strings.HasPrefix(path, "rqp/") {
		return s.std.Import(path)
	}
	if p, ok := s.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(s.root, strings.TrimPrefix(path, "rqp"))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, "_test.go") || !strings.HasSuffix(name, ".go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	s.files[path] = files
	if len(files) == 0 { // a directory of tests only
		p := types.NewPackage(path, filepath.Base(dir))
		s.pkgs[path] = p
		return p, nil
	}
	p, err := (&types.Config{Importer: s}).Check(path, s.fset, files, s.info)
	s.pkgs[path] = p
	return p, err
}
