package rqp

// The census: every function declared outside cmd/, examples/ and
// benchmark/ must reach a binary. The test builds every main with inlining
// off, so the linker's dead-code pass is the only filter, lists the text
// symbols of each binary with `go tool nm`, and fails on any declared
// non-test function that none of them holds.
//
// A failure names the unreached functions. Delete each one, or move it into
// a _test.go file when only its own package's tests call it. If another
// package's tests genuinely need it, add it to censusAllowed below with a
// comment saying which tests and why.

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// censusAllowed lists the functions no binary reaches that stay, keyed as
// the census reports them ("rqp/internal/pkg.Func" or
// "rqp/internal/pkg.Type.Method"). It holds at most censusAllowedMax.
var censusAllowed = map[string]bool{
	// Row poisoning: the row-lifetime harnesses of internal/core and
	// internal/exec scribble over every row an operator hands on.
	"rqp/internal/exec.SetRowPoison": true,
	// Stalls a shard's start so internal/core's tests can cancel and kill
	// a sharded join at a chosen point.
	"rqp/internal/exec.SetShardStartHook": true,
	// The B+ tree's structural check, run by internal/index's and
	// internal/catalog's tests after builds and DML.
	"rqp/internal/index.BTree.CheckInvariants": true,
	// The reference client's only sender of MsgCancel; the server's cancel
	// path, which every binary links, is tested through it.
	"rqp/internal/server.Client.Cancel": true,
	// The read side of a trace, which the binaries only render: the tests
	// of internal/core, exec, experiments and server check which events a
	// statement recorded (spills, grants, re-plans) and its fragments.
	"rqp/internal/obs.Trace.Events": true,
	"rqp/internal/obs.Trace.Roots":  true,
	// Temp-run pages outstanding: internal/exec's fault tests check that an
	// aborted operator discarded its spill runs.
	"rqp/internal/storage.OpenTempPages": true,
	// Admission slots held: internal/server's fault tests check that a
	// canceled, failed or disconnected statement gives its slot back.
	"rqp/internal/wlm.Admitter.Active": true,
}

// censusMarker reports whether fn is one of internal/sql's empty interface
// marker methods (stmt() on statements, exprNode() on expressions): the
// type system uses them, no code calls them.
func censusMarker(pkg string, fn *ast.FuncDecl) bool {
	return pkg == "rqp/internal/sql" && fn.Recv != nil &&
		(fn.Name.Name == "stmt" || fn.Name.Name == "exprNode") &&
		len(fn.Body.List) == 0
}

// censusAllowedMax caps the allow-list: test support that other packages
// need is the exception, and each entry is code that only tests run.
const censusAllowedMax = 8

func TestEveryFunctionReachesABinary(t *testing.T) {
	if len(censusAllowed) > censusAllowedMax {
		t.Errorf("censusAllowed holds %d functions, more than %d", len(censusAllowed), censusAllowedMax)
	}
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	bin := t.TempDir()
	build := exec.Command(goTool, "build", "-gcflags=all=-l", "-o", bin,
		"./cmd/...", "./benchmark", "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	reached := map[string]bool{}
	entries, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("go build made no binaries")
	}
	for _, e := range entries {
		out, err := exec.Command(goTool, "tool", "nm", filepath.Join(bin, e.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", e.Name(), err)
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			// "addr type name"; a name may hold spaces ("go.shape.struct { … }").
			f := strings.SplitN(strings.TrimLeft(sc.Text(), " "), " ", 3)
			if len(f) == 3 && (f[1] == "T" || f[1] == "t") && strings.HasPrefix(f[2], "rqp/") {
				reached[censusSymbol(f[2])] = true
			}
		}
	}

	declared := censusDeclared(t)
	var unreached []string
	for name := range declared {
		if !reached[name] && !censusAllowed[name] {
			unreached = append(unreached, name)
		}
	}
	for name := range censusAllowed {
		if reached[name] {
			t.Errorf("%s is allow-listed but a binary reaches it: take it off censusAllowed", name)
		} else if !declared[name] {
			t.Errorf("%s is allow-listed but not declared: take it off censusAllowed", name)
		}
	}
	sort.Strings(unreached)
	for _, name := range unreached {
		t.Errorf("no binary reaches %s", name)
	}
}

// censusSymbol normalises a symbol as `go tool nm` prints it to the key a
// declaration gets: type-argument lists are dropped at any depth and
// pointer receivers lose their (*...), so "rqp/x.(*List[go.shape.int]).Get"
// and "rqp/x.List.Get" are both "rqp/x.List.Get".
func censusSymbol(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	s := b.String()
	if i := strings.Index(s, ".(*"); i >= 0 {
		if j := strings.Index(s[i:], ")"); j >= 0 {
			s = s[:i+1] + s[i+3:i+j] + s[i+j+1:]
		}
	}
	return s
}

// censusDeclared lists every non-test function declared outside cmd/,
// examples/ and benchmark/, less init functions and internal/sql's markers.
func censusDeclared(t *testing.T) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case "cmd", "examples", "benchmark", "testdata":
				return filepath.SkipDir
			}
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		pkg := "rqp"
		if dir := filepath.Dir(path); dir != "." {
			pkg += "/" + filepath.ToSlash(dir)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" || censusMarker(pkg, fn) {
				continue
			}
			name := pkg + "."
			if fn.Recv != nil {
				name += censusRecv(fn.Recv.List[0].Type) + "."
			}
			names[name+fn.Name.Name] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// censusRecv names a receiver type without its pointer or type parameters.
func censusRecv(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return censusRecv(x.X)
	case *ast.ParenExpr:
		return censusRecv(x.X)
	case *ast.IndexExpr:
		return censusRecv(x.X)
	case *ast.IndexListExpr:
		return censusRecv(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
