package ps

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// benchTwins are the panicking twins the host-time benchmark harness
// (perfbench/, a module of its own that builds against this API) still
// calls. They go once the harness calls TryPullRows and TryPull.
var benchTwins = map[string]bool{"Matrix.PullRows": true, "Vector.Pull": true}

// retiredShims were compatibility delegates whose callers all moved to the
// general form: SSPClock.WaitPolicy with a consistency.ClockBounded policy,
// and Matrix.TickClock.
var retiredShims = map[string]bool{
	"SSPClock.WaitTurn": true, "SSPClock.WaitUntilMin": true, "HotReplicaSet.Tick": true,
}

// TestNoPanickingTwins keeps the operator surface of ps and dcv at one form
// per operator: the TryX that returns a typed error. A plain exported X
// beside TryX on the same receiver, or an exported Must* wrapper, is a
// panicking twin; callers without an error return use rdd.Must/rdd.Check at
// the task boundary instead. The retired shims stay gone too.
func TestNoPanickingTwins(t *testing.T) {
	var bad []string
	for _, dir := range []string{".", "../dcv"} {
		bad = append(bad, panickingTwins(t, dir)...)
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// panickingTwins parses the non-test Go files of dir and reports every
// exported Must* function or method, every exported method X whose receiver
// also has TryX, and every retired shim.
func panickingTwins(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	decls := map[string]token.Position{} // "Recv.Name" or "Name" → position
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			key := fd.Name.Name
			if fd.Recv != nil {
				typ := fd.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if id, ok := typ.(*ast.Ident); ok {
					key = id.Name + "." + key
				}
			}
			decls[key] = fset.Position(fd.Pos())
		}
	}
	var bad []string
	for key, pos := range decls {
		i := strings.LastIndex(key, ".") + 1
		name := key[i:]
		switch {
		case strings.HasPrefix(name, "Must"):
			bad = append(bad, pos.String()+": exported "+key+" panics on an error; return it instead")
		case retiredShims[key]:
			bad = append(bad, pos.String()+": "+key+" is a retired shim")
		}
		if _, twin := decls[key[:i]+"Try"+name]; twin && !benchTwins[key] {
			bad = append(bad, pos.String()+": "+key+" duplicates Try"+name)
		}
	}
	return bad
}
