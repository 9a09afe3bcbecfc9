package smvx

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// buildDemo assembles a minimal protected application through the public
// API only.
func buildDemo(t *testing.T) *System {
	t.Helper()
	img := NewImage("demo", 0x400000).
		AddFunc("main", 128).
		AddFunc("handle_input", 256).
		AddData("g_secret", 8, nil).
		AddBSS("g_buf", 1024).
		NeedLibc("gettimeofday", "malloc", "free", "open", "write", "close").
		Build()
	prog := NewProgram(img)
	prog.MustDefine("handle_input", func(t *Thread, args []uint64) uint64 {
		g := t.Global("g_buf")
		t.Libc("gettimeofday", uint64(g), 0)
		p := t.Libc("malloc", 64)
		t.Store64(Addr(p), t.Load64(g))
		t.Libc("free", p)
		return t.Load64(g)
	})
	sys, err := NewSystem(NewKernel(1), prog, WithBootSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestPublicAPIRoundTrip(t *testing.T) {
	sys := buildDemo(t)
	sys.Protect(WithSeed(1))
	rep, err := sys.RunProtected("handle_input")
	if err != nil {
		t.Fatalf("RunProtected: %v", err)
	}
	if rep.Diverged {
		t.Fatalf("benign region diverged: %+v", rep)
	}
	if rep.Function != "handle_input" || rep.LibcCalls != 3 {
		t.Errorf("report = %+v", rep)
	}
	if len(sys.Alarms()) != 0 {
		t.Errorf("alarms = %v", sys.Alarms())
	}
}

func TestRunProtectedUnknownFunction(t *testing.T) {
	sys := buildDemo(t)
	if _, err := sys.RunProtected("nope"); err == nil {
		t.Error("unknown function should fail")
	}
}

func TestUnprotectedSystemHasNoAlarms(t *testing.T) {
	sys := buildDemo(t)
	if sys.Alarms() != nil {
		t.Error("unprotected system should report nil alarms")
	}
}

func TestDivergenceSurfacesThroughFacade(t *testing.T) {
	img := NewImage("divapp", 0x400000).
		AddFunc("main", 64).
		AddFunc("evil", 128).
		AddBSS("g_buf", 256).
		NeedLibc("gettimeofday", "time").
		Build()
	prog := NewProgram(img)
	prog.MustDefine("evil", func(t *Thread, args []uint64) uint64 {
		g := t.Global("g_buf")
		if t.Bias() == 0 {
			t.Libc("gettimeofday", uint64(g), 0)
		} else {
			t.Libc("time", 0)
		}
		return 0
	})
	sys, err := NewSystem(NewKernel(2), prog, WithBootSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	sys.Protect(WithSeed(2))
	rep, err := sys.RunProtected("evil")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Diverged {
		t.Error("divergence not reported")
	}
	alarms := sys.Alarms()
	if len(alarms) == 0 || alarms[0].Reason != AlarmCallMismatch {
		t.Errorf("alarms = %v", alarms)
	}
}

func TestDefaultCostsExposed(t *testing.T) {
	if DefaultCosts().SyscallCost() == 0 {
		t.Error("cost table empty")
	}
}

func TestPipelinedModeThroughFacade(t *testing.T) {
	sys := buildDemo(t)
	sys.Protect(WithSeed(4), WithLockstepMode(LockstepPipelined), WithLagWindow(8))
	rep, err := sys.RunProtected("handle_input")
	if err != nil {
		t.Fatalf("RunProtected: %v", err)
	}
	if rep.Diverged {
		t.Fatalf("benign pipelined region diverged: %+v", rep)
	}
	if len(sys.Alarms()) != 0 {
		t.Errorf("alarms = %v", sys.Alarms())
	}
}

func TestEnumParsersRoundTrip(t *testing.T) {
	for _, p := range []DivergencePolicy{PolicyKillBoth, PolicyLeaderContinue, PolicyRestartVariant, PolicyRollback} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p, got, err)
		}
	}
	for _, m := range []LockstepMode{LockstepStrict, LockstepPipelined} {
		got, err := ParseLockstepMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseLockstepMode(%q) = %v, %v", m, got, err)
		}
	}
	if SyncClassOf("gettimeofday") != SyncPipelined || SyncClassOf("write") != SyncBarrier {
		t.Error("SyncClassOf disagrees with the documented classes")
	}
}

// optionSurface parses a package directory (tests excluded) and returns the
// names that belong on the public facade: exported option constructors
// (With... returning Option) and exported constants of the enumerated
// configuration types.
func optionSurface(t *testing.T, dir string) []string {
	t.Helper()
	enumTypes := map[string]bool{
		"AlarmReason": true, "DivergencePolicy": true, "LockstepMode": true,
	}
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil || !d.Name.IsExported() || !strings.HasPrefix(d.Name.Name, "With") {
					continue
				}
				if r := d.Type.Results; r != nil && len(r.List) == 1 {
					if id, ok := r.List[0].Type.(*ast.Ident); ok && id.Name == "Option" {
						names = append(names, d.Name.Name)
					}
				}
			case *ast.GenDecl:
				if d.Tok != token.CONST {
					continue
				}
				// Within one const block, specs without an explicit type
				// inherit the previous spec's (the iota idiom).
				cur := ""
				for _, spec := range d.Specs {
					vs := spec.(*ast.ValueSpec)
					if vs.Type != nil {
						cur = ""
						if id, ok := vs.Type.(*ast.Ident); ok {
							cur = id.Name
						}
					}
					if !enumTypes[cur] {
						continue
					}
					for _, n := range vs.Names {
						if n.IsExported() {
							names = append(names, n.Name)
						}
					}
				}
			}
		}
	}
	return names
}

// facadeRefs returns, per imported package name, the set of selector names
// smvx.go references (core.WithSeed -> refs["core"]["WithSeed"]).
func facadeRefs(t *testing.T) map[string]map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "smvx.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	refs := map[string]map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok {
			if refs[id.Name] == nil {
				refs[id.Name] = map[string]bool{}
			}
			refs[id.Name][sel.Sel.Name] = true
		}
		return true
	})
	return refs
}

// Every exported option constructor and enumerated configuration constant of
// internal/core and internal/boot must be re-exported (referenced) by the
// public facade — a new core/boot option without a smvx alias fails here, so
// the public surface cannot silently drift behind the internal one again.
func TestPublicSurfaceCoversInternalOptions(t *testing.T) {
	refs := facadeRefs(t)
	for _, pkg := range []struct{ dir, name string }{
		{"internal/core", "core"},
		{"internal/boot", "boot"},
	} {
		surface := optionSurface(t, pkg.dir)
		if len(surface) == 0 {
			t.Fatalf("no option surface found in %s (parser broken?)", pkg.dir)
		}
		for _, name := range surface {
			if !refs[pkg.name][name] {
				t.Errorf("%s.%s has no re-export in smvx.go", pkg.name, name)
			}
		}
	}
}

func TestRepeatedProtectedRegions(t *testing.T) {
	sys := buildDemo(t)
	sys.Protect(WithSeed(3))
	for i := 0; i < 3; i++ {
		rep, err := sys.RunProtected("handle_input")
		if err != nil {
			t.Fatalf("region %d: %v", i, err)
		}
		if rep.Diverged {
			t.Fatalf("region %d diverged", i)
		}
	}
	if got := len(sys.Monitor.Reports()); got != 3 {
		t.Errorf("reports = %d", got)
	}
}
