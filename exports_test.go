package bettertogether

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExports are the exported functions and methods in internal/
// that no non-test code calls but that stay, each with the reason.
// Keys are "<import path>.<Func>" or "<import path>.<Type>.<Method>".
var testOnlyExports = map[string]string{
	// References that tests in other packages compare against.
	"bettertogether/internal/tensor.Conv2D":                    "reference that alexnet's ranged conv kernel is checked against",
	"bettertogether/internal/tensor.MaxPool2D":                 "reference that alexnet's ranged pooling kernel is checked against",
	"bettertogether/internal/tensor.Linear":                    "reference that alexnet's ranged fully-connected kernel is checked against",
	"bettertogether/internal/core.ProfileTable.PredictLatency": "reference that sched tests check Candidates' predicted latency against",
	"bettertogether/internal/core.ProfileTable.PredictGapness": "reference that sched tests check Candidates' predicted gapness against",
	"bettertogether/internal/core.SerialFor":                   "serial ParallelFor that kernel tests compare parallel runs against",
	"bettertogether/internal/solver.Key":                       "reference text order the solver and sched tests check the top-K tie-break against",
	// Views that tests in other packages check invariants through.
	"bettertogether/internal/core.ProfileTable.Complete":     "invariant the profiler, core and bt tests assert on every table",
	"bettertogether/internal/soc.Device.HeavyEnv":            "the paper's heavy-interference environment the soc and pipeline tests price against",
	"bettertogether/internal/soc.Device.TDPWatts":            "power ceiling the pipeline energy test bounds average draw by",
	"bettertogether/internal/experiments.Table3Result.Cell":  "lookup the Table 3 tests and root benchmarks read cells through",
	"bettertogether/internal/runtime.Runtime.OnlineProfiler": "handle the runtime and cli tests read the runtime's estimator through",
	"bettertogether/internal/onlineprof.Estimator.Config":    "the cli and runtime tests read the defaulted drift threshold through it",
	// Public through pkg/bt's alias of core.TaskGraph: the paper's DAG
	// applications (Sec. 3.1) are declared and linearized with these.
	"bettertogether/internal/core.TaskGraph.AddEdge":   "bt.TaskGraph API",
	"bettertogether/internal/core.TaskGraph.Linearize": "bt.TaskGraph API",
	// Called by encoding/json.
	"bettertogether/internal/core.ProfileTable.MarshalJSON":   "json.Marshaler",
	"bettertogether/internal/core.ProfileTable.UnmarshalJSON": "json.Unmarshaler",
}

// TestNoTestOnlyExports fails when an exported function or method in
// internal/ is referenced only from _test.go files and is not on the
// testOnlyExports list. Callers are every non-test file of this module
// and of the perfbench module. Functions are matched by package and
// name, methods by name alone, so a method shares a reference with any
// method or field of the same name; references inside a declaration's
// own body do not count.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct{ key, ref string }
	var decls []decl
	// used holds "<import path>.<Func>" for function references and
	// ".<Method>" for method and field selections.
	used := map[string]bool{}
	parseGoFiles(t, false, func(p string, f *ast.File) {
		pkg := path.Join("bettertogether", filepath.ToSlash(filepath.Dir(p)))
		imports := map[string]string{}
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = ip
		}
		// refs records every name root refers to, except self: the
		// declaration root belongs to.
		var refs func(root ast.Node, self string)
		refs = func(root ast.Node, self string) {
			ast.Inspect(root, func(n ast.Node) bool {
				ref := ""
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if ip, ok := imports[x.Name]; ok {
							ref = ip + "." + n.Sel.Name
							if ref != self {
								used[ref] = true
							}
							return false
						}
					}
					if ref = "." + n.Sel.Name; ref != self {
						used[ref] = true
					}
					refs(n.X, self)
					return false
				case *ast.Ident:
					if ref = pkg + "." + n.Name; ref != self {
						used[ref] = true
					}
				}
				return true
			})
		}
		for _, dd := range f.Decls {
			switch dd := dd.(type) {
			case *ast.GenDecl:
				for _, s := range dd.Specs {
					if vs, ok := s.(*ast.ValueSpec); ok {
						for _, v := range vs.Values {
							refs(v, "")
						}
					}
				}
			case *ast.FuncDecl:
				d := decl{key: pkg + "." + dd.Name.Name, ref: pkg + "." + dd.Name.Name}
				if dd.Recv != nil {
					d = decl{key: pkg + "." + recvTypeName(dd.Recv.List[0].Type) + "." + dd.Name.Name, ref: "." + dd.Name.Name}
				}
				if dd.Name.IsExported() && strings.HasPrefix(pkg, "bettertogether/internal/") {
					decls = append(decls, d)
				}
				if dd.Body != nil {
					refs(dd.Body, d.ref)
				}
			}
		}
	})
	declared := map[string]bool{}
	var unused []string
	for _, d := range decls {
		declared[d.key] = true
		if _, kept := testOnlyExports[d.key]; kept {
			if used[d.ref] {
				t.Errorf("%s is on testOnlyExports but non-test code calls it", d.key)
			}
		} else if !used[d.ref] {
			unused = append(unused, d.key)
		}
	}
	sort.Strings(unused)
	for _, k := range unused {
		t.Errorf("%s is exported but only tests call it: delete it, move it into a _test.go file, or list it in testOnlyExports with the reason", k)
	}
	for k := range testOnlyExports {
		if !declared[k] {
			t.Errorf("testOnlyExports lists %s, which is not declared", k)
		}
	}
}

// recvTypeName returns the type name of a method receiver expression.
func recvTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(e.X)
	case *ast.IndexExpr:
		return recvTypeName(e.X)
	case *ast.IndexListExpr:
		return recvTypeName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// parseGoFiles parses the _test.go files (tests) or the other .go files
// (!tests) of this module and of the perfbench module, skipping testdata
// and hidden directories, and hands each to fn with its path.
func parseGoFiles(t *testing.T, tests bool, fn func(path string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") != tests {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		fn(p, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
