package bettertogether

import (
	"go/ast"
	"os"
	"regexp"
	"testing"
)

// TestDocsCiteExistingTests fails when DESIGN.md, EXPERIMENTS.md or
// README.md cites a `TestX`, `FuzzX` or `BenchmarkX` that no _test.go
// file of this module or of perfbench declares, so a deleted or renamed
// test cannot leave the docs pointing at nothing.
func TestDocsCiteExistingTests(t *testing.T) {
	declared := map[string]bool{}
	parseGoFiles(t, true, func(_ string, f *ast.File) {
		for _, dd := range f.Decls {
			if fd, ok := dd.(*ast.FuncDecl); ok && fd.Recv == nil {
				declared[fd.Name.Name] = true
			}
		}
	})
	cite := regexp.MustCompile("`((?:Test|Fuzz|Benchmark)[A-Z]\\w*)`")
	cited := 0
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md", "README.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cite.FindAllStringSubmatch(string(raw), -1) {
			cited++
			if !declared[m[1]] {
				t.Errorf("%s cites %s, which no _test.go file declares", doc, m[1])
			}
		}
	}
	if cited == 0 {
		t.Fatal("no test citations found in the docs; the pattern no longer matches them")
	}
}
