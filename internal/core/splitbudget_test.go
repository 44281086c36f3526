package core

import (
	"fmt"
	"path/filepath"
	"testing"

	"nodb/internal/csvgen"
	"nodb/internal/plan"
)

func TestBudgetSplitFilesPolicy(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.csv")
	if err := csvgen.WriteFile(path, csvgen.Spec{Rows: 20000, Cols: 6, Seed: 13}); err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, Options{Policy: plan.PolicySplitFiles, MemoryBudget: 400_000})
	defer e.Close()
	if err := e.Attach("S", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		for c := 0; c < 6; c++ {
			res, err := e.Query(fmt.Sprintf("select count(*) from S where a%d >= 0", c+1))
			if err != nil {
				t.Fatalf("pass %d a%d: %v", pass, c+1, err)
			}
			if res.Rows[0][0].I != 20000 {
				t.Fatalf("pass %d a%d: count=%v", pass, c+1, res.Rows[0][0])
			}
			if used := e.Governor().Used(); used > 400_000 {
				t.Fatalf("used %d > budget", used)
			}
		}
	}
	if e.MemStats().Evictions == 0 {
		t.Fatal("expected evictions")
	}
}
