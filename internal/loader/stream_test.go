package loader

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nodb/internal/catalog"
	"nodb/internal/csvgen"
	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/storage"
	"nodb/internal/vfs"
)

// TestScanBatchesFlushesAtPortionEnd: a selective streaming scan whose only
// qualifying row sits in portion 0 hands that row over when portion 0
// ends, not when the pass does, so the first emit arrives before the scan
// has read the whole file. The portion layout is learned first, so the
// measured pass has no row-count pre-pass; reads are slowed so that other
// workers cannot race through the file while portion 0 finishes.
func TestScanBatchesFlushesAtPortionEnd(t *testing.T) {
	path := writeGen(t, csvgen.Spec{Rows: 20000, Cols: 2, Seed: 5})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first, _, _ := strings.Cut(string(raw), ",")
	want, err := strconv.ParseInt(first, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	size := int64(len(raw))
	conj := expr.Conjunction{Preds: []expr.Pred{{Col: 0, Op: expr.Eq, Val: storage.IntValue(want)}}}

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			tab, c := linkFresh(t, path, catalog.Options{})
			ffs := vfs.NewFaultFS(nil)
			l := &Loader{Counters: c, Workers: workers, ChunkSize: 4096, UseSynopsis: true, FS: ffs}
			ctx := context.Background()
			if err := l.ScanBatchesContext(ctx, tab, []int{0}, expr.Conjunction{}, 0, 0, func(*exec.Batch) error { return nil }); err != nil {
				t.Fatal(err)
			}
			ffs.AddRule(vfs.Rule{Op: vfs.OpRead, PathContains: "g.csv", Delay: time.Millisecond})

			before := c.Snapshot().RawBytesRead
			var mu sync.Mutex
			atFirst := int64(-1)
			var got []int64
			err := l.ScanBatchesContext(ctx, tab, []int{0, 1}, conj, 0, 0, func(b *exec.Batch) error {
				mu.Lock()
				defer mu.Unlock()
				if atFirst < 0 {
					atFirst = c.Snapshot().RawBytesRead - before
				}
				got = append(got, b.Col(exec.ColKey{Tab: 0, Col: 0}).Ints[:b.N]...)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 || got[0] != want {
				t.Fatalf("emitted a1 values %v, want [%d]", got, want)
			}
			if total := c.Snapshot().RawBytesRead - before; total != size {
				t.Fatalf("the pass read %d of %d bytes, want all of them", total, size)
			}
			if atFirst >= size {
				t.Fatalf("first batch arrived after %d of %d bytes, want it before the pass ends", atFirst, size)
			}
			t.Logf("first batch after %d of %d bytes", atFirst, size)
		})
	}
}
