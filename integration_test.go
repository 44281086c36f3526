package nodb

// End-to-end integration scenarios over the public API: multi-table join
// chains, ORDER BY/LIMIT on projections, table stats, and a long
// exploration trace mimicking the paper's motivating workload.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestThreeWayJoin(t *testing.T) {
	dir := t.TempDir()
	// orders(order_id, cust_id, item_id), customers(id, region),
	// items(id, price).
	var orders, custs, items strings.Builder
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&orders, "%d,%d,%d\n", i, rng.Intn(50), rng.Intn(100))
	}
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&custs, "%d,%d\n", i, i%5)
	}
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&items, "%d,%d\n", i, 10+i)
	}
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	db := Open(Options{})
	defer db.Close()
	db.Attach("orders", TableSpec{Path: write("o.csv", orders.String())})
	db.Attach("customers", TableSpec{Path: write("c.csv", custs.String())})
	db.Attach("items", TableSpec{Path: write("i.csv", items.String())})

	res, err := db.Query(`
		select count(*), sum(i.a2)
		from orders o
		join customers c on o.a2 = c.a1
		join items i on o.a3 = i.a1
		where c.a2 = 3`)
	if err != nil {
		t.Fatal(err)
	}
	// Verify against a manual computation.
	var wantCount, wantSum int64
	ordersLines := strings.Split(strings.TrimSpace(orders.String()), "\n")
	for _, l := range ordersLines {
		var oid, cid, iid int64
		fmt.Sscanf(l, "%d,%d,%d", &oid, &cid, &iid)
		if cid%5 == 3 {
			wantCount++
			wantSum += 10 + iid
		}
	}
	if res.Rows[0][0].I != wantCount || res.Rows[0][1].I != wantSum {
		t.Errorf("3-way join = %v, want count=%d sum=%d", res.Rows[0], wantCount, wantSum)
	}
}

func TestOrderByLimitProjection(t *testing.T) {
	db := Open(Options{})
	defer db.Close()
	linkFile(t, db, "t", "3,c\n1,a\n2,b\n5,e\n4,d\n")
	res, err := db.Query("select a1, a2 from t where a1 > 1 order by a1 desc limit 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].I != 5 || res.Rows[1][0].I != 4 {
		t.Errorf("order/limit = %v", res.Rows)
	}
	if res.Rows[0][1].S != "e" {
		t.Errorf("projection alignment: %v", res.Rows[0])
	}
}

func TestTableStatsLifecycle(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	var sb strings.Builder
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&sb, "%d,%d,%d\n", i, i*2, i*3)
	}
	os.WriteFile(path, []byte(sb.String()), 0o644)

	db := Open(Options{Policy: PartialLoadsV2})
	defer db.Close()
	if err := db.Attach("t", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}

	st, err := db.TableStats("t")
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != -1 || len(st.DenseCols) != 0 || st.Regions != 0 {
		t.Errorf("fresh stats = %+v", st)
	}

	if _, err := db.Query("select sum(a1) from t where a1 < 100"); err != nil {
		t.Fatal(err)
	}
	st, _ = db.TableStats("t")
	if st.Rows != 1000 {
		t.Errorf("rows = %d", st.Rows)
	}
	if st.SparseCols[0] != 100 {
		t.Errorf("sparse col 0 = %d entries, want 100", st.SparseCols[0])
	}
	if st.Regions != 1 {
		t.Errorf("regions = %d", st.Regions)
	}
	if st.MemBytes == 0 || st.PosMapEntries == 0 {
		t.Errorf("mem/posmap empty: %+v", st)
	}

	// Column loads produce dense state.
	db.SetPolicy(ColumnLoads)
	if _, err := db.Query("select sum(a2) from t"); err != nil {
		t.Fatal(err)
	}
	st, _ = db.TableStats("t")
	if len(st.DenseCols) != 1 || st.DenseCols[0] != 1 {
		t.Errorf("dense cols = %v", st.DenseCols)
	}
}

// TestExplorationTrace replays a long zoom-in/zoom-out session and checks
// the adaptive store amortizes work: total raw bytes read must stay well
// below re-reading the file per query.
func TestExplorationTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	const rows = 5000
	var sb strings.Builder
	rng := rand.New(rand.NewSource(77))
	perm := rng.Perm(rows)
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "%d,%d,%d,%d\n", perm[i], (perm[i]*7)%rows, (perm[i]*13)%rows, (perm[i]*29)%rows)
	}
	os.WriteFile(path, []byte(sb.String()), 0o644)
	fileSize := int64(len(sb.String()))

	db := Open(Options{Policy: PartialLoadsV2})
	defer db.Close()
	if err := db.Attach("t", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}

	// 30 queries: one broad cut, then narrowing zooms inside it.
	lo, hi := 0, rows
	queries := 0
	for round := 0; round < 6; round++ {
		width := (hi - lo) / 2
		lo = lo + (hi-lo)/4
		hi = lo + width
		if width < 10 {
			break
		}
		for rep := 0; rep < 5; rep++ {
			q := fmt.Sprintf("select count(*), sum(a2) from t where a1 >= %d and a1 < %d", lo, hi)
			res, err := db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if res.Rows[0][0].I != int64(width) {
				t.Fatalf("round %d: count = %v, want %d", round, res.Rows[0][0], width)
			}
			queries++
		}
	}
	total := db.Work().RawBytesRead
	// Only the first (broadest) query should hit the file; everything
	// narrower is covered. Allow 2 file reads of slack.
	if total > 2*fileSize {
		t.Errorf("trace read %d raw bytes over %d queries (file is %d) — adaptive store not amortizing",
			total, queries, fileSize)
	}
}

func TestRelinkDifferentFile(t *testing.T) {
	db := Open(Options{})
	defer db.Close()
	dir := t.TempDir()
	p1 := filepath.Join(dir, "a.csv")
	p2 := filepath.Join(dir, "b.csv")
	os.WriteFile(p1, []byte("1\n2\n"), 0o644)
	os.WriteFile(p2, []byte("10\n20\n30\n"), 0o644)

	db.Attach("t", TableSpec{Path: p1})
	r1, _ := db.Query("select count(*) from t")
	if r1.Rows[0][0].I != 2 {
		t.Fatal("first file")
	}
	db.Attach("t", TableSpec{Path: p2}) // relink same name
	r2, err := db.Query("select count(*) from t")
	if err != nil || r2.Rows[0][0].I != 3 {
		t.Errorf("relink: %v, %v", r2, err)
	}
}

func TestAppendOnlyFileGrowth(t *testing.T) {
	// A growing log file: appends change the signature, so derived state
	// is dropped and counts stay correct.
	dir := t.TempDir()
	path := filepath.Join(dir, "log.csv")
	os.WriteFile(path, []byte("1\n2\n3\n"), 0o644)
	db := Open(Options{Policy: ColumnLoads})
	defer db.Close()
	db.Attach("log", TableSpec{Path: path})
	r, _ := db.Query("select count(*) from log")
	if r.Rows[0][0].I != 3 {
		t.Fatal("initial count")
	}
	time.Sleep(10 * time.Millisecond)
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	f.WriteString("4\n5\n")
	f.Close()
	r2, err := db.Query("select count(*) from log")
	if err != nil || r2.Rows[0][0].I != 5 {
		t.Errorf("after append: %v, %v", r2, err)
	}
}

func TestManyColumnsWideTable(t *testing.T) {
	// 64-attribute rows (the paper's "hundreds or even thousands of
	// columns" scenario, scaled): touch only two late columns.
	dir := t.TempDir()
	path := filepath.Join(dir, "wide.csv")
	var sb strings.Builder
	const rows, cols = 500, 64
	for i := 0; i < rows; i++ {
		for c := 0; c < cols; c++ {
			if c > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", i+c)
		}
		sb.WriteByte('\n')
	}
	os.WriteFile(path, []byte(sb.String()), 0o644)

	db := Open(Options{Policy: ColumnLoads})
	defer db.Close()
	db.Attach("w", TableSpec{Path: path})
	res, err := db.Query("select sum(a60), max(a64) from w where a60 < 300")
	if err != nil {
		t.Fatal(err)
	}
	// a60 of row i = i+59; a60 < 300 → i < 241 → sum_{i=0..240}(i+59).
	var want int64
	for i := 0; i < 241; i++ {
		want += int64(i + 59)
	}
	if res.Rows[0][0].I != want {
		t.Errorf("sum(a60) = %v, want %d", res.Rows[0][0], want)
	}
	st, _ := db.TableStats("w")
	if len(st.DenseCols) != 2 {
		t.Errorf("only touched columns should be loaded: %v", st.DenseCols)
	}
}
