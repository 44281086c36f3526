package nodb

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func linkFile(t *testing.T, db *DB, name, content string) {
	t.Helper()
	p := filepath.Join(t.TempDir(), name+".csv")
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := db.Attach(name, TableSpec{Path: p}); err != nil {
		t.Fatal(err)
	}
}

func TestOpenLinkQuery(t *testing.T) {
	db := Open(Options{})
	defer db.Close()
	linkFile(t, db, "r", "1,10\n2,20\n3,30\n")
	res, err := db.Query("select sum(a1), sum(a2) from r where a1 >= 2")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 5 || res.Rows[0][1].I != 50 {
		t.Errorf("result = %v", res.Rows[0])
	}
}

func TestAllPublicPolicies(t *testing.T) {
	for _, pol := range []Policy{ColumnLoads, FullLoad, PartialLoadsV1, PartialLoadsV2, External, Auto} {
		t.Run(pol.String(), func(t *testing.T) {
			db := Open(Options{Policy: pol})
			defer db.Close()
			linkFile(t, db, "t", "5\n6\n7\n")
			res, err := db.Query("select sum(a1) from t")
			if err != nil {
				t.Fatal(err)
			}
			if res.Rows[0][0].I != 18 {
				t.Errorf("sum = %v", res.Rows[0][0])
			}
		})
	}
}

func TestPolicyParseRoundTrip(t *testing.T) {
	for _, pol := range []Policy{ColumnLoads, FullLoad, PartialLoadsV1, PartialLoadsV2, External, Auto} {
		got, err := ParsePolicy(pol.String())
		if err != nil || got != pol {
			t.Errorf("round trip %v: got %v, %v", pol, got, err)
		}
	}
	for _, name := range []string{"nope", "splitfiles"} {
		if _, err := ParsePolicy(name); err == nil {
			t.Errorf("policy %q should fail", name)
		}
	}
}

func TestSchemaAndTables(t *testing.T) {
	db := Open(Options{})
	defer db.Close()
	linkFile(t, db, "t", "id,price\n1,2.5\n")
	sch, err := db.Schema("t")
	if err != nil {
		t.Fatal(err)
	}
	if sch.Columns[0].Name != "id" || sch.Columns[1].Type != Float64 {
		t.Errorf("schema = %v", sch)
	}
	if tabs := db.Tables(); len(tabs) != 1 || tabs[0] != "t" {
		t.Errorf("tables = %v", tabs)
	}
	if err := db.Detach("t"); err != nil {
		t.Fatal(err)
	}
	if len(db.Tables()) != 0 {
		t.Error("unlink failed")
	}
}

func TestWorkAndMemSize(t *testing.T) {
	db := Open(Options{})
	defer db.Close()
	linkFile(t, db, "t", "1\n2\n")
	if _, err := db.Query("select sum(a1) from t"); err != nil {
		t.Fatal(err)
	}
	if db.Work().RawBytesRead == 0 {
		t.Error("work counters should accumulate")
	}
	if db.MemSize() == 0 {
		t.Error("loaded state should have a size")
	}
}

func TestExplainAndSetPolicy(t *testing.T) {
	db := Open(Options{Policy: PartialLoadsV2})
	defer db.Close()
	linkFile(t, db, "t", "1\n")
	s, err := db.Explain("select sum(a1) from t where a1 > 0")
	if err != nil || !strings.Contains(s, "partial-load-v2") {
		t.Errorf("explain = %q, %v", s, err)
	}
	db.SetPolicy(ColumnLoads)
	if db.Policy() != ColumnLoads {
		t.Error("SetPolicy")
	}
}

func TestJoinViaPublicAPI(t *testing.T) {
	db := Open(Options{})
	defer db.Close()
	var a, b strings.Builder
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&a, "%d,%d\n", i, i)
		fmt.Fprintf(&b, "%d,%d\n", i, i*i)
	}
	linkFile(t, db, "l", a.String())
	linkFile(t, db, "r", b.String())
	res, err := db.Query("select count(*) from l join r on l.a1 = r.a1 where l.a2 < 10")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 10 {
		t.Errorf("join count = %v", res.Rows[0][0])
	}
}
