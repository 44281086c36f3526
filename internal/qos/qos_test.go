package qos

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"nodb/internal/govern"
	"nodb/internal/schema"
	"nodb/internal/storage"
)

func intResult(key string, cells int) *CachedResult {
	c := storage.NewDense(schema.Int64, cells)
	for i := 0; i < cells; i++ {
		c.Ints = append(c.Ints, int64(i))
	}
	return &CachedResult{Columns: []string{"c"}, Cols: []*storage.DenseColumn{c}, Plan: "plan " + key}
}

func TestCacheLRUEviction(t *testing.T) {
	small := intResult("x", 4)
	per := small.SizeBytes()
	// Room for exactly three entries; maxEntry = max/4 must still admit one.
	c := NewCache(per*4, nil)
	if c.MaxEntryBytes() < per {
		t.Fatalf("maxEntry %d cannot admit a %d-byte result", c.MaxEntryBytes(), per)
	}

	for i := 0; i < 3; i++ {
		if !c.Put(fmt.Sprintf("k%d", i), intResult("x", 4)) {
			t.Fatalf("Put k%d refused", i)
		}
	}
	// Touch k0 so k1 is the LRU victim.
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("k0 missing before eviction")
	}
	for i := 3; c.Stats().Bytes+per <= c.Stats().MaxBytes; i++ {
		c.Put(fmt.Sprintf("fill%d", i), intResult("x", 4))
	}
	c.Put("spill", intResult("x", 4))

	if _, ok := c.Get("k1"); ok {
		t.Fatal("k1 survived; LRU should have evicted it first")
	}
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("recently used k0 was evicted before the LRU entry")
	}
	st := c.Stats()
	if st.Evicted == 0 {
		t.Fatalf("stats report no evictions: %+v", st)
	}
	if st.Bytes > st.MaxBytes {
		t.Fatalf("cache over budget: %d > %d", st.Bytes, st.MaxBytes)
	}
}

func TestCacheRejectsOversizedAndDuplicate(t *testing.T) {
	c := NewCache(1024, nil)
	big := intResult("big", 1000)
	if big.SizeBytes() <= c.MaxEntryBytes() {
		t.Fatalf("test setup: result %d bytes not oversized for maxEntry %d",
			big.SizeBytes(), c.MaxEntryBytes())
	}
	if c.Put("big", big) {
		t.Fatal("oversized result admitted")
	}
	if !c.Put("dup", intResult("a", 2)) {
		t.Fatal("first insert refused")
	}
	if c.Put("dup", intResult("b", 2)) {
		t.Fatal("duplicate key admitted twice")
	}
	if st := c.Stats(); st.Entries != 1 || st.Inserts != 1 {
		t.Fatalf("stats after dup insert: %+v", st)
	}
}

// TestCacheGovernorEviction drives the memory governor over budget and
// checks it reclaims cached results through their handles.
func TestCacheGovernorEviction(t *testing.T) {
	res := intResult("x", 8)
	per := res.SizeBytes()
	gov := govern.New(per*2, nil, nil)
	c := NewCache(per*100, gov) // cache bound is not the constraint here

	for i := 0; i < 4; i++ {
		if !c.Put(fmt.Sprintf("k%d", i), intResult("x", 8)) {
			t.Fatalf("Put k%d refused", i)
		}
	}
	evictions := gov.Enforce()
	if len(evictions) == 0 {
		t.Fatal("governor over budget evicted nothing")
	}
	st := c.Stats()
	if st.Entries >= 4 {
		t.Fatalf("governor eviction left all %d entries resident", st.Entries)
	}
	if st.Bytes != int64(st.Entries)*per {
		t.Fatalf("byte accounting drifted: %d bytes for %d entries of %d", st.Bytes, st.Entries, per)
	}
}

func TestCacheConcurrentPutGet(t *testing.T) {
	c := NewCache(1<<20, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k%d", i%10)
				if res, ok := c.Get(key); ok && res.Cols[0].Len() != 4 {
					t.Errorf("corrupt cached result for %s", key)
				}
				c.Put(key, intResult("x", 4))
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Entries != 10 {
		t.Fatalf("entries = %d, want 10", st.Entries)
	}
}

func TestGroupCollapse(t *testing.T) {
	var g Group
	lead, isLeader := g.Join("q")
	if !isLeader {
		t.Fatal("first joiner is not leader")
	}
	follow, isLeader2 := g.Join("q")
	if isLeader2 {
		t.Fatal("second joiner became leader")
	}
	if follow != lead {
		t.Fatal("follower got a different call")
	}
	want := intResult("q", 2)
	g.Finish("q", want, nil)
	res, err := follow.Result()
	if err != nil || res != want {
		t.Fatalf("follower got (%v, %v), want leader's result", res, err)
	}
	// After Finish the key is free again: a late joiner leads a new call.
	_, again := g.Join("q")
	if !again {
		t.Fatal("post-finish joiner should lead a fresh call")
	}
	g.Finish("q", nil, nil)
	// Finishing an unknown key is a no-op, not a panic.
	g.Finish("never-joined", nil, nil)
}

func TestTenantResolvePolicies(t *testing.T) {
	tenants := []Tenant{{Name: "a", Key: "ka", Weight: 2}, {Name: "b", Key: "kb"}}

	reject, err := NewRegistry(tenants, true)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := reject.Resolve("ka"); err != nil || got.Name != "a" || got.Weight != 2 {
		t.Fatalf("Resolve(ka) = (%+v, %v)", got, err)
	}
	if _, err := reject.Resolve("unknown"); err != ErrUnknownKey {
		t.Fatalf("reject policy returned %v, want ErrUnknownKey", err)
	}
	if len(reject.Tenants()) != 2 {
		t.Fatalf("reject registry grew an implicit default: %+v", reject.Tenants())
	}

	allow, err := NewRegistry(tenants, false)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := allow.Resolve("unknown"); err != nil || got.Name != DefaultTenant {
		t.Fatalf("allow policy Resolve(unknown) = (%+v, %v)", got, err)
	}
	w := allow.Weights()
	if w["a"] != 2 || w["b"] != 1 || w[DefaultTenant] != 1 {
		t.Fatalf("weights = %v", w)
	}
}

func TestNewRegistryValidation(t *testing.T) {
	cases := [][]Tenant{
		{{Name: "", Key: "k"}},
		{{Name: "a", Key: ""}},
		{{Name: "a", Key: "k1"}, {Name: "a", Key: "k2"}},
		{{Name: "a", Key: "k"}, {Name: "b", Key: "k"}},
	}
	for i, ts := range cases {
		if _, err := NewRegistry(ts, false); err == nil {
			t.Errorf("case %d: invalid tenants %+v accepted", i, ts)
		}
	}
}

func TestParseTenantSpec(t *testing.T) {
	got, err := ParseTenantSpec("alpha:ka:3, beta:kb")
	if err != nil {
		t.Fatal(err)
	}
	want := []Tenant{{Name: "alpha", Key: "ka", Weight: 3}, {Name: "beta", Key: "kb", Weight: 1}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("ParseTenantSpec = %+v, want %+v", got, want)
	}

	path := filepath.Join(t.TempDir(), "tenants.txt")
	if err := os.WriteFile(path, []byte("# fleet\nalpha:ka:3\n\nbeta:kb\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile, err := ParseTenantSpec("@" + path)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromFile) != 2 || fromFile[0] != want[0] || fromFile[1] != want[1] {
		t.Fatalf("ParseTenantSpec(@file) = %+v, want %+v", fromFile, want)
	}

	for _, bad := range []string{"noseparator", "a:b:c:d", "a:k:-1", "a:k:zero", ":k", "a:", "@" + path + ".missing"} {
		if _, err := ParseTenantSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestContextPlumbing(t *testing.T) {
	ctx := WithAPIKey(WithTenant(t.Context(), "acme"), "secret")
	if got := TenantFrom(ctx); got != "acme" {
		t.Fatalf("TenantFrom = %q", got)
	}
	if got := APIKeyFrom(ctx); got != "secret" {
		t.Fatalf("APIKeyFrom = %q", got)
	}
	if TenantFrom(t.Context()) != "" || APIKeyFrom(t.Context()) != "" {
		t.Fatal("bare context leaked an identity")
	}
	if WithTenant(t.Context(), "") != t.Context() {
		t.Fatal("empty tenant should not wrap the context")
	}
}

func TestShortKey(t *testing.T) {
	if got := shortKey("select 1\x00sig"); got != "select 1" {
		t.Fatalf("shortKey stops at NUL: %q", got)
	}
	long := strings.Repeat("x", 100)
	if got := shortKey(long); len(got) <= 48 && !strings.HasSuffix(got, "…") {
		t.Fatalf("long key not truncated: %q", got)
	}
}
