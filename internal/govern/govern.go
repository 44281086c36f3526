// Package govern implements the engine's memory governor: a global
// byte-accounting registry that every adaptive structure — fully loaded
// columns, retained partial-load (sparse) columns, positional maps,
// synopses, cached results — registers with, plus the eviction machinery that keeps their
// total footprint under a configurable budget.
//
// The paper (§5.1.3) frames adaptive in-situ querying as viable only with
// this kind of life-time management: cached state is "auxiliary data we
// are not afraid to lose", and "the only cost is that of having to reload
// this data part if it is needed again in the future". The governor makes
// that cost explicit. Each registered structure carries an estimated
// rebuild cost alongside its byte footprint, and the default cost-aware
// policy evicts the structures with the most bytes held per second of
// rebuild work — a cached column (cheap to re-load, especially through the
// positional map) goes before a positional map (which took many query
// passes to accumulate and would need full re-tokenization to recover).
//
// Ownership model: structures register a Handle and keep its byte count
// current; the governor never mutates owner state directly. Eviction calls
// the owner-supplied callback, which drops the structure under the owner's
// own locks and then either releases the handle (one-shot structures such
// as columns) or zeroes its bytes (persistent containers such as a
// positional map, which survives empty and keeps accumulating). Queries
// pin the handles they are about to read; a pinned handle is never chosen
// as a victim, so an in-use structure is rebuilt later rather than freed
// mid-scan.
package govern

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"nodb/internal/metrics"
)

// Kind classifies a registered adaptive structure.
type Kind int

// Structure kinds.
const (
	// KindColumn is a fully loaded dense column.
	KindColumn Kind = iota
	// KindSparse is a retained partial-load column: the sparse values plus
	// the covered-region bookkeeping that makes them reusable.
	KindSparse
	// KindPosMap is the positional map of one raw file.
	KindPosMap
	// KindSynopsis is the per-portion scan synopsis (zone maps) of one raw
	// file. It is rebuilt as a free byproduct of the next tokenizing pass,
	// so it is the cheapest structure to lose and an early eviction victim.
	KindSynopsis
	// KindResult is one cached query result. Results register with zero
	// rebuild cost — re-running the query over warm adaptive structures is
	// cheap by construction — so they are reclaimed before any structure
	// that took raw-file passes to learn.
	KindResult
)

func (k Kind) String() string {
	switch k {
	case KindColumn:
		return "column"
	case KindSparse:
		return "sparse"
	case KindPosMap:
		return "posmap"
	case KindSynopsis:
		return "synopsis"
	case KindResult:
		return "result"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Handle is one registered structure's accounting record. Touches and
// pins are lock-free; byte updates and Release serialize on a per-handle
// mutex so a late update racing a Release can never leave phantom bytes
// in the global account.
type Handle struct {
	g     *Governor
	id    uint64
	kind  Kind
	label string
	evict func() bool

	mu      sync.Mutex    // serializes byte updates against Release
	bytes   atomic.Int64  // atomic so readers (Enforce, Stats) skip mu
	cost    atomic.Uint64 // float64 bits: estimated rebuild seconds
	lastUse atomic.Int64  // governor clock tick
	pins    atomic.Int32
	dead    atomic.Bool
	owner   atomic.Pointer[string] // tenant that last used the structure
}

// Kind returns the structure's kind.
func (h *Handle) Kind() Kind { return h.kind }

// Label returns the human-readable name ("table.col3", "table.posmap").
func (h *Handle) Label() string { return h.label }

// Bytes returns the currently accounted byte footprint.
func (h *Handle) Bytes() int64 { return h.bytes.Load() }

// SetBytes replaces the accounted footprint. No-op after Release.
func (h *Handle) SetBytes(n int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if !h.dead.Load() {
		old := h.bytes.Swap(n)
		h.g.used.Add(n - old)
	}
	h.mu.Unlock()
}

// AddBytes adjusts the accounted footprint by delta. No-op after Release.
func (h *Handle) AddBytes(delta int64) {
	if h == nil || delta == 0 {
		return
	}
	h.mu.Lock()
	if !h.dead.Load() {
		h.bytes.Add(delta)
		h.g.used.Add(delta)
	}
	h.mu.Unlock()
}

// SetCost records the estimated cost in seconds of rebuilding the
// structure if it were evicted, as the catalog estimates it from the
// table's size and shape.
func (h *Handle) SetCost(sec float64) {
	if h == nil {
		return
	}
	h.cost.Store(math.Float64bits(sec))
}

// Cost returns the catalog's estimated rebuild cost in seconds.
func (h *Handle) Cost() float64 { return math.Float64frombits(h.cost.Load()) }

// SetOwner attributes the structure to a tenant. Shared structures follow
// a last-user-wins rule: whichever tenant's query most recently touched
// the structure pays for it, matching how the LRU clock attributes
// recency. An empty name clears the attribution.
func (h *Handle) SetOwner(tenant string) {
	if h == nil {
		return
	}
	if tenant == "" {
		h.owner.Store(nil)
		return
	}
	h.owner.Store(&tenant)
}

// Owner returns the owning tenant ("" when unattributed).
func (h *Handle) Owner() string {
	if h == nil {
		return ""
	}
	if p := h.owner.Load(); p != nil {
		return *p
	}
	return ""
}

// Touch marks the structure recently used (LRU bookkeeping).
func (h *Handle) Touch() {
	if h == nil {
		return
	}
	h.lastUse.Store(h.g.clock.Add(1))
}

// Pin marks the structure in-use: a pinned handle is never selected for
// eviction. Pins nest; pair every Pin with an Unpin.
func (h *Handle) Pin() {
	if h == nil {
		return
	}
	h.pins.Add(1)
	h.Touch()
}

// Unpin releases one Pin.
func (h *Handle) Unpin() {
	if h == nil {
		return
	}
	h.pins.Add(-1)
}

// Pinned reports whether the structure is currently pinned by a query.
// Eviction callbacks re-check it under the owner's lock (which excludes
// the owner's Pin path) before dropping anything.
func (h *Handle) Pinned() bool { return h != nil && h.pins.Load() > 0 }

// Release unregisters the handle and removes its bytes from the global
// account. Owners call it when the structure is dropped outside eviction
// (file invalidation, unlink, supersession). Idempotent.
func (h *Handle) Release() {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.dead.Swap(true) {
		h.mu.Unlock()
		return
	}
	h.g.used.Add(-h.bytes.Swap(0))
	h.mu.Unlock()
	h.g.mu.Lock()
	delete(h.g.entries, h.id)
	h.g.mu.Unlock()
}

// Candidate is the read-only view of an evictable entry that policies rank.
type Candidate struct {
	Kind    Kind
	Label   string
	Bytes   int64
	CostSec float64 // the catalog's estimated rebuild cost, seconds
	LastUse int64   // governor clock tick of last touch
}

// EvictionPolicy orders eviction candidates. Implementations must be
// stateless (the governor calls Less from multiple goroutines).
type EvictionPolicy interface {
	// Name identifies the policy ("lru", "cost").
	Name() string
	// Less reports whether a should be evicted before b.
	Less(a, b Candidate) bool
}

// Eviction describes one evicted structure.
type Eviction struct {
	Kind  Kind
	Label string
	Bytes int64
}

// Stats is a point-in-time snapshot of the governor's accounting.
type Stats struct {
	// Budget is the configured byte budget (0 = unlimited).
	Budget int64 `json:"budget"`
	// Used is the total bytes of registered adaptive state.
	Used int64 `json:"used"`
	// Pinned is the bytes currently pinned by in-flight queries.
	Pinned int64 `json:"pinned"`
	// Entries is the number of registered structures.
	Entries int `json:"entries"`
	// Evictions counts structures evicted since startup.
	Evictions int64 `json:"evictions"`
	// EvictedBytes totals the bytes reclaimed by eviction since startup.
	EvictedBytes int64 `json:"evicted_bytes"`
	// Policy is the active eviction policy name.
	Policy string `json:"policy"`
	// Tenants is the per-tenant accounting, present only when tenant
	// weights are configured via SetTenants.
	Tenants map[string]TenantStats `json:"tenants,omitempty"`
}

// TenantStats is one tenant's slice of the governor's accounting.
type TenantStats struct {
	// Weight is the tenant's configured share weight.
	Weight float64 `json:"weight"`
	// ShareBytes is the tenant's slice of the budget (budget × weight ÷
	// total weight; 0 when the budget is unlimited).
	ShareBytes int64 `json:"share_bytes"`
	// Used is the bytes of structures currently attributed to the tenant.
	Used int64 `json:"used"`
	// Evictions and EvictedBytes count eviction pressure scoped to the
	// tenant (victims chosen because the tenant exceeded its share).
	Evictions    int64 `json:"evictions"`
	EvictedBytes int64 `json:"evicted_bytes"`
}

// Governor is the global registry. Safe for concurrent use.
type Governor struct {
	budget   atomic.Int64
	policy   EvictionPolicy
	counters *metrics.Counters

	used  atomic.Int64
	clock atomic.Int64

	evictions    atomic.Int64
	evictedBytes atomic.Int64

	mu      sync.Mutex // guards entries
	entries map[uint64]*Handle
	nextID  uint64

	enforceMu sync.Mutex // serializes Enforce passes

	tenantMu        sync.Mutex // guards the tenant maps
	tenantWeights   map[string]float64
	tenantWeightSum float64
	tenantEvicts    map[string]int64
	tenantEvictedB  map[string]int64
}

// New creates a governor. budget is the global byte budget (0 or negative
// = unlimited: accounting still runs, eviction never does). policy nil
// means the default cost-aware policy. counters may be nil.
func New(budget int64, policy EvictionPolicy, counters *metrics.Counters) *Governor {
	if policy == nil {
		policy = CostAware{}
	}
	g := &Governor{policy: policy, counters: counters, entries: make(map[uint64]*Handle)}
	g.budget.Store(budget)
	return g
}

// Register adds a structure to the registry. evict is the owner callback
// that drops the structure when it is chosen as a victim; it runs without
// any governor lock held, must re-check the handle's pin state under the
// owner's own lock (returning false to veto the eviction), and on success
// must leave the handle released or at zero bytes. A nil evict registers
// an accounting-only entry that is never selected for eviction.
func (g *Governor) Register(kind Kind, label string, evict func() bool) *Handle {
	h := &Handle{g: g, kind: kind, label: label, evict: evict}
	h.Touch()
	g.mu.Lock()
	g.nextID++
	h.id = g.nextID
	g.entries[h.id] = h
	g.mu.Unlock()
	return h
}

// Budget returns the configured byte budget (0 = unlimited).
func (g *Governor) Budget() int64 { return g.budget.Load() }

// SetTenants configures per-tenant budget partitioning: each tenant's
// slice of the budget is budget × weight ÷ Σweights, and Enforce evicts a
// tenant's own structures first when the tenant exceeds its slice — one
// heavy tenant can no longer push another tenant's positional maps out.
// A nil or empty map turns tenant partitioning off.
func (g *Governor) SetTenants(weights map[string]float64) {
	g.tenantMu.Lock()
	defer g.tenantMu.Unlock()
	if len(weights) == 0 {
		g.tenantWeights, g.tenantWeightSum = nil, 0
		return
	}
	g.tenantWeights = make(map[string]float64, len(weights))
	g.tenantWeightSum = 0
	for name, w := range weights {
		if w <= 0 {
			w = 1
		}
		g.tenantWeights[name] = w
		g.tenantWeightSum += w
	}
	if g.tenantEvicts == nil {
		g.tenantEvicts = make(map[string]int64)
		g.tenantEvictedB = make(map[string]int64)
	}
}

// tenantShare returns the tenant's byte slice of the current budget, or
// (0, false) when the tenant is unknown or partitioning is off.
func (g *Governor) tenantShare(name string) (int64, bool) {
	g.tenantMu.Lock()
	defer g.tenantMu.Unlock()
	w, ok := g.tenantWeights[name]
	if !ok || g.tenantWeightSum <= 0 {
		return 0, false
	}
	budget := g.Budget()
	if budget <= 0 {
		return 0, false
	}
	return int64(float64(budget) * w / g.tenantWeightSum), true
}

func (g *Governor) recordTenantEviction(name string, bytes int64) {
	if name == "" {
		return
	}
	g.tenantMu.Lock()
	if g.tenantEvicts != nil {
		g.tenantEvicts[name]++
		g.tenantEvictedB[name] += bytes
	}
	g.tenantMu.Unlock()
}

// SetBudget changes the budget; the next Enforce applies it.
func (g *Governor) SetBudget(n int64) { g.budget.Store(n) }

// Used returns the total accounted bytes.
func (g *Governor) Used() int64 { return g.used.Load() }

// Policy returns the active eviction policy.
func (g *Governor) Policy() EvictionPolicy { return g.policy }

// Stats returns a snapshot of the governor's accounting.
func (g *Governor) Stats() Stats {
	var pinned int64
	entries := 0
	usedBy := map[string]int64{}
	g.mu.Lock()
	for _, h := range g.entries {
		entries++
		if h.pins.Load() > 0 {
			pinned += h.bytes.Load()
		}
		if owner := h.Owner(); owner != "" {
			usedBy[owner] += h.bytes.Load()
		}
	}
	g.mu.Unlock()
	st := Stats{
		Budget:       g.Budget(),
		Used:         g.Used(),
		Pinned:       pinned,
		Entries:      entries,
		Evictions:    g.evictions.Load(),
		EvictedBytes: g.evictedBytes.Load(),
		Policy:       g.policy.Name(),
	}
	g.tenantMu.Lock()
	if len(g.tenantWeights) > 0 {
		st.Tenants = make(map[string]TenantStats, len(g.tenantWeights))
		for name, w := range g.tenantWeights {
			var share int64
			if b := st.Budget; b > 0 && g.tenantWeightSum > 0 {
				share = int64(float64(b) * w / g.tenantWeightSum)
			}
			st.Tenants[name] = TenantStats{
				Weight:       w,
				ShareBytes:   share,
				Used:         usedBy[name],
				Evictions:    g.tenantEvicts[name],
				EvictedBytes: g.tenantEvictedB[name],
			}
		}
	}
	g.tenantMu.Unlock()
	return st
}

// Enforce evicts unpinned structures, worst-first per the policy, until
// the accounted bytes fit the budget (or no evictable candidates remain —
// pinned bytes can exceed the budget transiently; the next Enforce after
// the pins drop reclaims them). With tenant weights configured, a
// per-tenant pass runs first: any tenant over its share of the budget
// loses its *own* structures down to the share, so the global pass — when
// it still has to run — starts from a state where pressure was charged to
// whoever caused it. It returns what was evicted.
func (g *Governor) Enforce() []Eviction {
	budget := g.Budget()
	if budget <= 0 {
		return nil
	}
	g.enforceMu.Lock()
	defer g.enforceMu.Unlock()

	out := g.enforceTenants()

	// Victim selection is re-snapshotted after each round of callbacks:
	// callbacks change the candidate set (a dense-column eviction releases
	// its handle), and concurrent queries may have pinned or grown entries
	// in the meantime.
	for round := 0; round < 8; round++ {
		over := g.Used() - g.Budget()
		if over <= 0 {
			return out
		}
		victims := g.pickVictims(over, "")
		if len(victims) == 0 {
			return out
		}
		evicted := g.evictHandles(victims, "")
		out = append(out, evicted...)
	}
	return out
}

// enforceTenants runs the per-tenant pass: each tenant whose attributed
// bytes exceed its budget share loses its own structures first.
func (g *Governor) enforceTenants() []Eviction {
	g.tenantMu.Lock()
	names := make([]string, 0, len(g.tenantWeights))
	for name := range g.tenantWeights {
		names = append(names, name)
	}
	g.tenantMu.Unlock()
	if len(names) == 0 {
		return nil
	}
	sort.Strings(names) // deterministic order across passes
	var out []Eviction
	for _, name := range names {
		share, ok := g.tenantShare(name)
		if !ok {
			continue
		}
		for round := 0; round < 8; round++ {
			over := g.tenantUsed(name) - share
			if over <= 0 {
				break
			}
			victims := g.pickVictims(over, name)
			if len(victims) == 0 {
				break
			}
			evicted := g.evictHandles(victims, name)
			out = append(out, evicted...)
			if len(evicted) == 0 {
				break
			}
		}
	}
	return out
}

// tenantUsed sums the bytes of live entries attributed to the tenant.
func (g *Governor) tenantUsed(name string) int64 {
	var used int64
	g.mu.Lock()
	for _, h := range g.entries {
		if h.Owner() == name {
			used += h.bytes.Load()
		}
	}
	g.mu.Unlock()
	return used
}

// evictHandles runs the owner callbacks with accounting. tenant is the
// tenant whose share overflow selected the victims ("" for the global
// pass).
func (g *Governor) evictHandles(victims []*Handle, tenant string) []Eviction {
	var out []Eviction
	for _, h := range victims {
		if h.Pinned() || h.dead.Load() {
			continue // pinned (or gone) since selection: skip, re-check next round
		}
		b := h.bytes.Load()
		if !h.evict() {
			continue // owner vetoed (pinned or already gone under its lock)
		}
		g.evictions.Add(1)
		g.evictedBytes.Add(b)
		g.recordTenantEviction(tenant, b)
		if g.counters != nil {
			g.counters.AddEviction(1)
			g.counters.AddEvictedBytes(b)
		}
		out = append(out, Eviction{Kind: h.kind, Label: h.label, Bytes: b})
	}
	return out
}

// pickVictims returns unpinned candidates, ordered worst-first by the
// policy, whose cumulative bytes cover the overshoot. A non-empty owner
// restricts candidates to that tenant's structures.
func (g *Governor) pickVictims(over int64, owner string) []*Handle {
	g.mu.Lock()
	cands := make([]*Handle, 0, len(g.entries))
	for _, h := range g.entries {
		if h.evict == nil || h.Pinned() || h.bytes.Load() <= 0 {
			continue
		}
		if owner != "" && h.Owner() != owner {
			continue
		}
		cands = append(cands, h)
	}
	g.mu.Unlock()

	sort.Slice(cands, func(i, j int) bool {
		return g.policy.Less(candidate(cands[i]), candidate(cands[j]))
	})
	var victims []*Handle
	var freed int64
	for _, h := range cands {
		if freed >= over {
			break
		}
		victims = append(victims, h)
		freed += h.bytes.Load()
	}
	return victims
}

func candidate(h *Handle) Candidate {
	return Candidate{
		Kind:    h.kind,
		Label:   h.label,
		Bytes:   h.bytes.Load(),
		CostSec: h.Cost(),
		LastUse: h.lastUse.Load(),
	}
}
