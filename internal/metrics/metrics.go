// Package metrics provides the work counters the NoDB engine and the
// experiments report.
//
// Alongside wall-clock time every component reports *what it did*: raw-file
// bytes read, internal (binary) bytes read and written, tuples tokenized and
// parsed, structures evicted or restored. The counters are deterministic
// for a given input and configuration, so tests assert on them where a
// wall-clock figure would be noise.
package metrics

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Counters accumulates work done by scans, loads and operators. All methods
// are safe for concurrent use; the tokenizer runs multiple workers.
type Counters struct {
	rawBytesRead       atomic.Int64 // bytes read from raw flat files
	internalBytesRead  atomic.Int64 // bytes read from binary/internal storage
	internalBytesWrite atomic.Int64 // bytes written to binary/internal storage
	splitBytesRead     atomic.Int64 // bytes read from split (cracked) files
	splitBytesWrite    atomic.Int64 // bytes written to split (cracked) files
	rowsTokenized      atomic.Int64 // rows whose boundaries were identified
	attrsTokenized     atomic.Int64 // attribute fields located within rows
	valuesParsed       atomic.Int64 // attribute fields converted to typed values
	rowsAbandoned      atomic.Int64 // rows abandoned early by a failed predicate
	posMapHits         atomic.Int64 // attribute locations served by the positional map
	posMapMisses       atomic.Int64
	cacheHits          atomic.Int64 // queries (or column requests) fully served from the adaptive store
	cacheMisses        atomic.Int64
	evictions          atomic.Int64 // adaptive structures evicted by the memory governor
	evictedBytes       atomic.Int64 // bytes reclaimed by those evictions
	snapBytesRead      atomic.Int64 // bytes read from snapshot/spill files (disk cache tier)
	snapBytesWrite     atomic.Int64 // bytes written to snapshot/spill files
	snapHits           atomic.Int64 // structures restored from the snapshot cache
	snapMisses         atomic.Int64 // restore attempts that found no usable snapshot
	snapSaves          atomic.Int64 // full snapshots written (close / periodic flush)
	snapSpills         atomic.Int64 // structures spilled to disk by eviction instead of discarded
	snapInvalidations  atomic.Int64 // stale or corrupt snapshot files/sections discarded
	portionsSkipped    atomic.Int64 // file portions pruned by a scan synopsis (zero bytes read)
	synopsisHits       atomic.Int64 // scans in which the synopsis pruned at least one portion
	resultCacheHits    atomic.Int64 // queries answered entirely from the result cache
	resultCacheMisses  atomic.Int64 // cacheable queries that had to execute
	queriesCollapsed   atomic.Int64 // duplicate in-flight queries served by a singleflight leader
	tailExtensions     atomic.Int64 // prefix-stable file growths folded in incrementally
	tailRowsAppended   atomic.Int64 // rows ingested by those incremental extensions
}

// AddRawBytesRead records bytes read from a raw flat file.
func (c *Counters) AddRawBytesRead(n int64) { c.rawBytesRead.Add(n) }

// AddInternalBytesRead records bytes read from internal binary storage.
func (c *Counters) AddInternalBytesRead(n int64) { c.internalBytesRead.Add(n) }

// AddInternalBytesWritten records bytes written to internal binary storage.
func (c *Counters) AddInternalBytesWritten(n int64) { c.internalBytesWrite.Add(n) }

// AddSplitBytesRead records bytes read from split files.
func (c *Counters) AddSplitBytesRead(n int64) { c.splitBytesRead.Add(n) }

// AddSplitBytesWritten records bytes written to split files.
func (c *Counters) AddSplitBytesWritten(n int64) { c.splitBytesWrite.Add(n) }

// AddRowsTokenized records rows whose boundaries were identified.
func (c *Counters) AddRowsTokenized(n int64) { c.rowsTokenized.Add(n) }

// AddAttrsTokenized records attribute fields located within rows.
func (c *Counters) AddAttrsTokenized(n int64) { c.attrsTokenized.Add(n) }

// AddValuesParsed records attribute fields converted to typed values.
func (c *Counters) AddValuesParsed(n int64) { c.valuesParsed.Add(n) }

// AddRowsAbandoned records rows abandoned early after a predicate failed.
func (c *Counters) AddRowsAbandoned(n int64) { c.rowsAbandoned.Add(n) }

// AddPosMapHit records attribute locations found via the positional map.
func (c *Counters) AddPosMapHit(n int64) { c.posMapHits.Add(n) }

// AddPosMapMiss records attribute locations the positional map did not know.
func (c *Counters) AddPosMapMiss(n int64) { c.posMapMisses.Add(n) }

// AddCacheHit records a column/region request served by the adaptive store.
func (c *Counters) AddCacheHit(n int64) { c.cacheHits.Add(n) }

// AddCacheMiss records a request that had to go back to the flat file.
func (c *Counters) AddCacheMiss(n int64) { c.cacheMisses.Add(n) }

// AddEviction records adaptive structures evicted by the memory governor.
func (c *Counters) AddEviction(n int64) { c.evictions.Add(n) }

// AddEvictedBytes records bytes reclaimed by governor evictions.
func (c *Counters) AddEvictedBytes(n int64) { c.evictedBytes.Add(n) }

// AddSnapshotBytesRead records bytes read from snapshot or spill files.
func (c *Counters) AddSnapshotBytesRead(n int64) { c.snapBytesRead.Add(n) }

// AddSnapshotBytesWritten records bytes written to snapshot or spill files.
func (c *Counters) AddSnapshotBytesWritten(n int64) { c.snapBytesWrite.Add(n) }

// AddSnapshotHit records structures restored from the snapshot cache.
func (c *Counters) AddSnapshotHit(n int64) { c.snapHits.Add(n) }

// AddSnapshotMiss records restore attempts that found no usable snapshot.
func (c *Counters) AddSnapshotMiss(n int64) { c.snapMisses.Add(n) }

// AddSnapshotSave records full snapshots written.
func (c *Counters) AddSnapshotSave(n int64) { c.snapSaves.Add(n) }

// AddSnapshotSpill records structures spilled to disk by eviction.
func (c *Counters) AddSnapshotSpill(n int64) { c.snapSpills.Add(n) }

// AddSnapshotInvalidation records stale/corrupt snapshot data discarded.
func (c *Counters) AddSnapshotInvalidation(n int64) { c.snapInvalidations.Add(n) }

// AddPortionsSkipped records file portions pruned outright by a scan
// synopsis: their bytes were never read and their rows never tokenized.
func (c *Counters) AddPortionsSkipped(n int64) { c.portionsSkipped.Add(n) }

// AddSynopsisHit records a scan in which synopsis bounds pruned at least
// one portion.
func (c *Counters) AddSynopsisHit(n int64) { c.synopsisHits.Add(n) }

// AddResultCacheHit records a query answered entirely from the result
// cache (no planning, no scan).
func (c *Counters) AddResultCacheHit(n int64) { c.resultCacheHits.Add(n) }

// AddResultCacheMiss records a cacheable query that found no usable entry
// and executed.
func (c *Counters) AddResultCacheMiss(n int64) { c.resultCacheMisses.Add(n) }

// AddQueryCollapsed records a duplicate in-flight query served by its
// singleflight leader's result instead of executing.
func (c *Counters) AddQueryCollapsed(n int64) { c.queriesCollapsed.Add(n) }

// AddTailExtension records a prefix-stable file growth folded into the
// learned structures incrementally instead of via full invalidation.
func (c *Counters) AddTailExtension(n int64) { c.tailExtensions.Add(n) }

// AddTailRowsAppended records rows ingested by incremental tail extensions.
func (c *Counters) AddTailRowsAppended(n int64) { c.tailRowsAppended.Add(n) }

// Snapshot is an immutable copy of the counters at one point in time.
type Snapshot struct {
	RawBytesRead         int64
	InternalBytesRead    int64
	InternalBytesWritten int64
	SplitBytesRead       int64
	SplitBytesWritten    int64
	RowsTokenized        int64
	AttrsTokenized       int64
	ValuesParsed         int64
	RowsAbandoned        int64
	PosMapHits           int64
	PosMapMisses         int64
	CacheHits            int64
	CacheMisses          int64
	Evictions            int64
	EvictedBytes         int64
	SnapshotBytesRead    int64
	SnapshotBytesWritten int64
	SnapshotHits         int64
	SnapshotMisses       int64
	SnapshotSaves        int64
	SnapshotSpills       int64
	SnapshotInvalid      int64
	PortionsSkipped      int64
	SynopsisHits         int64
	ResultCacheHits      int64
	ResultCacheMisses    int64
	QueriesCollapsed     int64
	TailExtensions       int64
	TailRowsAppended     int64
}

// Snapshot returns a point-in-time copy of all counters.
func (c *Counters) Snapshot() Snapshot {
	return Snapshot{
		RawBytesRead:         c.rawBytesRead.Load(),
		InternalBytesRead:    c.internalBytesRead.Load(),
		InternalBytesWritten: c.internalBytesWrite.Load(),
		SplitBytesRead:       c.splitBytesRead.Load(),
		SplitBytesWritten:    c.splitBytesWrite.Load(),
		RowsTokenized:        c.rowsTokenized.Load(),
		AttrsTokenized:       c.attrsTokenized.Load(),
		ValuesParsed:         c.valuesParsed.Load(),
		RowsAbandoned:        c.rowsAbandoned.Load(),
		PosMapHits:           c.posMapHits.Load(),
		PosMapMisses:         c.posMapMisses.Load(),
		CacheHits:            c.cacheHits.Load(),
		CacheMisses:          c.cacheMisses.Load(),
		Evictions:            c.evictions.Load(),
		EvictedBytes:         c.evictedBytes.Load(),
		SnapshotBytesRead:    c.snapBytesRead.Load(),
		SnapshotBytesWritten: c.snapBytesWrite.Load(),
		SnapshotHits:         c.snapHits.Load(),
		SnapshotMisses:       c.snapMisses.Load(),
		SnapshotSaves:        c.snapSaves.Load(),
		SnapshotSpills:       c.snapSpills.Load(),
		SnapshotInvalid:      c.snapInvalidations.Load(),
		PortionsSkipped:      c.portionsSkipped.Load(),
		SynopsisHits:         c.synopsisHits.Load(),
		ResultCacheHits:      c.resultCacheHits.Load(),
		ResultCacheMisses:    c.resultCacheMisses.Load(),
		QueriesCollapsed:     c.queriesCollapsed.Load(),
		TailExtensions:       c.tailExtensions.Load(),
		TailRowsAppended:     c.tailRowsAppended.Load(),
	}
}

// Reset zeroes all counters.
func (c *Counters) Reset() {
	c.rawBytesRead.Store(0)
	c.internalBytesRead.Store(0)
	c.internalBytesWrite.Store(0)
	c.splitBytesRead.Store(0)
	c.splitBytesWrite.Store(0)
	c.rowsTokenized.Store(0)
	c.attrsTokenized.Store(0)
	c.valuesParsed.Store(0)
	c.rowsAbandoned.Store(0)
	c.posMapHits.Store(0)
	c.posMapMisses.Store(0)
	c.cacheHits.Store(0)
	c.cacheMisses.Store(0)
	c.evictions.Store(0)
	c.evictedBytes.Store(0)
	c.snapBytesRead.Store(0)
	c.snapBytesWrite.Store(0)
	c.snapHits.Store(0)
	c.snapMisses.Store(0)
	c.snapSaves.Store(0)
	c.snapSpills.Store(0)
	c.snapInvalidations.Store(0)
	c.portionsSkipped.Store(0)
	c.synopsisHits.Store(0)
	c.resultCacheHits.Store(0)
	c.resultCacheMisses.Store(0)
	c.queriesCollapsed.Store(0)
	c.tailExtensions.Store(0)
	c.tailRowsAppended.Store(0)
}

// Sub returns the delta s - prev, counter by counter. Use it to attribute
// work to a single query: snapshot before, snapshot after, subtract.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	return Snapshot{
		RawBytesRead:         s.RawBytesRead - prev.RawBytesRead,
		InternalBytesRead:    s.InternalBytesRead - prev.InternalBytesRead,
		InternalBytesWritten: s.InternalBytesWritten - prev.InternalBytesWritten,
		SplitBytesRead:       s.SplitBytesRead - prev.SplitBytesRead,
		SplitBytesWritten:    s.SplitBytesWritten - prev.SplitBytesWritten,
		RowsTokenized:        s.RowsTokenized - prev.RowsTokenized,
		AttrsTokenized:       s.AttrsTokenized - prev.AttrsTokenized,
		ValuesParsed:         s.ValuesParsed - prev.ValuesParsed,
		RowsAbandoned:        s.RowsAbandoned - prev.RowsAbandoned,
		PosMapHits:           s.PosMapHits - prev.PosMapHits,
		PosMapMisses:         s.PosMapMisses - prev.PosMapMisses,
		CacheHits:            s.CacheHits - prev.CacheHits,
		CacheMisses:          s.CacheMisses - prev.CacheMisses,
		Evictions:            s.Evictions - prev.Evictions,
		EvictedBytes:         s.EvictedBytes - prev.EvictedBytes,
		SnapshotBytesRead:    s.SnapshotBytesRead - prev.SnapshotBytesRead,
		SnapshotBytesWritten: s.SnapshotBytesWritten - prev.SnapshotBytesWritten,
		SnapshotHits:         s.SnapshotHits - prev.SnapshotHits,
		SnapshotMisses:       s.SnapshotMisses - prev.SnapshotMisses,
		SnapshotSaves:        s.SnapshotSaves - prev.SnapshotSaves,
		SnapshotSpills:       s.SnapshotSpills - prev.SnapshotSpills,
		SnapshotInvalid:      s.SnapshotInvalid - prev.SnapshotInvalid,
		PortionsSkipped:      s.PortionsSkipped - prev.PortionsSkipped,
		SynopsisHits:         s.SynopsisHits - prev.SynopsisHits,
		ResultCacheHits:      s.ResultCacheHits - prev.ResultCacheHits,
		ResultCacheMisses:    s.ResultCacheMisses - prev.ResultCacheMisses,
		QueriesCollapsed:     s.QueriesCollapsed - prev.QueriesCollapsed,
		TailExtensions:       s.TailExtensions - prev.TailExtensions,
		TailRowsAppended:     s.TailRowsAppended - prev.TailRowsAppended,
	}
}

// Add returns the elementwise sum s + o.
func (s Snapshot) Add(o Snapshot) Snapshot {
	return o.Sub(Snapshot{}.Sub(s))
}

func (s Snapshot) String() string {
	return fmt.Sprintf(
		"raw=%dB internalR=%dB internalW=%dB splitR=%dB splitW=%dB rows=%d attrs=%d parsed=%d abandoned=%d pmHit=%d pmMiss=%d cacheHit=%d cacheMiss=%d evict=%d evictB=%dB snapR=%dB snapW=%dB snapHit=%d snapMiss=%d snapSpill=%d snapInvalid=%d portionsSkipped=%d synHit=%d resultHit=%d resultMiss=%d collapsed=%d",
		s.RawBytesRead, s.InternalBytesRead, s.InternalBytesWritten,
		s.SplitBytesRead, s.SplitBytesWritten,
		s.RowsTokenized, s.AttrsTokenized, s.ValuesParsed, s.RowsAbandoned,
		s.PosMapHits, s.PosMapMisses, s.CacheHits, s.CacheMisses,
		s.Evictions, s.EvictedBytes,
		s.SnapshotBytesRead, s.SnapshotBytesWritten,
		s.SnapshotHits, s.SnapshotMisses, s.SnapshotSpills, s.SnapshotInvalid,
		s.PortionsSkipped, s.SynopsisHits,
		s.ResultCacheHits, s.ResultCacheMisses, s.QueriesCollapsed)
}

// Timer measures wall-clock intervals; a convenience for the bench harness.
type Timer struct{ start time.Time }

// StartTimer begins a wall-clock measurement.
func StartTimer() Timer { return Timer{start: time.Now()} }

// Elapsed reports the wall-clock time since the timer started.
func (t Timer) Elapsed() time.Duration { return time.Since(t.start) }
