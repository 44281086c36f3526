package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCountersAndSnapshot(t *testing.T) {
	var c Counters
	c.AddRawBytesRead(100)
	c.AddInternalBytesRead(10)
	c.AddInternalBytesWritten(20)
	c.AddSplitBytesRead(5)
	c.AddSplitBytesWritten(6)
	c.AddRowsTokenized(3)
	c.AddAttrsTokenized(9)
	c.AddValuesParsed(4)
	c.AddRowsAbandoned(1)
	c.AddPosMapHit(2)
	c.AddPosMapMiss(1)
	c.AddCacheHit(1)
	c.AddCacheMiss(2)

	s := c.Snapshot()
	if s.RawBytesRead != 100 || s.InternalBytesRead != 10 || s.InternalBytesWritten != 20 {
		t.Errorf("byte counters wrong: %+v", s)
	}
	if s.SplitBytesRead != 5 || s.SplitBytesWritten != 6 {
		t.Errorf("split counters wrong: %+v", s)
	}
	if s.RowsTokenized != 3 || s.AttrsTokenized != 9 || s.ValuesParsed != 4 || s.RowsAbandoned != 1 {
		t.Errorf("work counters wrong: %+v", s)
	}
	if s.PosMapHits != 2 || s.PosMapMisses != 1 || s.CacheHits != 1 || s.CacheMisses != 2 {
		t.Errorf("hit counters wrong: %+v", s)
	}
}

func TestSnapshotSubAdd(t *testing.T) {
	a := Snapshot{RawBytesRead: 100, RowsTokenized: 10}
	b := Snapshot{RawBytesRead: 30, RowsTokenized: 4}
	d := a.Sub(b)
	if d.RawBytesRead != 70 || d.RowsTokenized != 6 {
		t.Errorf("Sub = %+v", d)
	}
	s := b.Add(d)
	if s != a {
		t.Errorf("Add(Sub) != original: %+v", s)
	}
}

func TestReset(t *testing.T) {
	var c Counters
	c.AddRawBytesRead(1)
	c.AddCacheHit(1)
	c.Reset()
	if s := c.Snapshot(); s != (Snapshot{}) {
		t.Errorf("Reset left %+v", s)
	}
}

func TestConcurrentCounters(t *testing.T) {
	var c Counters
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.AddRawBytesRead(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Snapshot().RawBytesRead; got != 8000 {
		t.Errorf("concurrent adds = %d, want 8000", got)
	}
}

func TestSnapshotString(t *testing.T) {
	s := Snapshot{RawBytesRead: 5, CacheHits: 2}
	str := s.String()
	if !strings.Contains(str, "raw=5B") || !strings.Contains(str, "cacheHit=2") {
		t.Errorf("String = %q", str)
	}
}

func TestTimer(t *testing.T) {
	tm := StartTimer()
	if tm.Elapsed() < 0 {
		t.Error("Elapsed should be non-negative")
	}
}
