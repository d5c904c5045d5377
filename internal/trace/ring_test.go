package trace

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRingBasics(t *testing.T) {
	r := NewRing(3)
	if r.Cap() != 3 {
		t.Fatalf("Cap = %d, want 3", r.Cap())
	}
	if r.Len() != 0 || r.Total() != 0 {
		t.Fatalf("empty ring: Len=%d Total=%d", r.Len(), r.Total())
	}
	var put []*Trace
	for i := 0; i < 5; i++ {
		tr := &Trace{Cmd: "SEARCH"}
		id, evicted := r.Put(tr)
		if id != uint64(i+1) {
			t.Fatalf("Put #%d returned id %d", i+1, id)
		}
		// The ring hands back the oldest trace once it is full.
		var want *Trace
		if i >= 3 {
			want = put[i-3]
		}
		if evicted != want {
			t.Fatalf("Put #%d evicted %p, want %p", i+1, evicted, want)
		}
		put = append(put, tr)
	}
	if r.Len() != 3 {
		t.Fatalf("Len after 5 puts into cap 3 = %d, want 3", r.Len())
	}
	if r.Total() != 5 {
		t.Fatalf("Total = %d, want 5", r.Total())
	}
	got := r.Snapshot(nil, 0)
	if len(got) != 3 {
		t.Fatalf("Snapshot returned %d traces, want 3", len(got))
	}
	for i, tr := range got { // newest first: ids 5, 4, 3
		if want := uint64(5 - i); tr.ID != want {
			t.Fatalf("snapshot[%d].ID = %d, want %d", i, tr.ID, want)
		}
	}
	if got := r.Snapshot(nil, 2); len(got) != 2 || got[0].ID != 5 {
		t.Fatalf("bounded snapshot = %v", got)
	}

	r.Reset()
	if r.Len() != 0 {
		t.Fatalf("Len after Reset = %d", r.Len())
	}
	if got := r.Snapshot(nil, 0); len(got) != 0 {
		t.Fatalf("Snapshot after Reset returned %d traces", len(got))
	}
	// Admission sequence continues across resets.
	if id, evicted := r.Put(&Trace{}); id != 6 || evicted != nil {
		t.Fatalf("Put after Reset returned id %d evicting %p, want 6 and nil", id, evicted)
	}
	if r.Len() != 1 || r.Total() != 6 {
		t.Fatalf("after post-reset put: Len=%d Total=%d", r.Len(), r.Total())
	}
}

func TestRingMinimumCapacity(t *testing.T) {
	r := NewRing(0)
	if r.Cap() != 1 {
		t.Fatalf("Cap = %d, want 1", r.Cap())
	}
	r.Put(&Trace{})
	r.Put(&Trace{})
	if got := r.Snapshot(nil, 0); len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("snapshot = %+v, want the single newest trace", got)
	}
}

// TestRingConcurrent hammers one ring from 32 writer goroutines while
// readers snapshot and reset concurrently — the retention path a busy
// traced server exercises. Run under -race by `make race`. The
// correctness bar: no torn traces (every snapshot entry's ID is
// self-consistent and IDs are strictly decreasing within a snapshot).
func TestRingConcurrent(t *testing.T) {
	const (
		writers = 32
		perG    = 500
	)
	r := NewRing(64)
	var wg sync.WaitGroup
	var stop atomic.Bool

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Put(&Trace{Cmd: "SEARCH", Rows: int32(w)})
			}
		}(w)
	}
	// Two snapshot readers and one resetter race the writers.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]*Trace, 0, 64)
			for !stop.Load() {
				buf = r.Snapshot(buf[:0], 0)
				last := uint64(0)
				for i, tr := range buf {
					if tr.ID == 0 {
						t.Error("snapshot returned an unadmitted trace")
						return
					}
					if i > 0 && tr.ID >= last {
						t.Errorf("snapshot not newest-first: id %d after %d", tr.ID, last)
						return
					}
					last = tr.ID
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			if i%64 == 0 {
				r.Reset()
			}
			_ = r.Len()
		}
	}()

	// Writers finish, then the readers are released.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r.Total() < writers*perG {
			if stop.Load() {
				return
			}
		}
	}()
	<-done
	stop.Store(true)
	wg.Wait()

	if r.Total() != writers*perG {
		t.Fatalf("Total = %d, want %d", r.Total(), writers*perG)
	}
}

// TestRingRecycleCopiesStable is the recycling contract: a ring hands
// every trace it evicts back to the collector's pool, where the next
// request rewrites its identity buffer and events, so whatever a reader
// holds must be a copy sharing no memory with a retained trace. Readers
// take copies via Snapshot and Find, writers via the slow-admission
// copy (EndCopy); every copy must stay byte-identical while concurrent
// Puts wrap both rings at least ten more times. Run under -race by
// `make trace-guard` (-count=10), where any shared memory is also a
// reported race.
func TestRingRecycleCopiesStable(t *testing.T) {
	const (
		ringCap = 8
		writers = 4
		readers = 2
		hold    = 100 // copies each goroutine keeps
	)
	// Slowlog 0: EndCopy admits to the slowlog (any nonzero latency)
	// and Observe(tr, 0) to the tagged ring, so both rings churn.
	c := NewCollector(Config{Slowlog: 0, Ring: ringCap})
	record := func(n uint64) *Trace {
		tr := c.Begin()
		tr.Request("search", "e"+strconv.FormatUint(n%7, 10), strconv.FormatUint(n, 16))
		tr.Probe(uint32(n), int(n%3), 4, 1, true)
		tr.SetResult("HIT")
		tr.SetWire(n, uint32(n%5)+1)
		if n%2 == 0 {
			return c.EndCopy(tr)
		}
		c.Observe(tr, 0)
		return nil
	}
	// check reports whether a copy is self-consistent: every field must
	// derive from the one request id it was recorded with.
	check := func(cp *Trace) bool {
		n := cp.TID
		return cp.Cmd == "SEARCH" && cp.Engine == "e"+strconv.FormatUint(n%7, 10) &&
			cp.Key == strconv.FormatUint(n, 16) && cp.SpanID == uint32(n%5)+1 &&
			cp.Result == "HIT" && len(cp.Events) == 1 && cp.Events[0].Bucket == uint32(n)
	}
	fingerprint := func(cp *Trace) string {
		return fmt.Sprintf("%d|%s|%s|%s|%d|%s|%+v", cp.ID, cp.Cmd, cp.Engine, cp.Key, cp.SpanID, cp.Result, cp.Events)
	}
	type held struct {
		cp *Trace
		fp string
	}
	var (
		mu   sync.Mutex
		all  []held
		next atomic.Uint64
		stop atomic.Bool
		wgW  sync.WaitGroup
		wgR  sync.WaitGroup
		keep = func(cp *Trace) {
			if !check(cp) {
				t.Errorf("torn copy: %+v", cp)
			}
			mu.Lock()
			all = append(all, held{cp, fingerprint(cp)})
			mu.Unlock()
		}
	)
	for w := 0; w < writers; w++ {
		wgW.Add(1)
		go func() {
			defer wgW.Done()
			kept := 0
			for !stop.Load() {
				if cp := record(next.Add(1)); cp != nil && kept < hold {
					keep(cp)
					kept++
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wgR.Add(1)
		go func() {
			defer wgR.Done()
			var buf []*Trace
			for kept := 0; kept < hold; {
				buf = c.Slow().Snapshot(buf[:0], 0)
				buf = c.Tagged().Snapshot(buf, 2)
				if cp := c.Find(next.Load()-1, 0); cp != nil {
					buf = append(buf, cp)
				}
				for _, cp := range buf {
					keep(cp)
					kept++
				}
			}
		}()
	}
	wgR.Wait()
	// Every copy is now held; let both rings wrap ten more times.
	slow0, tagged0 := c.Slow().Total(), c.Tagged().Total()
	for c.Slow().Total() < slow0+10*ringCap || c.Tagged().Total() < tagged0+10*ringCap {
		runtime.Gosched()
	}
	stop.Store(true)
	wgW.Wait()

	if len(all) < readers*hold {
		t.Fatalf("held %d copies, want at least %d", len(all), readers*hold)
	}
	for _, h := range all {
		if !check(h.cp) || fingerprint(h.cp) != h.fp {
			t.Fatalf("copy changed while held:\n  was %s\n  now %s", h.fp, fingerprint(h.cp))
		}
	}
}
