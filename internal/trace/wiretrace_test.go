package trace

import (
	"testing"
	"time"
)

// The wire-id half of the collector: tagged-ring admission and the
// Find lookup behind TRACE GET.

// TestTaggedAdmissionPriority pins the ring precedence for a trace
// carrying a wire id: slowlog > tagged > sampled, landing in exactly
// one ring.
func TestTaggedAdmissionPriority(t *testing.T) {
	// Slow AND tagged AND sampled: the slowlog wins.
	c := NewCollector(Config{SampleN: 1, Slowlog: 0, Ring: 4})
	tr := c.Begin()
	tr.SetWire(0xbeef, 1)
	if !c.Observe(tr, time.Millisecond) {
		t.Fatal("above-threshold trace not slow")
	}
	if c.Slow().Len() != 1 || c.Tagged().Len() != 0 || c.Sampled().Len() != 0 {
		t.Fatalf("slow/tagged/sampled = %d/%d/%d, want 1/0/0",
			c.Slow().Len(), c.Tagged().Len(), c.Sampled().Len())
	}

	// Tagged AND sampled, slowlog off: the tagged ring wins.
	c = NewCollector(Config{SampleN: 1, Slowlog: -1, Ring: 4})
	tr = c.Begin()
	tr.SetWire(0xbeef, 1)
	c.Observe(tr, time.Millisecond)
	if c.Tagged().Len() != 1 || c.Sampled().Len() != 0 {
		t.Fatalf("tagged/sampled = %d/%d, want 1/0",
			c.Tagged().Len(), c.Sampled().Len())
	}

	// No policies, no tag: recycled, retained nowhere.
	c = NewCollector(Config{Slowlog: -1, Ring: 4})
	c.Observe(c.Begin(), time.Millisecond)
	if c.Slow().Len()+c.Tagged().Len()+c.Sampled().Len() != 0 {
		t.Fatal("untagged ineligible trace was retained")
	}
}

// TestMintedIDNotTagged: an id the trace minted for itself (the
// router's own root trace) is not a parent's id, so it never makes the
// trace tagged-retainable; slow or sampled minted traces are kept and
// stay findable by that id.
func TestMintedIDNotTagged(t *testing.T) {
	c := NewCollector(Config{SampleN: 0, Slowlog: time.Millisecond, Ring: 4})
	tr := c.Begin()
	id := tr.Mint()
	if id == 0 || tr.Mint() != id {
		t.Fatalf("Mint = %x then %x, want one stable nonzero id", id, tr.Mint())
	}
	c.Observe(tr, time.Microsecond)
	if n := c.Slow().Total() + c.Tagged().Total() + c.Sampled().Total(); n != 0 {
		t.Fatalf("fast minted trace retained %d times, want recycled", n)
	}

	tr = c.Begin()
	id = tr.Mint()
	if !c.Observe(tr, time.Hour) {
		t.Fatal("slow minted trace not admitted to the slowlog")
	}
	if got := c.Find(id, 0); got == nil || got.TID != id {
		t.Fatalf("Find(%x) = %+v, want the slow minted trace", id, got)
	}
}

func TestEligible(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want bool
	}{
		{"slowlog on", Config{Slowlog: 0}, true},
		{"sampling every request", Config{SampleN: 1, Slowlog: -1}, true},
		{"both off", Config{SampleN: 0, Slowlog: -1}, false},
	} {
		c := NewCollector(tc.cfg)
		tr := c.Begin()
		if got := c.Eligible(tr); got != tc.want {
			t.Errorf("%s: Eligible = %v, want %v", tc.name, got, tc.want)
		}
		c.End(tr)
	}
	var nc *Collector
	if nc.Eligible(nil) {
		t.Error("nil collector eligible")
	}
}

// TestFindAcrossRings: Find scans all three retention rings and
// honours the span-0-matches-any convention.
func TestFindAcrossRings(t *testing.T) {
	c := NewCollector(Config{SampleN: 1, Slowlog: 10 * time.Millisecond, Ring: 8})

	admit := func(tid uint64, span uint32, d time.Duration) {
		tr := c.Begin()
		tr.Request("SEARCH", "db", "k")
		tr.SetWire(tid, span)
		c.Observe(tr, d)
	}
	admit(0xa1, 1, time.Hour)        // slowlog
	admit(0xa2, 2, time.Microsecond) // fast but tagged: tagged ring

	if got := c.Find(0xa1, 1); got == nil || got.SpanID != 1 {
		t.Errorf("Find in slowlog ring: %+v", got)
	}
	if got := c.Find(0xa2, 0); got == nil || got.TID != 0xa2 {
		t.Errorf("Find span 0 across rings: %+v", got)
	}
	if c.Find(0xa2, 9) != nil {
		t.Error("Find matched the wrong span")
	}
	if c.Find(0xffff, 0) != nil {
		t.Error("Find matched an unknown id")
	}
	if c.Find(0, 0) != nil {
		t.Error("Find(0, 0) must always miss: tid 0 means untagged")
	}

	// Wraparound eviction: newer tagged ids push 0xa2 out.
	for i := 0; i < c.Tagged().Cap()+c.Sampled().Cap(); i++ {
		admit(0xb000+uint64(i), 1, time.Microsecond)
	}
	if c.Find(0xa2, 2) != nil {
		t.Error("evicted id still found")
	}
	// The slowlog entry is untouched by tagged-ring churn.
	if c.Find(0xa1, 1) == nil {
		t.Error("slowlog entry lost to tagged-ring wraparound")
	}
}

// TestFindVsResetRace races Find against Reset on every ring; the race
// detector (make trace-guard) is the assertion.
func TestFindVsResetRace(t *testing.T) {
	c := NewCollector(Config{SampleN: 2, Slowlog: 0, Ring: 8})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			c.Slow().Reset()
			c.Tagged().Reset()
			c.Sampled().Reset()
		}
	}()
	for i := 0; i < 1000; i++ {
		tr := c.Begin()
		tr.Request("SEARCH", "db", "k")
		tr.SetWire(uint64(i)+1, 1)
		c.Observe(tr, time.Microsecond)
		if got := c.Find(uint64(i)+1, 1); got != nil && got.TID != uint64(i)+1 {
			t.Fatalf("Find returned a foreign trace: %+v", got)
		}
	}
	<-done
}

func TestNewTraceIDNonZero(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if id == 0 {
			t.Fatal("NewTraceID minted 0 (the untagged sentinel)")
		}
		if seen[id] {
			t.Fatalf("NewTraceID repeated %x within 1000 draws", id)
		}
		seen[id] = true
	}
}
