package trace

import "sync"

// Ring is a fixed-size trace buffer: the newest size traces survive,
// older ones are evicted in FIFO order. Every operation holds one
// short mutex. Put hands back the trace it evicted so the collector
// can recycle it, which is safe because no reader ever holds a
// retained trace: Snapshot and Find return deep copies taken under
// the lock.
type Ring struct {
	mu    sync.Mutex
	slots []*Trace
	seq   uint64 // admissions ever; the newest trace's ID
	base  uint64 // seq at the last Reset
}

// NewRing returns a ring retaining the newest size traces (minimum 1).
func NewRing(size int) *Ring {
	if size < 1 {
		size = 1
	}
	return &Ring{slots: make([]*Trace, size)}
}

// Cap returns the ring's capacity.
func (r *Ring) Cap() int { return len(r.slots) }

// Put admits a trace, stamps its admission sequence number (monotone
// from 1) as its ID and returns it, along with the trace it evicted
// (nil while the ring is filling). The ring owns t from here on; the
// caller owns the evicted trace and may reuse it.
func (r *Ring) Put(t *Trace) (id uint64, evicted *Trace) {
	r.mu.Lock()
	r.seq++
	id = r.seq
	t.ID = id
	slot := &r.slots[int((id-1)%uint64(len(r.slots)))]
	evicted, *slot = *slot, t
	r.mu.Unlock()
	return id, evicted
}

// len is Len with the lock held.
func (r *Ring) len() int {
	return int(min(r.seq-r.base, uint64(len(r.slots))))
}

// Len returns the number of traces currently retained.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.len()
}

// Total returns how many traces were ever admitted (across resets).
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Reset discards the retained traces.
func (r *Ring) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.base = r.seq
	clear(r.slots)
}

// walk calls fn on each retained trace, newest first, with the lock
// held, until fn returns false.
func (r *Ring) walk(fn func(*Trace) bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, n := uint64(0), uint64(r.len()); i < n; i++ {
		id := r.seq - i
		if !fn(r.slots[int((id-1)%uint64(len(r.slots)))]) {
			return
		}
	}
}

// Snapshot appends copies of up to max retained traces to dst, newest
// first, and returns the extended slice. max <= 0 means "all
// retained". The copies are the caller's: they stay intact however
// the ring moves on.
func (r *Ring) Snapshot(dst []*Trace, max int) []*Trace {
	n := 0
	r.walk(func(t *Trace) bool {
		if max > 0 && n == max {
			return false
		}
		dst = append(dst, t.clone())
		n++
		return true
	})
	return dst
}

// find returns a copy of the newest retained trace carrying wire id
// tid and, when span is nonzero, exactly that span id.
func (r *Ring) find(tid uint64, span uint32) *Trace {
	var got *Trace
	r.walk(func(t *Trace) bool {
		if t.TID == tid && (span == 0 || t.SpanID == span) {
			got = t.clone()
			return false
		}
		return true
	})
	return got
}
