package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Config parameterizes a Collector. The zero value keeps both
// admission policies off (traces are still recorded and pooled, so
// EXPLAIN-style forced traces and per-request logging keep working).
type Config struct {
	// SampleN admits every Nth request into the sampled ring
	// (1-in-N). 0 or negative disables sampling. The sampler is
	// counter-based, not random, so admission is deterministic for a
	// scripted session.
	SampleN int
	// Slowlog is the slowlog latency threshold: a request is admitted
	// exactly when its wall latency exceeds it (strictly greater, the
	// Redis convention). A negative threshold disables the slowlog; 0
	// admits everything with nonzero latency.
	Slowlog time.Duration
	// Ring is the capacity of each retention ring (sampled and
	// slowlog). 0 means DefaultRing.
	Ring int
}

// DefaultRing is the per-policy retention when Config.Ring is 0.
const DefaultRing = 128

// Collector owns trace retention for a server: a pool of reusable
// traces, the two admission policies, and their rings. All methods are
// safe for concurrent use and safe on a nil receiver (a nil Collector
// is "tracing off": Begin returns a nil Trace and every downstream
// recording call no-ops).
type Collector struct {
	sampleN int64
	slowNs  int64

	seen    atomic.Uint64 // requests begun (drives the 1-in-N sampler)
	sampled *Ring
	slow    *Ring
	tagged  *Ring // wire-propagated traces (*TID) a parent tier may fetch
	pool    sync.Pool
}

// NewCollector builds a collector with the given policies.
func NewCollector(cfg Config) *Collector {
	size := cfg.Ring
	if size <= 0 {
		size = DefaultRing
	}
	slowNs := int64(cfg.Slowlog)
	if cfg.Slowlog < 0 {
		slowNs = -1
	}
	sampleN := int64(cfg.SampleN)
	if sampleN < 0 {
		sampleN = 0
	}
	return &Collector{
		sampleN: sampleN,
		slowNs:  slowNs,
		sampled: NewRing(size),
		slow:    NewRing(size),
		tagged:  NewRing(size),
		pool: sync.Pool{New: func() any {
			return &Trace{Events: make([]Event, 0, 16), ident: make([]byte, 0, 64)}
		}},
	}
}

// Enabled reports whether the collector is live.
func (c *Collector) Enabled() bool { return c != nil }

// SampleN returns the 1-in-N sampling rate (0 = off).
func (c *Collector) SampleN() int {
	if c == nil {
		return 0
	}
	return int(c.sampleN)
}

// SlowThreshold returns the slowlog threshold, or ok=false when the
// slowlog is disabled.
func (c *Collector) SlowThreshold() (time.Duration, bool) {
	if c == nil || c.slowNs < 0 {
		return 0, false
	}
	return time.Duration(c.slowNs), true
}

// Seen returns how many requests have begun tracing.
func (c *Collector) Seen() uint64 {
	if c == nil {
		return 0
	}
	return c.seen.Load()
}

// Sampled returns the sampled-trace ring (nil on a nil collector).
func (c *Collector) Sampled() *Ring {
	if c == nil {
		return nil
	}
	return c.sampled
}

// Slow returns the slowlog ring (nil on a nil collector).
func (c *Collector) Slow() *Ring {
	if c == nil {
		return nil
	}
	return c.slow
}

// Tagged returns the wire-propagated trace ring (nil on a nil
// collector): traces joined to a parent's id by SetWire that were
// neither slow nor sampled, retained so the tagging tier can stitch
// them.
func (c *Collector) Tagged() *Ring {
	if c == nil {
		return nil
	}
	return c.tagged
}

// SlowAdmit is the slowlog admission predicate: latency strictly
// greater than the threshold, never on a disabled slowlog. Exposed so
// the admission property ("admitted exactly when d > threshold") is
// directly testable.
func (c *Collector) SlowAdmit(d time.Duration) bool {
	return c != nil && c.slowNs >= 0 && int64(d) > c.slowNs
}

// Begin starts tracing one request. It returns nil — tracing off for
// this request — only on a nil collector; otherwise the trace comes
// from the pool, so the steady-state cost of an unadmitted trace is a
// clock read and zero allocations.
func (c *Collector) Begin() *Trace {
	if c == nil {
		return nil
	}
	t := c.pool.Get().(*Trace)
	n := c.seen.Add(1)
	t.Begin = time.Now()
	t.sampled = c.sampleN > 0 && n%uint64(c.sampleN) == 0
	return t
}

// End finishes a request trace: it stamps the wall latency, applies
// the admission policies, and either retains the trace (slowlog >
// tagged > sampled) or recycles it. Either way the caller must not
// touch the trace again. It returns whether the request entered the
// slowlog. Safe on nil collector/trace.
func (c *Collector) End(t *Trace) (slow bool) {
	if c == nil || t == nil {
		return false
	}
	return c.Observe(t, time.Since(t.Begin))
}

// EndCopy is End for callers that log slow requests: it returns a
// private copy of the trace when the request entered the slowlog, and
// nil otherwise.
func (c *Collector) EndCopy(t *Trace) *Trace {
	if c == nil || t == nil {
		return nil
	}
	cp, _ := c.observe(t, time.Since(t.Begin), true)
	return cp
}

// Observe is End with an explicit latency, the seam the admission
// property test drives with synthetic durations.
func (c *Collector) Observe(t *Trace, d time.Duration) (slow bool) {
	if c == nil || t == nil {
		return false
	}
	_, slow = c.observe(t, d, false)
	return slow
}

func (c *Collector) observe(t *Trace, d time.Duration, keep bool) (cp *Trace, slow bool) {
	t.Dur = d
	// A trace lands in exactly one ring (Ring.Put rewrites Trace.ID).
	var r *Ring
	switch {
	case c.SlowAdmit(d):
		r, slow = c.slow, true
	case t.TID != 0 && !t.minted:
		r = c.tagged
	case t.sampled:
		r = c.sampled
	default:
		c.recycle(t)
		return nil, false
	}
	t.detach()
	if slow && keep {
		cp = t.clone() // before Put: once admitted, t may be evicted at any time
	}
	id, evicted := r.Put(t)
	if cp != nil {
		cp.ID = id
	}
	if evicted != nil {
		c.recycle(evicted)
	}
	return cp, slow
}

func (c *Collector) recycle(t *Trace) {
	t.reset()
	c.pool.Put(t)
}

// Eligible reports whether the trace has any chance of being retained
// under the collector's policies: it was picked by the sampler, or the
// slowlog is on (any request may turn out slow). Parent tiers use it
// to decide whether tagging downstream requests is worth the bytes —
// with sampling and the slowlog both off, Eligible is false for every
// trace and the forward path stays allocation-free.
func (c *Collector) Eligible(t *Trace) bool {
	return c != nil && t != nil && (t.sampled || c.slowNs >= 0)
}

// Find returns a copy of the newest retained trace carrying the wire
// trace id tid (and, when span is nonzero, exactly that span id),
// scanning the slowlog, tagged, and sampled rings. It is the lookup
// behind the TRACE GET wire command; a miss — never admitted, or
// already evicted by ring wraparound — returns nil.
func (c *Collector) Find(tid uint64, span uint32) *Trace {
	if c == nil || tid == 0 {
		return nil
	}
	for _, r := range [...]*Ring{c.slow, c.tagged, c.sampled} {
		if t := r.find(tid, span); t != nil {
			return t
		}
	}
	return nil
}
