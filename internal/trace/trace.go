// Package trace is the request-scoped tracing layer: where
// internal/metrics answers "how is the server doing on average", this
// package answers "what did *this* request actually do" — which home
// bucket the index generator selected, how many buckets the probe
// chain touched (the per-request contribution to the paper's AMAL,
// §3.4), whether the parallel overflow CAM answered, and where the
// wall-clock time went (parse, engine lock wait, match, reply encode).
//
// The design constraints, in order:
//
//  1. Zero cost when off. Every recording method is nil-safe — a nil
//     *Trace (and a nil *Collector) turns the whole layer into a
//     handful of predictable branches, so the search hot path stays
//     allocation-free with tracing compiled in but disabled (guarded
//     by the alloc-regression CI).
//  2. Race-safe retention without garbage. Admitted traces land in
//     fixed-size rings guarded by a short mutex. A Put hands the trace
//     it evicts back to the collector's pool, and every reader
//     (Snapshot, Find, the slow-request log) gets a deep copy taken
//     under the ring's lock, so no caller ever touches a pooled trace
//     after End. A retained trace keeps its request identity in a
//     buffer it reuses, so a traced request allocates nothing in
//     steady state, whether it is recycled or retained.
//  3. Two admission policies: probabilistic sampling (1-in-N, counter
//     based so tests are deterministic) and a Redis-style slowlog —
//     every request whose wall latency exceeds the threshold is kept
//     with its full probe trace.
//
// The package depends only on the standard library and imports nothing
// from this repository, so any layer (caram, subsystem, server) may
// thread a *Trace through without cycles.
package trace

import (
	"slices"
	"strings"
	"time"
	"unsafe"
)

// Kind enumerates span/event types along the request path, in stack
// order from the server's parser down to the match kernel and back.
type Kind uint8

const (
	// KindParse covers request parsing and validation in the server
	// (command word, engine name, hex keys).
	KindParse Kind = iota
	// KindLockWait is the wait for the target engine's port lock —
	// the queueing delay in front of the slice's single row port.
	KindLockWait
	// KindProbe is one bucket probe of the CA-RAM lookup chain: one
	// row fetched and matched. Payload: bucket index, displacement
	// from the home bucket, slots tested, match count, and whether
	// the probe was an overflow hop (displacement > 0).
	KindProbe
	// KindOverflow is the parallel overflow-CAM search (§4.3).
	KindOverflow
	// KindMatch aggregates the match kernel's work over the whole
	// lookup: total slots tested, total matches, pipelined passes.
	KindMatch
	// KindEncode covers appending the reply to the output buffer.
	KindEncode
	// KindEcc is a per-row error-coding event on the probe path: the
	// row's check word disagreed with its contents and the ECC layer
	// either corrected a single-bit error in place (Matches = bits
	// corrected) or quarantined the row as uncorrectable (Hit=true
	// marks quarantine). Positional like KindProbe, not timed.
	KindEcc
	// KindRetries reports how many seqlock snapshots the lock-free
	// search path re-read after observing a concurrent writer mid-
	// publish (Matches = torn snapshots retried). Emitted at most once
	// per request, only when nonzero. Not timed.
	KindRetries

	// The remaining kinds are router-side spans (internal/cluster): a
	// proxied request's lifecycle from the frontend parser through the
	// backend pools. Bucket carries the backend index for all of them.

	// KindRoute covers frontend parsing plus the consistent-hash ring
	// lookup that picked the backend. Timed.
	KindRoute
	// KindQueue is the FIFO-lane queue wait: submission to the
	// backend pool until the connection writer picked the call up.
	// Timed (Offset/Dur are measured on the pool's own clock stamps).
	KindQueue
	// KindRTT is the backend round trip: the coalesced write until the
	// reply was matched off the wire. Span carries the child span id
	// this call was tagged with (*TID <id>/<span>), so a stitcher can
	// fetch the backend's own trace for exactly this hop. Timed.
	KindRTT
	// KindBurst records coalesced-burst membership: Matches is how
	// many calls shared the single write this call rode in. Not timed.
	KindBurst
	// KindBreaker records the backend's circuit-breaker state at
	// dispatch (Hit = breaker open, the call was shed or about to be
	// probed). Not timed.
	KindBreaker
	// KindRetry is one idempotent-read retry attempt after a backend
	// connection died (Matches = attempt number, 1-based). Not timed.
	KindRetry
	// KindWALAppend times a mutation's durability window: journal
	// append through the group-commit wait (fsync under sync=always).
	KindWALAppend
)

// String names the kind for logs and JSON.
func (k Kind) String() string {
	switch k {
	case KindParse:
		return "parse"
	case KindLockWait:
		return "lock_wait"
	case KindProbe:
		return "probe"
	case KindOverflow:
		return "overflow"
	case KindMatch:
		return "match"
	case KindEncode:
		return "encode"
	case KindEcc:
		return "ecc"
	case KindRetries:
		return "retries"
	case KindRoute:
		return "route"
	case KindQueue:
		return "queue_wait"
	case KindRTT:
		return "backend_rtt"
	case KindBurst:
		return "burst"
	case KindBreaker:
		return "breaker"
	case KindRetry:
		return "retry"
	case KindWALAppend:
		return "wal_append"
	}
	return "unknown"
}

// Event is one recorded step. It is a small plain struct (no pointers)
// so a Trace's event list reuses one backing array across pooled
// reuses. Fields beyond Kind are kind-specific; unused ones are zero.
type Event struct {
	Kind Kind

	// Probe / match payload.
	Bucket       uint32 // bucket index probed
	Displacement int32  // probe distance from the home bucket
	SlotsTested  int32  // valid slots compared in this row / lookup
	Matches      int32  // slots that matched
	Passes       int32  // pipelined match passes (KindMatch)
	Span         uint32 // child span id this hop was tagged with (KindRTT)
	Overflow     bool   // probe left the home bucket (an overflow hop)
	Hit          bool   // this probe (or the overflow CAM) matched

	// Span timing: offset from the trace's Begin and duration. Zero
	// for untimed events (probes are positional, not timed — the
	// hardware fetches rows at a fixed cadence).
	Offset time.Duration
	Dur    time.Duration
}

// Trace accumulates one request's events. A Trace is owned by exactly
// one goroutine while recording; once handed to the Collector it
// belongs to the collector, which retains or recycles it. Readers of
// retained traces get copies, never the trace itself.
//
// The zero-value-pointer contract: every method is safe on a nil
// receiver and does nothing, so call sites need no "is tracing on"
// branches beyond what the compiler generates for the nil check.
type Trace struct {
	ID     uint64        // admission sequence number (0 until admitted)
	TID    uint64        // wire trace id (*TID annotation); 0 = unpropagated
	SpanID uint32        // span id within the parent trace (0 = root)
	Cmd    string        // wire command, upper-case
	Engine string        // target engine ("" when the command has none)
	Key    string        // key field as received ("" when none)
	Begin  time.Time     // request start (per command, not per burst)
	Dur    time.Duration // wall latency, set by Collector.End/Observe
	Result string        // first reply token: OK, HIT, MISS, ERR, ...

	// Lookup summary, recorded by the caram layer.
	Home  uint32 // home bucket the index generator selected
	Reach int32  // home bucket's recorded overflow reach
	Rows  int32  // rows accessed (this request's AMAL contribution)
	Found bool

	Events []Event

	ident   []byte // reusable backing store for Cmd, Engine and Key
	owned   bool   // Cmd, Engine and Key live in ident
	sampled bool   // chosen by the 1-in-N sampler at Begin
	minted  bool   // TID was minted here (Mint), not received from a parent
}

// maxIdentReuse caps the identity buffer a pooled trace keeps: a
// request with a huge key (a long TINSERT text) must not pin that much
// memory in every pooled trace it passes through.
const maxIdentReuse = 1 << 10

// Enabled reports whether the trace is live. It is the idiomatic guard
// for work that only matters when tracing (building strings, summing
// aggregates); plain recording calls don't need it.
func (t *Trace) Enabled() bool { return t != nil }

// Request records the command identity. The strings may be substrings
// of the request line: admission copies them (the command upper-cased)
// into the trace's reusable buffer, so a retained trace does not pin a
// connection buffer and an unretained one costs no copy.
func (t *Trace) Request(cmd, engine, key string) {
	if t == nil {
		return
	}
	t.Cmd, t.Engine, t.Key, t.owned = cmd, engine, key, false
}

// RequestBytes is Request for callers holding the request line in a
// buffer that is reused before the trace ends (the router): the
// command (upper-cased), engine and key are copied into the trace's
// reusable buffer at once.
func (t *Trace) RequestBytes(cmd, engine, key []byte) {
	if t == nil {
		return
	}
	setIdent(t, cmd, engine, key)
}

// setIdent copies the identity into t.ident and points Cmd, Engine and
// Key at the copy.
func setIdent[S string | []byte](t *Trace, cmd, engine, key S) {
	b := append(t.ident[:0], cmd...)
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			b[i] = c - ('a' - 'A')
		}
	}
	b = append(b, engine...)
	b = append(b, key...)
	t.ident, t.owned = b, true
	ce, ee := len(cmd), len(cmd)+len(engine)
	t.Cmd, t.Engine, t.Key = view(b[:ce]), view(b[ce:ee]), view(b[ee:])
}

// view returns b as a string without copying. The identity strings
// alias t.ident, which is only rewritten once the trace is recycled;
// no one reads a trace after that (readers hold copies).
func view(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// SetWire joins this trace to a wire trace id received from a parent
// tier: the server records the (*TID <id>/<span>) annotation here. A
// nonzero TID set this way makes the trace retainable in the
// collector's tagged ring, so the parent can fetch it later with
// TRACE GET.
func (t *Trace) SetWire(tid uint64, span uint32) {
	if t == nil {
		return
	}
	t.TID, t.SpanID, t.minted = tid, span, false
}

// Mint gives the trace a fresh wire id of its own, once, and returns
// it: the router tags the calls it forwards with it. Unlike SetWire, a
// minted id does not make the trace tagged-retainable — no parent tier
// knows the id, so nothing would ever fetch the trace by it. Slow and
// sampled traces are still retained and findable by their minted id.
func (t *Trace) Mint() uint64 {
	if t == nil {
		return 0
	}
	if t.TID == 0 {
		t.TID, t.minted = NewTraceID(), true
	}
	return t.TID
}

// Add appends one pre-built event. The typed recorders above cover the
// engine path; Add is the generic seam for router-side events whose
// field mix (backend index, child span id, burst size) has no
// dedicated recorder.
func (t *Trace) Add(e Event) {
	if t == nil {
		return
	}
	t.Events = append(t.Events, e)
}

// SetResult records the first token of the reply. r is retained as
// is, so it must not alias a reusable buffer (the servers pass interned
// constants).
func (t *Trace) SetResult(r string) {
	if t == nil {
		return
	}
	t.Result = r
}

// Probe records one bucket probe of the lookup chain.
func (t *Trace) Probe(bucket uint32, displacement, slotsTested, matches int, hit bool) {
	if t == nil {
		return
	}
	t.Events = append(t.Events, Event{
		Kind:         KindProbe,
		Bucket:       bucket,
		Displacement: int32(displacement),
		SlotsTested:  int32(slotsTested),
		Matches:      int32(matches),
		Overflow:     displacement > 0,
		Hit:          hit,
	})
}

// Overflow records the parallel overflow-CAM search and its outcome.
func (t *Trace) Overflow(hit bool) {
	if t == nil {
		return
	}
	t.Events = append(t.Events, Event{Kind: KindOverflow, Hit: hit})
}

// Ecc records a per-row error-coding event: correctedBits bits fixed
// in place on bucket, or (quarantined=true) the row taken out of
// service as uncorrectable.
func (t *Trace) Ecc(bucket uint32, correctedBits int, quarantined bool) {
	if t == nil {
		return
	}
	t.Events = append(t.Events, Event{
		Kind:    KindEcc,
		Bucket:  bucket,
		Matches: int32(correctedBits),
		Hit:     quarantined,
	})
}

// Retries records how many torn seqlock snapshots the lock-free
// search path re-read while serving this request. Zero retries emit
// nothing, so uncontended requests trace identically with either
// read path.
func (t *Trace) Retries(n int) {
	if t == nil || n == 0 {
		return
	}
	t.Events = append(t.Events, Event{Kind: KindRetries, Matches: int32(n)})
}

// Match records the match kernel's aggregate work for the lookup.
func (t *Trace) Match(slotsTested, matches, passes int) {
	if t == nil {
		return
	}
	t.Events = append(t.Events, Event{
		Kind:        KindMatch,
		SlotsTested: int32(slotsTested),
		Matches:     int32(matches),
		Passes:      int32(passes),
	})
}

// Lookup records the caram-level lookup summary.
func (t *Trace) Lookup(home uint32, reach, rows int, found bool) {
	if t == nil {
		return
	}
	t.Home, t.Reach, t.Rows, t.Found = home, int32(reach), int32(rows), found
}

// Span records a timed stage that started at start and ends now.
// Callers take the start timestamp only when the trace is enabled:
//
//	var start time.Time
//	if tr.Enabled() { start = time.Now() }
//	... stage ...
//	tr.Span(trace.KindLockWait, start)
func (t *Trace) Span(k Kind, start time.Time) {
	if t == nil {
		return
	}
	t.Events = append(t.Events, Event{
		Kind:   k,
		Offset: start.Sub(t.Begin),
		Dur:    time.Since(start),
	})
}

// SpanDur records a timed stage with an explicit duration.
func (t *Trace) SpanDur(k Kind, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.Events = append(t.Events, Event{Kind: k, Offset: start.Sub(t.Begin), Dur: d})
}

// ProbeEvents calls fn for each KindProbe event in record order.
func (t *Trace) ProbeEvents(fn func(Event)) {
	if t == nil {
		return
	}
	for _, e := range t.Events {
		if e.Kind == KindProbe {
			fn(e)
		}
	}
}

// EventOf returns the first event of the given kind.
func (t *Trace) EventOf(k Kind) (Event, bool) {
	if t == nil {
		return Event{}, false
	}
	for _, e := range t.Events {
		if e.Kind == k {
			return e, true
		}
	}
	return Event{}, false
}

// End stamps the trace's wall latency. The Collector calls it; EXPLAIN
// calls it directly on its forced trace.
func (t *Trace) End() {
	if t == nil {
		return
	}
	t.Dur = time.Since(t.Begin)
}

// detach moves the identity into the trace's own buffer, so a retained
// trace does not alias the caller's request line.
func (t *Trace) detach() {
	if !t.owned {
		setIdent(t, t.Cmd, t.Engine, t.Key)
	}
}

// reset clears the trace for pooled reuse, keeping the event array
// and the identity buffer.
func (t *Trace) reset() {
	events, ident := t.Events[:0], t.ident[:0]
	if cap(ident) > maxIdentReuse {
		ident = nil
	}
	*t = Trace{Events: events, ident: ident}
}

// clone returns a deep copy sharing no memory with t, so it stays
// valid after t is recycled. Result needs no copy: it is always an
// interned constant or an owned string.
func (t *Trace) clone() *Trace {
	c := *t
	c.Cmd, c.Engine, c.Key = strings.Clone(t.Cmd), strings.Clone(t.Engine), strings.Clone(t.Key)
	c.Events = slices.Clone(t.Events)
	c.ident = nil
	return &c
}

// New returns a standalone trace beginning now — the forced-on form
// EXPLAIN uses, independent of any collector.
func New() *Trace {
	return &Trace{Begin: time.Now(), Events: make([]Event, 0, 8)}
}
