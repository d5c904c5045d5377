package trace

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"testing/quick"
	"time"
)

func TestNilSafety(t *testing.T) {
	var c *Collector
	var tr *Trace
	if c.Enabled() || tr.Enabled() {
		t.Fatal("nil collector/trace report enabled")
	}
	if got := c.Begin(); got != nil {
		t.Fatalf("nil collector Begin = %v, want nil", got)
	}
	if c.End(nil) {
		t.Fatal("nil End reported slow")
	}
	if c.SlowAdmit(time.Hour) {
		t.Fatal("nil collector admitted to slowlog")
	}
	if c.Seen() != 0 || c.SampleN() != 0 || c.Sampled() != nil || c.Slow() != nil {
		t.Fatal("nil collector accessors not zero")
	}
	if _, ok := c.SlowThreshold(); ok {
		t.Fatal("nil collector has a slow threshold")
	}
	// Every recording method must no-op on a nil trace.
	tr.Request("SEARCH", "db", "1")
	tr.SetResult("HIT")
	tr.Probe(1, 0, 4, 1, true)
	tr.Overflow(false)
	tr.Match(4, 1, 1)
	tr.Lookup(1, 0, 1, true)
	tr.Span(KindParse, time.Now())
	tr.SpanDur(KindEncode, time.Now(), time.Microsecond)
	tr.ProbeEvents(func(Event) { t.Fatal("nil trace yielded a probe") })
	if _, ok := tr.EventOf(KindMatch); ok {
		t.Fatal("nil trace yielded an event")
	}
	tr.End()
}

// TestSlowAdmitProperty is the admission property from the issue: a
// request enters the slowlog exactly when its latency is strictly
// greater than the threshold. Driven by testing/quick over random
// (threshold, latency) pairs, checked both against the predicate and
// against the ring the trace actually lands in.
func TestSlowAdmitProperty(t *testing.T) {
	prop := func(thrUs uint16, durUs uint32) bool {
		thr := time.Duration(thrUs) * time.Microsecond
		d := time.Duration(durUs) * time.Microsecond
		c := NewCollector(Config{Slowlog: thr, Ring: 4})
		tr := c.Begin()
		before := c.Slow().Total()
		slow := c.Observe(tr, d)
		want := d > thr
		if slow != want {
			t.Logf("thr=%v d=%v: slow=%v want %v", thr, d, slow, want)
			return false
		}
		if c.SlowAdmit(d) != want {
			return false
		}
		admitted := c.Slow().Total() - before
		return admitted == map[bool]uint64{true: 1, false: 0}[want]
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSlowlogDisabledByNegativeThreshold(t *testing.T) {
	c := NewCollector(Config{Slowlog: -1})
	if _, ok := c.SlowThreshold(); ok {
		t.Fatal("negative threshold reports enabled")
	}
	if c.SlowAdmit(time.Hour) {
		t.Fatal("disabled slowlog admitted")
	}
	tr := c.Begin()
	if c.Observe(tr, time.Hour) {
		t.Fatal("disabled slowlog retained a trace")
	}
	if c.Slow().Len() != 0 {
		t.Fatal("disabled slowlog ring non-empty")
	}
}

func TestSamplingOneInN(t *testing.T) {
	c := NewCollector(Config{SampleN: 3, Slowlog: -1, Ring: 16})
	for i := 0; i < 10; i++ {
		tr := c.Begin()
		tr.Request("SEARCH", "db", "1")
		if c.Observe(tr, time.Microsecond) {
			t.Fatal("sampled trace reported slow")
		}
	}
	if got := c.Sampled().Len(); got != 3 { // requests 3, 6, 9
		t.Fatalf("sampled ring Len = %d, want 3", got)
	}
	if c.Seen() != 10 {
		t.Fatalf("Seen = %d, want 10", c.Seen())
	}
	for _, tr := range c.Sampled().Snapshot(nil, 0) {
		if tr.Cmd != "SEARCH" || tr.Engine != "db" {
			t.Fatalf("sampled trace lost identity: %+v", tr)
		}
	}
}

func TestSlowlogWinsOverSampling(t *testing.T) {
	c := NewCollector(Config{SampleN: 1, Slowlog: 0, Ring: 4})
	tr := c.Begin()
	if !c.Observe(tr, time.Microsecond) {
		t.Fatal("above-threshold trace not slow")
	}
	if c.Slow().Len() != 1 || c.Sampled().Len() != 0 {
		t.Fatalf("slow=%d sampled=%d, want 1/0 (slowlog wins)", c.Slow().Len(), c.Sampled().Len())
	}
}

// TestPoolRecycling checks the unadmitted path really recycles: a trace
// that misses both policies comes back from the pool with its identity
// cleared and its event storage empty.
func TestPoolRecycling(t *testing.T) {
	c := NewCollector(Config{Slowlog: time.Hour})
	tr := c.Begin()
	tr.Request("SEARCH", "db", "dead")
	tr.Probe(1, 0, 4, 1, true)
	tr.Match(4, 1, 1)
	if c.Observe(tr, time.Microsecond) {
		t.Fatal("trace below threshold admitted")
	}
	// sync.Pool gives no guarantees, but single-goroutine get-after-put
	// returns the same object in practice; tolerate a fresh one.
	tr2 := c.Begin()
	if tr2.Cmd != "" || tr2.Engine != "" || tr2.Key != "" || tr2.Result != "" {
		t.Fatalf("recycled trace keeps identity: %+v", tr2)
	}
	if len(tr2.Events) != 0 {
		t.Fatalf("recycled trace keeps %d events", len(tr2.Events))
	}
	c.Observe(tr2, 0)
}

// TestAdmittedTraceDetaches checks that a retained trace does not alias
// the request line it was parsed from: Request copies the strings.
func TestAdmittedTraceDetaches(t *testing.T) {
	c := NewCollector(Config{Slowlog: 0})
	line := string([]byte("SEARCH db dead")) // force a fresh backing array
	tr := c.Begin()
	tr.Request(line[:6], line[7:9], line[10:])
	tr.SetResult("HIT")
	if !c.Observe(tr, time.Microsecond) {
		t.Fatal("trace not admitted")
	}
	got := c.Slow().Snapshot(nil, 1)
	if len(got) != 1 {
		t.Fatal("admitted trace missing from ring")
	}
	if got[0].Cmd != "SEARCH" || got[0].Engine != "db" || got[0].Key != "dead" {
		t.Fatalf("retained identity wrong: %+v", got[0])
	}
}

func TestTraceEventAccessors(t *testing.T) {
	tr := New()
	tr.Probe(5, 0, 4, 0, false)
	tr.Probe(6, 1, 2, 1, true)
	tr.Overflow(false)
	tr.Match(6, 1, 2)
	tr.Lookup(5, 1, 2, true)

	var probes []Event
	tr.ProbeEvents(func(e Event) { probes = append(probes, e) })
	if len(probes) != 2 {
		t.Fatalf("ProbeEvents yielded %d, want 2", len(probes))
	}
	if probes[0].Bucket != 5 || probes[0].Overflow || probes[1].Bucket != 6 || !probes[1].Overflow || !probes[1].Hit {
		t.Fatalf("probe payloads wrong: %+v", probes)
	}
	m, ok := tr.EventOf(KindMatch)
	if !ok || m.SlotsTested != 6 || m.Matches != 1 || m.Passes != 2 {
		t.Fatalf("match event = %+v ok=%v", m, ok)
	}
	if o, ok := tr.EventOf(KindOverflow); !ok || o.Hit {
		t.Fatalf("overflow event = %+v ok=%v", o, ok)
	}
	if tr.Home != 5 || tr.Reach != 1 || tr.Rows != 2 || !tr.Found {
		t.Fatalf("lookup summary wrong: %+v", tr)
	}
	for k := KindParse; k <= KindEncode; k++ {
		if k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if Kind(255).String() != "unknown" {
		t.Fatal("out-of-range kind not unknown")
	}
}

func TestHandlerJSON(t *testing.T) {
	c := NewCollector(Config{SampleN: 2, Slowlog: 0, Ring: 8})
	tr := c.Begin()
	tr.Request("SEARCH", "db", "dead")
	tr.SetResult("HIT")
	tr.Probe(1, 0, 4, 1, true)
	tr.Match(4, 1, 1)
	tr.Lookup(1, 0, 1, true)
	tr.Span(KindEncode, tr.Begin)
	if !c.Observe(tr, 5*time.Microsecond) {
		t.Fatal("trace not admitted")
	}

	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?n=4", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var v struct {
		Policy struct {
			Sample    int   `json:"sample"`
			SlowlogUs int64 `json:"slowlog_us"`
			Ring      int   `json:"ring"`
		} `json:"policy"`
		Seen    uint64 `json:"seen"`
		Slowlog struct {
			Len     int `json:"len"`
			Entries []struct {
				ID     uint64  `json:"id"`
				Cmd    string  `json:"cmd"`
				Engine string  `json:"engine"`
				Key    string  `json:"key"`
				Us     float64 `json:"us"`
				Result string  `json:"result"`
				Home   uint32  `json:"home"`
				Rows   int32   `json:"rows"`
				Found  bool    `json:"found"`
				Probes []struct {
					Bucket  uint32 `json:"bucket"`
					Slots   int32  `json:"slots"`
					Matches int32  `json:"matches"`
					Hit     bool   `json:"hit"`
				} `json:"probes"`
				Spans []struct {
					Kind string `json:"kind"`
				} `json:"spans"`
			} `json:"entries"`
		} `json:"slowlog"`
		Sampled struct {
			Len     int   `json:"len"`
			Entries []any `json:"entries"`
		} `json:"sampled"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("handler output not JSON: %v\n%s", err, rec.Body.String())
	}
	if v.Policy.Sample != 2 || v.Policy.SlowlogUs != 0 || v.Policy.Ring != 8 {
		t.Fatalf("policy = %+v", v.Policy)
	}
	if v.Seen != 1 || v.Slowlog.Len != 1 || len(v.Slowlog.Entries) != 1 {
		t.Fatalf("retention: seen=%d slowlog.len=%d entries=%d", v.Seen, v.Slowlog.Len, len(v.Slowlog.Entries))
	}
	e := v.Slowlog.Entries[0]
	if e.Cmd != "SEARCH" || e.Engine != "db" || e.Key != "dead" || e.Result != "HIT" || !e.Found {
		t.Fatalf("entry identity: %+v", e)
	}
	if e.Us != 5 || e.Rows != 1 || e.Home != 1 {
		t.Fatalf("entry measurements: %+v", e)
	}
	if len(e.Probes) != 1 || e.Probes[0].Bucket != 1 || e.Probes[0].Slots != 4 || !e.Probes[0].Hit {
		t.Fatalf("entry probes: %+v", e.Probes)
	}
	sawMatch, sawEncode := false, false
	for _, s := range e.Spans {
		switch s.Kind {
		case "match":
			sawMatch = true
		case "encode":
			sawEncode = true
		}
	}
	if !sawMatch || !sawEncode {
		t.Fatalf("entry spans missing match/encode: %+v", e.Spans)
	}
	if v.Sampled.Len != 0 || len(v.Sampled.Entries) != 0 {
		t.Fatalf("sampled ring should be empty: %+v", v.Sampled)
	}

	// The nil collector serves the disabled sentinel.
	rec = httptest.NewRecorder()
	(*Collector)(nil).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Body.String() != "{\"disabled\":true}\n" {
		t.Fatalf("nil collector handler = %q", rec.Body.String())
	}
}
