package cluster

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"caram/internal/cam"
	"caram/internal/caram"
	"caram/internal/hash"
	"caram/internal/server"
	"caram/internal/subsystem"
	"caram/internal/trace"
)

// startTracedBackend boots a server whose engines carry an overflow
// CAM — so reads take the locked path and record lock_wait spans —
// with a slowlog-0 collector that admits every request.
func startTracedBackend(t testing.TB, engines ...string) *testBackend {
	t.Helper()
	sub := subsystem.New(0)
	for _, name := range engines {
		sl := caram.MustNew(caram.Config{
			IndexBits: 6,
			RowBits:   4*(1+64+32) + 8,
			KeyBits:   64,
			DataBits:  32,
			Index:     hash.NewMultShift(6),
		})
		ovf := cam.MustNew(cam.Config{Entries: 32, KeyBits: 64})
		if err := sub.AddEngine(&subsystem.Engine{Name: name, Main: sl, Overflow: ovf}); err != nil {
			t.Fatal(err)
		}
	}
	col := trace.NewCollector(trace.Config{Slowlog: 0, Ring: 64})
	srv := server.New(sub, server.WithTracing(col))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck // returns when the server closes
	t.Cleanup(func() { srv.Close() })
	return &testBackend{srv: srv, addr: l.Addr().String()}
}

// tracedCluster is the standard fixture for fleet-observability tests:
// two traced backends behind a router whose own collector admits every
// request to its slowlog.
func tracedCluster(t testing.TB) (*Router, *trace.Collector) {
	t.Helper()
	bks := []*testBackend{startTracedBackend(t, "db"), startTracedBackend(t, "db")}
	col := trace.NewCollector(trace.Config{Slowlog: 0, Ring: 64})
	rt, _ := testRouter(t, bks, func(cfg *RouterConfig) { cfg.Tracing = col })
	return rt, col
}

// kvmap parses a "CMD k=v k=v ..." reply line into a map.
func kvmap(t *testing.T, line string) map[string]string {
	t.Helper()
	m := make(map[string]string)
	for _, f := range strings.Fields(line)[1:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		m[k] = v
	}
	return m
}

// Mirrors of the stitched /debug/traces JSON, decode-side.
type sjHop struct {
	Kind    string `json:"kind"`
	Backend uint32 `json:"backend"`
	Span    uint32 `json:"span"`
}

type sjSpan struct {
	Kind string `json:"kind"`
}

type sjTrace struct {
	Cmd      string            `json:"cmd"`
	Key      string            `json:"key"`
	TID      string            `json:"tid"`
	Span     uint32            `json:"span"`
	Expected float64           `json:"expected_rows"`
	Probes   []json.RawMessage `json:"probes"`
	Spans    []sjSpan          `json:"spans"`
	Hops     []sjHop           `json:"hops"`
}

type sjChild struct {
	Backend string          `json:"backend"`
	Span    uint32          `json:"span"`
	Trace   json.RawMessage `json:"trace"`
	Error   string          `json:"error"`
}

type sjEntry struct {
	Router   json.RawMessage `json:"router"`
	Children []sjChild       `json:"children"`
}

type sjTop struct {
	Seen    uint64    `json:"seen"`
	Slowlog []sjEntry `json:"slowlog"`
	Tagged  []sjEntry `json:"tagged"`
	Sampled []sjEntry `json:"sampled"`
}

// TestClusterTracingEndToEnd is the acceptance test for the tentpole:
// a slow cluster SEARCH through a real router and two real backends is
// retrievable from the router as one stitched trace — router spans
// (queue wait, backend RTT) and backend spans (lock wait, probe chain,
// §3.4 expected-rows) side by side — and shows up source-tagged in the
// fleet SLOWLOG.
func TestClusterTracingEndToEnd(t *testing.T) {
	rt, _ := tracedCluster(t)
	got := rdrive(t, rt, "INSERT db dead 42", "SEARCH db dead")
	if got[0] != "OK" || !strings.HasPrefix(got[1], "HIT") {
		t.Fatalf("setup replies: %q", got)
	}

	// Fleet SLOWLOG: backend entries and the router's own, node-tagged.
	slow := rdrive(t, rt, "SLOWLOG GET")[0]
	if !strings.HasPrefix(slow, "SLOWLOG n=") {
		t.Fatalf("fleet slowlog: %q", slow)
	}
	for _, want := range []string{" node=router", " node=b", "cmd=SEARCH", "cmd=INSERT"} {
		if !strings.Contains(slow, want) {
			t.Errorf("fleet slowlog missing %q: %q", want, slow)
		}
	}

	// Stitched /debug/traces: find the router's SEARCH trace.
	rec := httptest.NewRecorder()
	rt.TraceHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	var top sjTop
	if err := json.Unmarshal(rec.Body.Bytes(), &top); err != nil {
		t.Fatalf("stitched JSON: %v\n%s", err, rec.Body.String())
	}
	var entry *sjEntry
	var router sjTrace
	for i := range top.Slowlog {
		var cand sjTrace
		if err := json.Unmarshal(top.Slowlog[i].Router, &cand); err != nil {
			t.Fatal(err)
		}
		if cand.Cmd == "SEARCH" && cand.Key == "dead" {
			entry, router = &top.Slowlog[i], cand
			break
		}
	}
	if entry == nil {
		t.Fatalf("no SEARCH trace in stitched slowlog:\n%s", rec.Body.String())
	}
	if router.TID == "" {
		t.Fatal("router SEARCH trace has no wire trace id")
	}
	kinds := make(map[string]bool)
	for _, h := range router.Hops {
		kinds[h.Kind] = true
	}
	for _, want := range []string{"route", "queue_wait", "backend_rtt", "burst", "breaker"} {
		if !kinds[want] {
			t.Errorf("router trace missing %s hop: %+v", want, router.Hops)
		}
	}
	if len(entry.Children) == 0 {
		t.Fatal("stitched entry has no backend children")
	}
	child := entry.Children[0]
	if child.Error != "" {
		t.Fatalf("child fetch failed: %s", child.Error)
	}
	if !strings.HasPrefix(child.Backend, "b") {
		t.Errorf("child backend label: %q", child.Backend)
	}
	var ct sjTrace
	if err := json.Unmarshal(child.Trace, &ct); err != nil {
		t.Fatalf("child trace JSON: %v\n%s", err, child.Trace)
	}
	if ct.Cmd != "SEARCH" || ct.TID != router.TID || ct.Span != child.Span {
		t.Errorf("child identity: cmd=%q tid=%q span=%d, want SEARCH/%q/%d",
			ct.Cmd, ct.TID, ct.Span, router.TID, child.Span)
	}
	if len(ct.Probes) == 0 {
		t.Error("child trace has no probe chain")
	}
	if ct.Expected <= 0 {
		t.Errorf("child trace expected_rows=%v, want the §3.4 analytic value > 0", ct.Expected)
	}
	lockWait := false
	for _, sp := range ct.Spans {
		if sp.Kind == "lock_wait" {
			lockWait = true
		}
	}
	if !lockWait {
		t.Errorf("child trace has no lock_wait span (overflow-CAM engines read locked): %+v", ct.Spans)
	}
}

func TestRouterSlowlogAggregation(t *testing.T) {
	rt, _ := tracedCluster(t)
	rdrive(t, rt, "INSERT db dead 42", "SEARCH db dead", "SEARCH db beef")

	lenLine := rdrive(t, rt, "SLOWLOG LEN")[0]
	m := kvmap(t, lenLine)
	if !strings.HasPrefix(lenLine, "SLOWLOG len=") || m["len"] == "0" {
		t.Fatalf("fleet SLOWLOG LEN: %q", lenLine)
	}

	// GET n caps the merged output, GET 0 yields none.
	if got := rdrive(t, rt, "SLOWLOG GET 2")[0]; !strings.HasPrefix(got, "SLOWLOG n=2 ") {
		t.Errorf("SLOWLOG GET 2: %q", got)
	}
	if got := rdrive(t, rt, "SLOWLOG GET 0")[0]; got != "SLOWLOG n=0" {
		t.Errorf("SLOWLOG GET 0: %q", got)
	}

	// Entries are merged slowest-first across nodes.
	full := rdrive(t, rt, "SLOWLOG GET")[0]
	var last int64 = 1 << 62
	for _, f := range strings.Fields(full)[1:] {
		if v, ok := strings.CutPrefix(f, "us="); ok {
			var us int64
			fmt.Sscanf(v, "%d", &us)
			if us > last {
				t.Fatalf("slowlog not sorted by latency: %q", full)
			}
			last = us
		}
	}

	// RESET clears every node's ring (and the router's own).
	if got := rdrive(t, rt, "SLOWLOG RESET")[0]; got != "OK" {
		t.Fatalf("SLOWLOG RESET: %q", got)
	}
	after := kvmap(t, rdrive(t, rt, "SLOWLOG LEN")[0])
	// The RESET and LEN requests themselves are traced (slowlog 0), so
	// a handful of fresh entries is fine — the pre-reset bulk is gone.
	if after["len"] >= m["len"] && len(after["len"]) >= len(m["len"]) {
		t.Errorf("SLOWLOG RESET did not shrink the fleet slowlog: %s -> %s", m["len"], after["len"])
	}
}

func TestRouterMetricsAggregation(t *testing.T) {
	rt, _ := tracedCluster(t)
	rdrive(t, rt, "INSERT db dead 42", "SEARCH db dead", "SEARCH db beef")

	all := rdrive(t, rt, "METRICS")[0]
	if !strings.HasPrefix(all, "METRICS backends=2 ops=") {
		t.Fatalf("fleet METRICS: %q", all)
	}
	am := kvmap(t, all)
	if am["router_ops"] == "" || am["router_errors"] == "" {
		t.Errorf("fleet METRICS missing router totals: %q", all)
	}

	eng := rdrive(t, rt, "METRICS db")[0]
	if !strings.HasPrefix(eng, "METRICS engine=db ") {
		t.Fatalf("engine METRICS: %q", eng)
	}
	em := kvmap(t, eng)
	if em["insert"] != "1" || em["search"] != "2" {
		t.Errorf("fleet counters insert=%s search=%s, want 1 and 2: %q",
			em["insert"], em["search"], eng)
	}
	if em["n"] != "1" {
		t.Errorf("fleet records n=%s, want 1: %q", em["n"], eng)
	}

	lat := rdrive(t, rt, "METRICS db LATENCY search")[0]
	if !strings.HasPrefix(lat, "METRICS engine=db op=search n=2 err=0 mean_us=") ||
		!strings.Contains(lat, " p50_us=") || !strings.Contains(lat, " max_us=") {
		t.Errorf("fleet LATENCY merge: %q", lat)
	}

	hist := rdrive(t, rt, "METRICS db HIST search")[0]
	hm := kvmap(t, hist)
	if !strings.HasPrefix(hist, "METRICS engine=db op=search n=2 ") || hm["buckets"] == "" {
		t.Fatalf("fleet HIST merge: %q", hist)
	}
	var total int64
	for _, c := range strings.Split(hm["buckets"], ",") {
		var v int64
		fmt.Sscanf(c, "%d", &v)
		total += v
	}
	if total != 2 {
		t.Errorf("fleet HIST bucket mass %d, want 2 (bucket-wise sum across shards)", total)
	}
}

func TestRouterTraceGet(t *testing.T) {
	rt, col := tracedCluster(t)
	rdrive(t, rt, "INSERT db dead 42", "SEARCH db dead")

	// Miss: no node holds this id; the backend notfound ERR propagates.
	if got := rdrive(t, rt, "TRACE GET deadbeef")[0]; got != "ERR trace: notfound" {
		t.Errorf("TRACE GET miss: %q", got)
	}

	// Router-side hit: the router's own trace answers locally.
	var tid string
	for _, tr := range col.Slow().Snapshot(nil, 0) {
		if tr.Cmd == "SEARCH" && tr.TID != 0 {
			tid = fmt.Sprintf("%x", tr.TID)
			break
		}
	}
	if tid == "" {
		t.Fatal("router retained no tagged SEARCH trace")
	}
	got := rdrive(t, rt, "TRACE GET "+tid)[0]
	if !strings.HasPrefix(got, "TRACE {") || !strings.Contains(got, `"cmd":"SEARCH"`) {
		t.Fatalf("TRACE GET router hit: %q", got)
	}

	// Child hit: span 1 lives only on the owning backend; the router
	// misses locally and scatters.
	child := rdrive(t, rt, "TRACE GET "+tid+"/1")[0]
	if !strings.HasPrefix(child, "TRACE {") || !strings.Contains(child, `"span":1`) {
		t.Fatalf("TRACE GET child: %q", child)
	}
	if !strings.Contains(child, `"expected_rows":`) {
		t.Errorf("child trace lacks §3.4 expected_rows: %q", child)
	}

	// Grammar errors are the backend's to render.
	if got := rdrive(t, rt, "TRACE GET")[0]; !strings.HasPrefix(got, "ERR usage: TRACE GET") {
		t.Errorf("TRACE usage: %q", got)
	}
}

// TestRouterRootTracesRecycled: under a slowlog that nothing exceeds
// (the shipped default in miniature), the router still tags every
// forward so the backend keeps its child trace, but its own root
// trace is recycled — the id it minted names no parent, so no ring
// of the router retains it.
func TestRouterRootTracesRecycled(t *testing.T) {
	bks := []*testBackend{startTracedBackend(t, "db"), startTracedBackend(t, "db")}
	col := trace.NewCollector(trace.Config{Slowlog: time.Hour, Ring: 64})
	rt, _ := testRouter(t, bks, func(cfg *RouterConfig) { cfg.Tracing = col })
	if got := rdrive(t, rt, "INSERT db dead 42", "SEARCH db dead"); got[1] != "HIT 0:0000000000000042" {
		t.Fatalf("replies: %q", got)
	}
	if col.Seen() < 2 {
		t.Fatalf("router traced %d requests, want 2", col.Seen())
	}
	if n := col.Slow().Total() + col.Tagged().Total() + col.Sampled().Total(); n != 0 {
		t.Fatalf("router retained %d root traces, want 0", n)
	}
	children := 0
	for _, b := range bks {
		for _, tr := range b.srv.Tracing().Slow().Snapshot(nil, 0) {
			if tr.TID != 0 && tr.SpanID == 1 {
				children++
			}
		}
	}
	if children != 2 {
		t.Fatalf("backends kept %d tagged child traces, want 2 (INSERT and SEARCH)", children)
	}
}

// TestRouterTracedTransparency: tracing must not change a single
// forwarded reply byte. Two routers over the same backends — one
// traced, one not — must answer identically.
func TestRouterTracedTransparency(t *testing.T) {
	bks := []*testBackend{startTracedBackend(t, "db"), startTracedBackend(t, "db")}
	col := trace.NewCollector(trace.Config{Slowlog: 0, Ring: 64})
	traced, _ := testRouter(t, bks, func(cfg *RouterConfig) { cfg.Tracing = col })
	plain, _ := testRouter(t, bks, nil)

	if got := rdrive(t, traced, "INSERT db dead 42")[0]; got != "OK" {
		t.Fatalf("INSERT through traced router: %q", got)
	}
	reqs := []string{
		"SEARCH db dead",
		"SEARCH db beef",
		"MSEARCH db dead db beef",
		"SEARCH db",
		"EXPLAIN SEARCH db dead",
		"nonsense request",
	}
	want := rdrive(t, plain, reqs...)
	got := rdrive(t, traced, reqs...)
	for i := range reqs {
		// EXPLAIN runs a fresh lookup each time; its measured rows are
		// identical here, but guard the comparison on the stable ones.
		if got[i] != want[i] {
			t.Errorf("reply %d diverged under tracing:\n  traced: %q\n  plain:  %q", i, got[i], want[i])
		}
	}
}

// TestRouterHealthMergeOrder: scatter merges visit backends in address
// order, so HEALTH output does not depend on how -backends was
// spelled. Two routers over the same fleet, opposite config order,
// must render identical rosters.
func TestRouterHealthMergeOrder(t *testing.T) {
	b0 := startBackend(t, "db", "aux")
	b1 := startBackend(t, "db", "zed")
	mk := func(bks ...*testBackend) *Router {
		backends := make([]Backend, len(bks))
		labels := make([]string, len(bks))
		for i, b := range bks {
			backends[i] = Backend{Label: b.addr, Addr: b.addr} // production labeling
			labels[i] = b.addr
		}
		rt, err := NewRouter(RouterConfig{Backends: backends, Metrics: nil})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rt.Close() })
		return rt
	}
	fwd := mk(b0, b1)
	rev := mk(b1, b0)
	for _, req := range []string{"HEALTH", "HEALTH db", "ENGINES"} {
		a := rdrive(t, fwd, req)[0]
		b := rdrive(t, rev, req)[0]
		if req == "ENGINES" {
			// ENGINES unions in config order by contract; only the
			// address-ordered merges must be spelling-independent.
			continue
		}
		if a != b {
			t.Errorf("%s depends on backend config order:\n  fwd: %q\n  rev: %q", req, a, b)
		}
		if !strings.HasPrefix(a, "HEALTH") {
			t.Errorf("%s: %q", req, a)
		}
	}
}

// TestRouterUntracedLegacyReplies: without a collector the router's
// SLOWLOG/METRICS answers are the pre-tracing local forms, byte-exact
// (the golden session pins them too; this is the direct statement).
func TestRouterUntracedLegacyReplies(t *testing.T) {
	bks := []*testBackend{startBackend(t, "db"), startBackend(t, "db")}
	rt, _ := testRouter(t, bks, nil)
	if got := rdrive(t, rt, "SLOWLOG LEN")[0]; got != "ERR slowlog: per-backend state; query backends directly" {
		t.Errorf("untraced SLOWLOG: %q", got)
	}
	if got := rdrive(t, rt, "METRICS")[0]; !strings.HasPrefix(got, "METRICS backends=2 ops=") ||
		strings.Contains(got, "router_ops") {
		t.Errorf("untraced METRICS: %q", got)
	}
	if got := rdrive(t, rt, "METRICS db")[0]; !strings.HasPrefix(got, "ERR metrics: engine \"db\" is key-sharded") {
		t.Errorf("untraced METRICS db: %q", got)
	}
}
