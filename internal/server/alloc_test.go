package server

import (
	"io"
	"log/slog"
	"testing"
	"time"

	"caram/internal/caram"
	"caram/internal/hash"
	"caram/internal/subsystem"
	"caram/internal/trace"
	"caram/internal/wal"
)

func allocServer(opts ...Option) *Server {
	sub := subsystem.New(0)
	sl := caram.MustNew(caram.Config{
		IndexBits: 6,
		RowBits:   4*(1+64+32) + 8,
		KeyBits:   64,
		DataBits:  32,
		Index:     hash.NewMultShift(6),
	})
	if err := sub.AddEngine(&subsystem.Engine{Name: "db", Main: sl}); err != nil {
		panic(err)
	}
	return New(sub, opts...)
}

// TestExecAppendSearchZeroAlloc guards the end-to-end request hot path:
// a SEARCH through parse → engine lock → word-parallel match → reply
// encode must not allocate when the caller reuses its reply buffer, on
// the uninstrumented and the default (instrumented) server alike. Run
// by `make alloc-guard` / `make ci`.
func TestExecAppendSearchZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    *Server
	}{
		{"uninstrumented", allocServer(WithoutMetrics())},
		{"instrumented", allocServer()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.s.Exec("INSERT db dead 42"); got != "OK" {
				t.Fatalf("INSERT: %q", got)
			}
			buf := make([]byte, 0, 64)
			if n := testing.AllocsPerRun(200, func() {
				buf = tc.s.ExecAppend(buf[:0], "SEARCH db dead")
				buf = tc.s.ExecAppend(buf[:0], "SEARCH db f00d")
			}); n != 0 {
				t.Fatalf("SEARCH ExecAppend allocated %.1f times per run, want 0", n)
			}
			if got := string(tc.s.ExecAppend(buf[:0], "SEARCH db dead")); got != "HIT 0:0000000000000042" {
				t.Fatalf("SEARCH reply = %q", got)
			}
		})
	}
}

// TestTypedExecAppendSearchZeroAlloc re-runs the zero-alloc guard on a
// server also hosting wire-created typed engines: registering lpm /
// pktclass / trigram engines must not add allocations to the exact
// engine's SEARCH hot path (the COW engine roster keeps dispatch to
// one atomic load), and the typed reads themselves stay allocation-free
// too — LPM's ranked LookupBest and the trigram key fold included.
func TestTypedExecAppendSearchZeroAlloc(t *testing.T) {
	s := allocServer()
	for _, req := range []string{
		"CREATE ENGINE ip TYPE lpm INDEXBITS 6 SLOTS 8",
		"CREATE ENGINE acl TYPE pktclass INDEXBITS 6 SLOTS 8",
		"CREATE ENGINE tri TYPE trigram INDEXBITS 6",
		"INSERT db dead 42",
		"MINSERT ip a000000 ffffff 801",
		"MINSERT ip a010000 ffff 1002",
		"TINSERT tri 2a the quick fox",
	} {
		if got := s.Exec(req); got != "OK" {
			t.Fatalf("%s: %q", req, got)
		}
	}
	buf := make([]byte, 0, 64)
	for _, tc := range []struct{ name, req string }{
		{"exact", "SEARCH db dead"},
		{"lpm", "SEARCH ip a010101"},
		{"trigram", "TSEARCH tri the quick fox"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if n := testing.AllocsPerRun(200, func() {
				buf = s.ExecAppend(buf[:0], tc.req)
			}); n != 0 {
				t.Fatalf("%s ExecAppend allocated %.1f times per run, want 0", tc.req, n)
			}
		})
	}
}

// TestWALExecAppendSearchZeroAlloc re-runs the zero-alloc guard with
// the durability layer attached: journaling is an insert-side cost,
// and SEARCH through a WAL-enabled server must stay allocation-free —
// the read hot path sees only a nil-journal check it never takes.
// Run by `make alloc-guard` / `make ci`.
func TestWALExecAppendSearchZeroAlloc(t *testing.T) {
	w, res, err := wal.Recover(t.TempDir(), nil, wal.Options{Sync: wal.SyncPolicy{Mode: wal.SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	s := allocServer(WithWAL(w, res.RosterLSN, 0))
	defer s.Close() //nolint:errcheck
	if got := s.Exec("INSERT db dead 42"); got != "OK" {
		t.Fatalf("INSERT: %q", got)
	}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(200, func() {
		buf = s.ExecAppend(buf[:0], "SEARCH db dead")
		buf = s.ExecAppend(buf[:0], "SEARCH db f00d")
	}); n != 0 {
		t.Fatalf("SEARCH with WAL enabled allocated %.1f times per run, want 0", n)
	}
	if got := string(s.ExecAppend(buf[:0], "SEARCH db dead")); got != "HIT 0:0000000000000042" {
		t.Fatalf("SEARCH reply = %q", got)
	}
}

// TestTaggedExecAppendZeroAlloc guards the backend half of a proxied
// request under the shipped caram-server tracing defaults: slowlog at
// 10 ms, sampling off, a logger attached. A *TID-tagged request is
// retained in the tagged ring, which hands the trace it evicts back to
// the pool, so once the ring has wrapped, tagged INSERT, SEARCH and
// DELETE allocate nothing.
func TestTaggedExecAppendZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector builds drop sync.Pool items by design; make alloc-guard runs this without -race")
	}
	col := trace.NewCollector(trace.Config{SampleN: 0, Slowlog: 10 * time.Millisecond})
	s := allocServer(WithTracing(col), WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))))
	steps := []struct{ req, want string }{
		{"*TID deadbeef/1 INSERT db dead 42", "OK"},
		{"*TID deadbeef/1 SEARCH db dead", "HIT 0:0000000000000042"},
		{"*TID deadbeef/1 SEARCH db f00d", "MISS"},
		{"*TID deadbeef/1 DELETE db dead", "OK"},
	}
	buf := make([]byte, 0, 64)
	for _, st := range steps {
		if buf = s.ExecAppend(buf[:0], st.req); string(buf) != st.want {
			t.Fatalf("%s: %q, want %q", st.req, buf, st.want)
		}
	}
	run := func() {
		for _, st := range steps {
			buf = s.ExecAppend(buf[:0], st.req)
		}
	}
	for i := 0; i < col.Tagged().Cap(); i++ { // wrap the tagged ring
		run()
	}
	before := col.Tagged().Total()
	if n := testing.AllocsPerRun(200, run); n != 0 {
		t.Fatalf("tagged INSERT/SEARCH/DELETE allocated %.1f times per run, want 0", n)
	}
	if kept := col.Tagged().Total() - before; kept < 200*uint64(len(steps)) {
		t.Fatalf("tagged ring admitted %d traces during the guard, want every request", kept)
	}
}
