// Package server exposes a CA-RAM subsystem over a TCP line protocol —
// the shape a CA-RAM accelerator takes behind a lookup service (the
// paper's request/result ports, §3.2, stretched over a socket).
//
// Protocol (one request per line, space-separated, keys in hex, either
// plain "<lo>" or wide "<hi>:<lo>"):
//
//	ENGINES
//	CREATE  ENGINE <name> TYPE <type> [INDEXBITS <n>] [SLOTS <n>] [ECC]
//	DROP    ENGINE <name>
//	INSERT  <engine> <key> <data>
//	MINSERT <engine> <key> <mask> <data>
//	SEARCH  <engine> <key> [mask]
//	MSEARCH <engine> <key> [<engine> <key> ...]
//	DELETE  <engine> <key>
//	MDELETE <engine> <key> <mask>
//	TINSERT <engine> <score> <text...>
//	TSEARCH <engine> <text...>
//	STATS   <engine>
//	METRICS [engine [LATENCY <op>]]
//	SLOWLOG GET [n] | LEN | RESET
//	EXPLAIN SEARCH <engine> <key> [mask]
//	HEALTH  [engine [SCRUB]]
//	WAL     STATUS [SYNC]
//
// CREATE ENGINE adds a typed engine to the live server (type one of
// exact, lpm, pktclass, trigram); DROP ENGINE removes one. SEARCH on
// an lpm engine answers the longest matching prefix, on a pktclass
// engine the highest-priority matching rule — the type carries the
// ranking, the request line stays the same. MINSERT/MDELETE are the
// masked (ternary) writes of the lpm/pktclass engines: mask bits are
// don't-cares, and the store duplicates each rule across its wildcard
// hash buckets (§4's ternary duplication). TINSERT/TSEARCH are the
// trigram engine's text-keyed forms — the text (rest of the line,
// spaces allowed) folds into the 16-byte key image of §6's trigram
// signatures, and a hit returns the stored score.
//
// Responses: "OK", "HIT <data>", "MISS", "STATS n=.. alpha=.. amal=..",
// "ENGINES a b c", "MRESULTS r1 r2 ...", "METRICS ...", "SLOWLOG ...",
// "EXPLAIN ...", "HEALTH ..." or "ERR <reason>". A SEARCH that could
// not rule the key out — its row is quarantined or unreadable under the
// error-coding layer — answers "MISS!", the explicit miss-with-error.
// Each MRESULTS slot is "HIT:<hi>:<lo>", "MISS", "MISS!",
// "ERR:no-engine", or "ERR:unavailable" (circuit breaker open), in
// request order.
//
// HEALTH reads the fault-tolerance layer (internal/subsystem): with no
// argument it lists every engine's availability state, with an engine
// it prints the state plus the error-coding counters behind it, and
// HEALTH <engine> SCRUB runs the scrub pass — restoring quarantined
// rows from the insert-side shadow — and reports what it repaired.
//
// METRICS reads the observability layer (internal/metrics): with no
// argument it reports registry totals; with an engine it reports that
// engine's per-op counters and live gauges (all deterministic for a
// scripted session); with LATENCY <op> it adds the op's latency
// quantiles in microseconds (wall-clock, inherently nondeterministic).
//
// SLOWLOG and EXPLAIN read the request-scoped tracing layer
// (internal/trace). SLOWLOG is the Redis-style slow-request log: every
// request whose wall latency exceeded the collector's threshold is
// retained with its full probe trace; GET prints the newest entries on
// one line, LEN the retained count, RESET clears the log. EXPLAIN
// SEARCH runs a real lookup with tracing forced on and prints the
// probe chain deterministically — home bucket, recorded reach, one
// chain element per bucket probed (bucket index, displacement, slots
// tested, match count, overflow hop), the overflow-CAM outcome, and
// the §3.4 analytic expectation of rows accessed next to the measured
// count. SLOWLOG requires the server to be built WithTracing; EXPLAIN
// always works (it forces its own trace).
//
// Request lines are capped at MaxLineBytes; an oversized line draws
// "ERR line too long" and ends the connection.
//
// Overload protection is opt-in per server. WithConnLimit caps the
// number of concurrently served connections: excess accepts are shed
// immediately with a one-line "ERR BUSY" and closed, so a connection
// flood degrades into fast rejections instead of unbounded goroutines.
// WithTimeouts arms read deadlines — an idle timeout for the start of
// the next request and a (usually shorter) read timeout once a request
// has begun arriving, the slow-loris defense — and a deadline expiry
// draws "ERR timeout" and ends the connection without executing the
// partial line. Independently of both, every connection handler runs
// under a panic recovery: a handler bug tears down that one connection
// (logged at Error) and never the process.
//
// Concurrency: the server runs on a per-engine locking model
// (subsystem.Concurrent). Requests that target distinct engines
// execute in parallel — N connections hammering N engines proceed
// independently, the §3.2 picture of multiple lookups simultaneously
// in progress in different slices. INSERT, SEARCH and DELETE on the
// same engine serialize (a slice has one row port, and even lookups
// update access statistics); STATS takes only a read lock and may
// overlap with other STATS of the same engine. MSEARCH fans its batch
// across the referenced engines and collects results in request order.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"caram/internal/bitutil"
	"caram/internal/match"
	"caram/internal/metrics"
	"caram/internal/subsystem"
	"caram/internal/trace"
	"caram/internal/wal"
)

// flushThreshold caps how much reply data accumulates before Handle
// writes it out even though more pipelined requests are buffered.
const flushThreshold = 32 * 1024

// MaxLineBytes bounds one request line. Longer lines are rejected with
// "ERR line too long".
const MaxLineBytes = 64 * 1024

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("server: closed")

// Server serves a subsystem through its per-engine concurrency layer.
type Server struct {
	con *subsystem.Concurrent
	met *metrics.Registry // nil when built WithoutMetrics
	trc *trace.Collector  // nil when built without WithTracing
	log *slog.Logger      // nil when built without WithLogger

	maxConns    int           // 0 = unlimited
	active      atomic.Int32  // connections currently served (conn-limit bookkeeping)
	readTimeout time.Duration // per-read deadline once a request has started; 0 = none
	idleTimeout time.Duration // deadline for the start of the next request; 0 = none

	// panicLine, when non-empty, makes execAppend panic on that exact
	// request line — the test hook behind the panic-recovery regression
	// test. Never set in production.
	panicLine string

	// wal is the durability layer (nil when the server runs without
	// one): every mutation journals through it, Close snapshots and
	// seals it. closing flips at the start of Close so connection
	// readers stop re-arming deadlines and the shutdown nudge reads
	// as "drain and hang up", not "ERR timeout".
	wal      *wal.Log
	snapStop chan struct{} // stops the periodic-snapshot loop
	snapWG   sync.WaitGroup
	closing  atomic.Bool

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	closed    bool
	handlers  sync.WaitGroup // accept loops + connection handlers
}

// Option configures New.
type Option func(*options)

type options struct {
	metrics   bool
	trc       *trace.Collector
	log       *slog.Logger
	maxConns  int
	readTO    time.Duration
	idleTO    time.Duration
	wal       *wal.Log
	walRoster uint64
	snapEvery time.Duration
}

// WithoutMetrics builds the server without the observability layer:
// no counters, no latency measurement, METRICS answers "ERR metrics
// disabled". The instrumented path is the default; this exists for the
// overhead benchmark and for embedders that bring their own telemetry.
func WithoutMetrics() Option {
	return func(o *options) { o.metrics = false }
}

// WithTracing attaches a request-scoped trace collector: every wire
// command records its own trace (command, engine, key, per-command
// start/end — so each member of a pipelined burst is individually
// attributable — and, for SEARCH, the full probe chain) and the
// collector's sampling/slowlog policies decide retention. Without this
// option tracing is off: the hot path sees only nil checks and stays
// allocation-free, SLOWLOG answers "ERR tracing disabled", and only
// EXPLAIN (which forces its own trace) records probe chains.
func WithTracing(c *trace.Collector) Option {
	return func(o *options) { o.trc = c }
}

// WithLogger attaches a structured logger: connection lifecycle at
// Debug, slow-request records (one line per slowlog admission) at
// Warn, handler panics at Error. nil (the default) disables logging.
func WithLogger(l *slog.Logger) Option {
	return func(o *options) { o.log = l }
}

// WithConnLimit caps concurrently served connections at n (load
// shedding): an accept beyond the cap is answered with one "ERR BUSY"
// line and closed immediately, without dedicating a handler goroutine
// to it. n <= 0 (the default) means unlimited.
func WithConnLimit(n int) Option {
	return func(o *options) { o.maxConns = n }
}

// WithTimeouts arms per-connection read deadlines. idle bounds how
// long a connection may sit between requests (waiting for the first
// byte of the next line); read bounds each subsequent read once a
// request has started arriving — the slow-loris defense, since a
// client trickling one byte per read can no longer hold a handler
// forever. Either may be zero to disable that bound. On expiry the
// connection draws "ERR timeout" and closes; a partially received
// line is never executed.
func WithTimeouts(read, idle time.Duration) Option {
	return func(o *options) { o.readTO, o.idleTO = read, idle }
}

// WithWAL attaches a durability layer: every acknowledged mutation is
// journaled through w (acks ordered after the fsync under the
// sync=always policy), rosterLSN seeds the CREATE/DROP replay gate
// recovered from disk, and snapshotEvery > 0 starts a background loop
// that serializes the subsystem's shadow image and truncates sealed
// segments. Close snapshots once more after the drain and seals the
// log, so a graceful shutdown leaves a log needing zero replay.
func WithWAL(w *wal.Log, rosterLSN uint64, snapshotEvery time.Duration) Option {
	return func(o *options) {
		o.wal = w
		o.walRoster = rosterLSN
		o.snapEvery = snapshotEvery
	}
}

// New wraps a subsystem whose engine registration is complete. By
// default the per-engine metrics layer is attached (see
// internal/metrics); the registry is reachable via Metrics for HTTP
// export.
func New(sub *subsystem.Subsystem, opts ...Option) *Server {
	o := options{metrics: true}
	for _, opt := range opts {
		opt(&o)
	}
	con := subsystem.NewConcurrent(sub)
	var reg *metrics.Registry
	if o.metrics {
		reg = metrics.NewRegistry(con.Engines())
		con.Instrument(reg)
	}
	if o.wal != nil {
		con.SetJournal(o.wal, o.walRoster)
		if reg != nil {
			w := o.wal
			reg.SetWALFunc(func() metrics.WALStats {
				st := w.Stats()
				return metrics.WALStats{
					AppendedLSN: st.LSN,
					DurableLSN:  st.Durable,
					SnapshotLSN: st.SnapshotLSN,
					Pending:     st.Pending,
					Segments:    st.Segments,
					Fsyncs:      st.Fsyncs,
					FsyncNanos:  st.FsyncNanos,
					LastFsync:   st.LastFsync,
				}
			})
		}
	}
	s := &Server{
		con:         con,
		met:         reg,
		trc:         o.trc,
		log:         o.log,
		maxConns:    o.maxConns,
		readTimeout: o.readTO,
		idleTimeout: o.idleTO,
		wal:         o.wal,
		listeners:   make(map[net.Listener]struct{}),
		conns:       make(map[net.Conn]struct{}),
	}
	if s.wal != nil && o.snapEvery > 0 {
		s.snapStop = make(chan struct{})
		s.snapWG.Add(1)
		go func() {
			defer s.snapWG.Done()
			wal.Snapshotter(o.snapEvery, s.snapStop,
				func() error { return s.wal.Snapshot(s.con.SnapshotImage) },
				func(err error) {
					if s.log != nil {
						s.log.Error("wal snapshot failed", "err", err)
					}
				})
		}()
	}
	return s
}

// Metrics returns the server's registry, or nil when built
// WithoutMetrics. Callers use it to mount the HTTP exposition
// (metrics.Handler).
func (s *Server) Metrics() *metrics.Registry { return s.met }

// Tracing returns the server's trace collector, or nil when tracing is
// off. Callers use it to mount the /debug/traces endpoint.
func (s *Server) Tracing() *trace.Collector { return s.trc }

// Serve accepts connections until the listener closes or the server is
// shut down with Close (which returns ErrServerClosed).
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return ErrServerClosed
	}
	s.listeners[l] = struct{}{}
	s.handlers.Add(1)
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
		s.handlers.Done()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.isClosed() {
				return ErrServerClosed
			}
			return err
		}
		if !s.admit() {
			// Over the connection cap: shed the load with one line and
			// move on — no handler goroutine, no map entry, no buffers.
			conn.Write([]byte("ERR BUSY\n")) //nolint:errcheck // best-effort courtesy reply
			conn.Close()
			if s.log != nil {
				s.log.Debug("connection shed", "remote", conn.RemoteAddr().String())
			}
			continue
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			s.active.Add(-1)
			return ErrServerClosed
		}
		s.conns[conn] = struct{}{}
		s.handlers.Add(1)
		s.mu.Unlock()
		if s.log != nil {
			s.log.Debug("connection accepted", "remote", conn.RemoteAddr().String())
		}
		go func() {
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				s.active.Add(-1)
				s.handlers.Done()
				if s.log != nil {
					s.log.Debug("connection closed", "remote", conn.RemoteAddr().String())
				}
			}()
			// A panicking handler must cost exactly its own connection:
			// recover here (before the cleanup defer above closes it)
			// so the accept loop and every other connection live on.
			defer func() {
				if r := recover(); r != nil && s.log != nil {
					s.log.Error("connection handler panic",
						"remote", conn.RemoteAddr().String(),
						"panic", fmt.Sprint(r))
				}
			}()
			rd := io.Reader(conn)
			if s.readTimeout > 0 || s.idleTimeout > 0 {
				rd = &connReader{srv: s, c: conn, read: s.readTimeout, idle: s.idleTimeout}
			}
			s.Handle(rd, conn)
		}()
	}
}

// admit charges one connection against the cap; false means shed it.
func (s *Server) admit() bool {
	if s.maxConns <= 0 {
		s.active.Add(1) // uncapped: keep the gauge honest anyway
		return true
	}
	for {
		cur := s.active.Load()
		if int(cur) >= s.maxConns {
			return false
		}
		if s.active.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// connReader arms a read deadline before every read from the
// connection: the idle timeout while waiting for a request to start,
// the read timeout once one has begun arriving. Handle flips atStart
// at request boundaries; the zero value of either duration clears the
// deadline for reads it would govern.
type connReader struct {
	srv     *Server
	c       net.Conn
	read    time.Duration
	idle    time.Duration
	atStart bool
}

// aLongTimeAgo is a deadline guaranteed to be expired; used to keep a
// connection's reads failing fast during graceful shutdown.
var aLongTimeAgo = time.Unix(1, 0)

func (cr *connReader) Read(p []byte) (int, error) {
	d := cr.read
	if cr.atStart {
		d = cr.idle
	}
	var dl time.Time // zero clears any previous deadline
	if d > 0 {
		dl = time.Now().Add(d)
	}
	if err := cr.c.SetReadDeadline(dl); err != nil {
		return 0, err
	}
	cr.atStart = false
	// During graceful shutdown the deadline must stay expired: Close
	// nudged every connection with an expired deadline, and re-arming
	// it here would let this read block for a full idle period. The
	// re-check after SetReadDeadline closes the race with the nudge.
	if cr.srv != nil && cr.srv.closing.Load() {
		cr.c.SetReadDeadline(aLongTimeAgo) //nolint:errcheck
	}
	return cr.c.Read(p)
}

// closeWriteGrace bounds how long a draining handler may block writing
// its final replies to a client that has stopped reading.
const closeWriteGrace = 5 * time.Second

// Close shuts the server down gracefully: it closes every listener,
// then *nudges* each active connection by expiring its read deadline —
// the connection stays writable, so every in-flight handler finishes
// the requests it has already read (including a buffered pipelined
// burst) and writes their replies before returning. Only after all
// handlers have drained does Close take a final snapshot, close the
// subsystem, and seal the WAL — which is why a graceful shutdown is a
// clean recovery point needing zero replay. Close is idempotent; Serve
// calls racing it return ErrServerClosed.
func (s *Server) Close() error {
	s.mu.Lock()
	first := !s.closed
	if first {
		s.closed = true
		s.closing.Store(true)
		for l := range s.listeners {
			l.Close()
		}
		now := time.Now()
		for c := range s.conns {
			// Expired read deadline: pending and future reads fail fast,
			// but buffered requests still execute and replies still
			// flush. The write grace keeps a non-reading client from
			// pinning the drain forever.
			c.SetReadDeadline(now)                       //nolint:errcheck
			c.SetWriteDeadline(now.Add(closeWriteGrace)) //nolint:errcheck
		}
	}
	stop := s.snapStop
	s.mu.Unlock()
	if first && stop != nil {
		close(stop)
	}
	s.snapWG.Wait()
	s.handlers.Wait()
	var err error
	if first && s.wal != nil {
		// The drain is complete: this snapshot captures every applied
		// mutation, so the sealed log below needs zero replay on the
		// next boot.
		if serr := s.wal.Snapshot(s.con.SnapshotImage); serr != nil {
			err = serr
		}
	}
	s.con.Close()
	if first && s.wal != nil {
		if serr := s.wal.Seal(); serr != nil && err == nil {
			err = serr
		}
	}
	return err
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// connState is one connection's reusable I/O state: a line reader
// whose buffer doubles as the oversized-line bound, and the reply
// buffer replies are appended into between flushes. Pooled so a
// connection churn-heavy workload does not re-allocate 64 KiB buffers
// per accept.
type connState struct {
	r   *bufio.Reader
	out []byte
}

var connPool = sync.Pool{
	New: func() any {
		return &connState{
			r:   bufio.NewReaderSize(nil, MaxLineBytes),
			out: make([]byte, 0, 4096),
		}
	},
}

// Handle processes one connection's request stream. Split from Serve
// so tests can drive it over arbitrary pipes. Handle itself is safe
// for concurrent use: any number of connections may execute at once.
// It returns as soon as the writer fails, so a dead client cannot keep
// its read loop spinning through the rest of the stream.
//
// Replies are appended to a pooled per-connection buffer and written
// out once per pipelined burst: the buffer is flushed when the reader
// has no complete requests left buffered (or when flushThreshold of
// replies has accumulated), so a client that pipelines N requests
// costs one write, not N.
func (s *Server) Handle(r io.Reader, w io.Writer) {
	st := connPool.Get().(*connState)
	st.r.Reset(r)
	st.out = st.out[:0]
	defer func() {
		st.r.Reset(nil) // drop the connection reference before pooling
		connPool.Put(st)
	}()
	flush := func() bool {
		if len(st.out) == 0 {
			return true
		}
		_, err := w.Write(st.out)
		st.out = st.out[:0]
		return err == nil
	}
	// exec strips the line terminator (and a final "\r", as
	// text-protocol clients send "\r\n") and appends the reply.
	exec := func(line []byte) {
		if n := len(line); n > 0 && line[n-1] == '\n' {
			line = line[:n-1]
		}
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		st.out = s.ExecAppend(st.out, string(line))
		st.out = append(st.out, '\n')
	}
	cr, _ := r.(*connReader) // deadline-armed transport, when Serve wired one
	for {
		if cr != nil {
			// The next byte pulled off the wire starts a new request
			// (anything already buffered costs no read at all), so it is
			// governed by the idle timeout, not the per-read one.
			cr.atStart = true
		}
		line, err := st.r.ReadSlice('\n')
		switch {
		case err == nil:
			exec(line)
			if st.r.Buffered() == 0 || len(st.out) >= flushThreshold {
				if !flush() {
					return // write side is gone; stop consuming requests
				}
			}
		case errors.Is(err, bufio.ErrBufferFull):
			// The stream is unrecoverable once a line overflows the
			// buffer; report and end the connection like the previous
			// Scanner-based loop did.
			st.out = append(st.out, "ERR line too long\n"...)
			flush()
			return
		case errors.Is(err, io.EOF):
			if len(line) > 0 {
				exec(line) // final unterminated request still counts
			}
			flush()
			return
		default:
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if s.closing.Load() {
					// Graceful-shutdown nudge, not a client timeout: every
					// request read before the nudge has its reply buffered
					// above — flush them and hang up without a spurious
					// error line.
					flush()
					return
				}
				// Deadline expiry (WithTimeouts): a partially received
				// line is untrusted input cut off mid-flight — never
				// execute it, just report and hang up.
				st.out = append(st.out, "ERR timeout\n"...)
				flush()
				return
			}
			if len(line) > 0 {
				exec(line)
			}
			st.out = append(st.out, "ERR read: "...)
			st.out = append(st.out, err.Error()...)
			st.out = append(st.out, '\n')
			flush()
			return
		}
	}
}

// Exec runs one request line and returns the single-line response —
// the string-returning convenience form of ExecAppend, kept for
// embedders and tests.
func (s *Server) Exec(line string) string {
	return string(s.ExecAppend(nil, line))
}

// ExecAppend runs one request line and appends the single-line
// response (without the trailing newline) to dst, returning the
// extended buffer. It is the protocol engine behind Handle, exported
// so embedders and benchmarks can drive the server without a socket.
// ExecAppend is safe for concurrent use; requests to distinct engines
// run in parallel. A SEARCH request on an uninstrumented, untraced
// server allocates nothing: fields are substrings of the line, keys
// parse in place, and the reply is appended into dst.
//
// With tracing attached (WithTracing), every call begins and ends its
// own trace — each command of a pipelined burst gets its own
// start/end stamps even though Handle flushes the burst's replies with
// one write, so slow burst members are individually attributable.
func (s *Server) ExecAppend(dst []byte, line string) []byte {
	tr := s.trc.Begin()
	if tr == nil {
		return s.execAppend(dst, line, nil)
	}
	mark := len(dst)
	dst = s.execAppend(dst, line, tr)
	tr.SetResult(resultToken(dst[mark:]))
	// End hands tr to the collector, which may recycle it at once; the
	// log record reads the private copy EndCopy returns for slow
	// requests.
	if s.log == nil {
		s.trc.End(tr)
	} else if slow := s.trc.EndCopy(tr); slow != nil {
		s.log.Warn("slow request",
			"id", slow.ID,
			"cmd", slow.Cmd,
			"engine", slow.Engine,
			"key", slow.Key,
			"us", slow.Dur.Microseconds(),
			"rows", slow.Rows,
			"result", slow.Result,
		)
	}
	return dst
}

// execAppend is the protocol engine proper; tr is nil when tracing is
// off for this request.
func (s *Server) execAppend(dst []byte, line string, tr *trace.Trace) []byte {
	if s.panicLine != "" && line == s.panicLine {
		panic("injected handler panic: " + line)
	}
	fs := FieldScanner{s: line}
	cmd, ok := fs.next()
	if !ok {
		return append(dst, "ERR empty request"...)
	}
	if cmd[0] == '*' {
		// Optional wire-tracing annotation: `*TID <hex-id>/<span-id>`
		// prefixed to any command. It joins this request's trace to the
		// caller's trace id and is otherwise invisible — the annotation
		// is stripped and the reply is byte-identical to the bare
		// command (tracing on or off). Cost when absent: this one
		// first-byte branch.
		if !strings.EqualFold(cmd, "*TID") {
			return append(append(dst, "ERR unknown annotation "...), cmd...)
		}
		arg, okArg := fs.next()
		tid, span, okID := parseWireID(arg)
		if !okArg || !okID {
			return append(dst, "ERR usage: *TID <hex-id>/<span-id> <command ...>"...)
		}
		tr.SetWire(tid, span)
		if cmd, ok = fs.next(); !ok {
			return append(dst, "ERR empty request"...)
		}
	}
	cmd = strings.ToUpper(cmd)
	tr.Request(cmd, "", "") // branches with an engine/key refine this
	switch cmd {
	case "ENGINES":
		dst = append(dst, "ENGINES "...)
		for i, name := range s.con.Engines() {
			if i > 0 {
				dst = append(dst, ' ')
			}
			dst = append(dst, name...)
		}
		return dst
	case "INSERT":
		eng, ok1 := fs.next()
		keyS, ok2 := fs.next()
		dataS, ok3 := fs.next()
		if _, extra := fs.next(); !ok1 || !ok2 || !ok3 || extra {
			return append(dst, "ERR usage: INSERT <engine> <key> <data>"...)
		}
		tr.Request(cmd, eng, keyS)
		key, err := parseVec(keyS)
		if err != nil {
			return appendErr(dst, err)
		}
		data, err := parseVec(dataS)
		if err != nil {
			return appendErr(dst, err)
		}
		rec := match.Record{Key: bitutil.Exact(key), Data: data}
		if err := s.con.InsertTraced(eng, rec, tr); err != nil {
			return appendErr(dst, err)
		}
		return append(dst, "OK"...)
	case "SEARCH":
		eng, ok1 := fs.next()
		keyS, ok2 := fs.next()
		maskS, hasMask := fs.next()
		if _, extra := fs.next(); !ok1 || !ok2 || extra {
			return append(dst, "ERR usage: SEARCH <engine> <key> [mask]"...)
		}
		tr.Request(cmd, eng, keyS)
		key, err := parseVec(keyS)
		if err != nil {
			return appendErr(dst, err)
		}
		search := bitutil.Exact(key)
		if hasMask {
			mask, err := parseVec(maskS)
			if err != nil {
				return appendErr(dst, err)
			}
			search = bitutil.NewTernary(key, mask)
		}
		if tr.Enabled() {
			tr.Span(trace.KindParse, tr.Begin)
		}
		sr, err := s.con.SearchTraced(eng, search, tr)
		if err != nil {
			return appendErr(dst, err)
		}
		var encStart time.Time
		if tr.Enabled() {
			encStart = time.Now()
		}
		if !sr.Found {
			if sr.Erred {
				// The lookup skipped a quarantined or unreadable row:
				// the key may well be stored there, so this is the
				// explicit miss-with-error, not a clean miss.
				dst = append(dst, "MISS!"...)
			} else {
				dst = append(dst, "MISS"...)
			}
		} else {
			dst = append(dst, "HIT "...)
			dst = appendHex(dst, sr.Record.Data.Hi)
			dst = append(dst, ':')
			dst = appendHex016(dst, sr.Record.Data.Lo)
		}
		if tr.Enabled() {
			tr.Span(trace.KindEncode, encStart)
		}
		return dst
	case "MSEARCH":
		// Arity is judged over the whole argument list before any key is
		// parsed, so "MSEARCH db 12zz extra" is a usage error, not bad hex.
		n := fs.countFields()
		if n == 0 || n%2 != 0 {
			return append(dst, "ERR usage: MSEARCH <engine> <key> [<engine> <key> ...]"...)
		}
		reqs := make([]subsystem.PortKey, n/2)
		for i := range reqs {
			port, _ := fs.next()
			keyS, _ := fs.next()
			key, err := parseVec(keyS)
			if err != nil {
				return appendErr(dst, err)
			}
			reqs[i] = subsystem.PortKey{Port: port, Key: bitutil.Exact(key)}
		}
		dst = append(dst, "MRESULTS"...)
		for _, r := range s.con.MSearch(reqs) {
			dst = append(dst, ' ')
			switch {
			case errors.Is(r.Err, subsystem.ErrEngineUnavailable):
				dst = append(dst, "ERR:unavailable"...)
			case r.Err != nil:
				dst = append(dst, "ERR:no-engine"...)
			case !r.Result.Found && r.Result.Erred:
				dst = append(dst, "MISS!"...)
			case !r.Result.Found:
				dst = append(dst, "MISS"...)
			default:
				dst = append(dst, "HIT:"...)
				dst = appendHex(dst, r.Result.Record.Data.Hi)
				dst = append(dst, ':')
				dst = appendHex016(dst, r.Result.Record.Data.Lo)
			}
		}
		return dst
	case "DELETE":
		eng, ok1 := fs.next()
		keyS, ok2 := fs.next()
		if _, extra := fs.next(); !ok1 || !ok2 || extra {
			return append(dst, "ERR usage: DELETE <engine> <key>"...)
		}
		tr.Request(cmd, eng, keyS)
		key, err := parseVec(keyS)
		if err != nil {
			return appendErr(dst, err)
		}
		if err := s.con.DeleteTraced(eng, bitutil.Exact(key), tr); err != nil {
			return appendErr(dst, err)
		}
		return append(dst, "OK"...)
	case "CREATE":
		return s.execCreateAppend(dst, &fs)
	case "DROP":
		return s.execDropAppend(dst, &fs)
	case "MINSERT":
		return s.execMInsertAppend(dst, &fs, tr)
	case "MDELETE":
		return s.execMDeleteAppend(dst, &fs, tr)
	case "TINSERT":
		return s.execTInsertAppend(dst, &fs, tr)
	case "TSEARCH":
		return s.execTSearchAppend(dst, &fs, tr)
	case "METRICS":
		return s.execMetricsAppend(dst, &fs)
	case "SLOWLOG":
		return s.execSlowlogAppend(dst, &fs)
	case "EXPLAIN":
		return s.execExplainAppend(dst, &fs)
	case "TRACE":
		return s.execTraceAppend(dst, &fs)
	case "HEALTH":
		return s.execHealthAppend(dst, &fs)
	case "WAL":
		return s.execWALAppend(dst, &fs)
	case "STATS":
		eng, ok1 := fs.next()
		if _, extra := fs.next(); !ok1 || extra {
			return append(dst, "ERR usage: STATS <engine>"...)
		}
		info, err := s.con.Info(eng)
		if err != nil {
			return appendErr(dst, err)
		}
		dst = append(dst, "STATS n="...)
		dst = appendInt(dst, int64(info.Count))
		dst = append(dst, " alpha="...)
		dst = appendFixed(dst, info.LoadFactor, 3)
		dst = append(dst, " amal="...)
		dst = appendFixed(dst, info.Stats.AMAL(), 3)
		dst = append(dst, " hits="...)
		dst = appendUint(dst, info.Stats.Hits)
		dst = append(dst, " misses="...)
		return appendUint(dst, info.Stats.Misses)
	default:
		dst = append(dst, "ERR unknown command "...)
		return append(dst, cmd...)
	}
}

// execMetricsAppend answers the METRICS command against the registry.
// The no-argument and per-engine forms print only counters and
// core-state gauges — deterministic for a scripted session, which is
// what lets the golden-session test cover them byte-exactly. The
// LATENCY form adds wall-clock quantiles and is therefore excluded
// from golden coverage.
func (s *Server) execMetricsAppend(dst []byte, fs *FieldScanner) []byte {
	const usage = "ERR usage: METRICS [engine [LATENCY <op>]]"
	var args [3]string
	n := 0
	for {
		f, ok := fs.next()
		if !ok {
			break
		}
		if n == len(args) {
			n++ // too many args: fall to the usage default below
			break
		}
		args[n] = f
		n++
	}
	if s.met == nil {
		return append(dst, "ERR metrics disabled"...)
	}
	switch n {
	case 0:
		ops, errs := s.met.Totals()
		dst = append(dst, "METRICS engines="...)
		dst = appendInt(dst, int64(len(s.met.Engines())))
		dst = append(dst, " ops="...)
		dst = appendUint(dst, ops)
		dst = append(dst, " errors="...)
		dst = appendUint(dst, errs)
		dst = append(dst, " unknown="...)
		return appendUint(dst, s.met.Unknown())
	case 1:
		em := s.met.Engine(args[0])
		if em == nil {
			dst = append(dst, "ERR metrics: no engine "...)
			return strconv.AppendQuote(dst, args[0])
		}
		dst = append(dst, "METRICS engine="...)
		dst = append(dst, em.Name()...)
		for op := metrics.Op(0); op < metrics.NumOps; op++ {
			dst = append(dst, ' ')
			dst = append(dst, op.String()...)
			dst = append(dst, '=')
			dst = appendUint(dst, em.Count(op))
			dst = append(dst, ' ')
			dst = append(dst, op.String()...)
			dst = append(dst, "_err="...)
			dst = appendUint(dst, em.Errors(op))
		}
		if g, ok := em.SampleGauges(); ok {
			dst = append(dst, " n="...)
			dst = appendInt(dst, int64(g.Records))
			dst = append(dst, " load="...)
			dst = appendFixed(dst, g.LoadFactor, 3)
			dst = append(dst, " amal="...)
			dst = appendFixed(dst, g.AMAL, 3)
			dst = append(dst, " hits="...)
			dst = appendUint(dst, g.Hits)
			dst = append(dst, " misses="...)
			dst = appendUint(dst, g.Misses)
			dst = append(dst, " overflow="...)
			dst = appendInt(dst, int64(g.Overflow))
			dst = append(dst, " spilled="...)
			dst = appendInt(dst, int64(g.Spilled))
		}
		return dst
	case 3:
		if !strings.EqualFold(args[1], "LATENCY") && !strings.EqualFold(args[1], "HIST") {
			return append(dst, usage...)
		}
		em := s.met.Engine(args[0])
		if em == nil {
			dst = append(dst, "ERR metrics: no engine "...)
			return strconv.AppendQuote(dst, args[0])
		}
		op, err := metrics.ParseOp(args[2])
		if err != nil {
			dst = append(dst, "ERR metrics: unknown op "...)
			return append(dst, args[2]...)
		}
		if strings.EqualFold(args[1], "HIST") {
			// Raw power-of-two bucket counts, the machine-readable form
			// the cluster router scatters and merges bucket-wise into a
			// fleet histogram. LATENCY below is the human quantile view.
			h := em.Latency(op).Snapshot()
			dst = append(dst, "METRICS engine="...)
			dst = append(dst, em.Name()...)
			dst = append(dst, " op="...)
			dst = append(dst, op.String()...)
			dst = append(dst, " n="...)
			dst = appendUint(dst, h.N)
			dst = append(dst, " err="...)
			dst = appendUint(dst, em.Errors(op))
			dst = append(dst, " sum_ns="...)
			dst = appendInt(dst, h.SumNs)
			dst = append(dst, " buckets="...)
			for i, c := range h.Counts {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = appendUint(dst, c)
			}
			return dst
		}
		h := em.Latency(op).Snapshot()
		qs := h.Quantiles(0.5, 0.9, 0.99, 1)
		dst = append(dst, "METRICS engine="...)
		dst = append(dst, em.Name()...)
		dst = append(dst, " op="...)
		dst = append(dst, op.String()...)
		dst = append(dst, " n="...)
		dst = appendUint(dst, h.N)
		dst = append(dst, " err="...)
		dst = appendUint(dst, em.Errors(op))
		dst = append(dst, " mean_us="...)
		dst = appendFixed(dst, h.MeanNs()/1e3, 2)
		for i, label := range [...]string{" p50_us=", " p90_us=", " p99_us=", " max_us="} {
			dst = append(dst, label...)
			dst = appendFixed(dst, float64(qs[i])/1e3, 2)
		}
		return dst
	default:
		return append(dst, usage...)
	}
}

// parseVec parses "hi:lo" or plain hex into a Vec128. Each part must
// be 1-16 hex digits with nothing else — trailing garbage ("12zz"),
// signs, and "0x" prefixes are all rejected.
func parseVec(s string) (bitutil.Vec128, error) {
	bad := func() (bitutil.Vec128, error) {
		return bitutil.Vec128{}, fmt.Errorf("bad hex %q", s)
	}
	if i := strings.IndexByte(s, ':'); i >= 0 {
		hi, err := parseHex64(s[:i])
		if err != nil {
			return bad()
		}
		lo, err := parseHex64(s[i+1:])
		if err != nil {
			return bad()
		}
		return bitutil.FromParts(lo, hi), nil
	}
	lo, err := parseHex64(s)
	if err != nil {
		return bad()
	}
	return bitutil.FromUint64(lo), nil
}

// parseHex64 parses a bare hex field. strconv.ParseUint rejects what
// fmt.Sscanf "%x" silently tolerated: empty fields, signs, "0x"
// prefixes, and valid-prefix-plus-garbage like "12zz".
func parseHex64(s string) (uint64, error) {
	return strconv.ParseUint(s, 16, 64)
}
