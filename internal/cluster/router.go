package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"caram/internal/metrics"
	"caram/internal/server"
	"caram/internal/trace"
)

// Router puts N caram-server backends behind one wire endpoint. It
// speaks the internal/server line protocol on both sides: each
// incoming line is parsed just far enough to pick its backend(s), the
// raw bytes forward over the backend's pipelined pool, and the reply
// returns verbatim — the router is protocol-transparent for
// single-backend-owned operations.
//
// Routing table:
//
//   - INSERT/SEARCH/DELETE <eng> <key>: the ring owner of (engine,
//     key) — the key participates canonically (ParseVec), so every
//     spelling of the same key routes identically. Keys of one engine
//     spread across all backends (key sharding).
//   - Pinned engines (typed engines created through the router, plus
//     the -pin list) live wholly on their home backend — the ring
//     owner of the engine name — because longest-prefix,
//     highest-priority, and trigram ranking are only correct over the
//     whole rule set. All their ops forward home.
//   - SEARCH <eng> <key> <mask> on a sharded engine scatters to every
//     backend: first HIT in backend order, else MISS! if any backend
//     could not rule the key out, else MISS (a masked probe can match
//     a record on any shard).
//   - MSEARCH splits its pairs by ring owner, issues one pipelined
//     MSEARCH per involved backend concurrently, and reassembles the
//     slots in the caller's original order. A dead backend's slots
//     answer ERR:unavailable, never a shifted reply.
//   - CREATE ENGINE ... TYPE exact and DROP of sharded engines
//     broadcast (every backend must carry a sharded engine); typed
//     CREATEs forward to the engine's home and pin it.
//   - STATS <eng> on a sharded engine scatters and aggregates: n,
//     hits, misses sum; alpha is the mean load factor; amal is the
//     lookup-weighted mean. HEALTH merges per-engine worst states;
//     HEALTH <eng> [SCRUB] on sharded engines sums the counters.
//     ENGINES unions the rosters in backend order.
//   - METRICS (bare) answers from the router's own registry; SLOWLOG
//     and per-engine METRICS on sharded engines are per-backend state
//     the router does not fake — they answer a routed ERR instead.
//     With Tracing attached both become fleet-wide: METRICS scatters
//     and sums counters (LATENCY histograms merge bucket-wise),
//     SLOWLOG GET scatter/gathers every backend's slowlog plus the
//     router's own, k-way merged by latency and node=-tagged, and
//     TRACE GET answers from the router's rings or any backend's.
//   - WAL STATUS scatters and merges into one fleet line: lsn /
//     durable / segments sum, snapshot_lsn is the fleet minimum (the
//     replay bound), sync is the common policy or "mixed". Any node
//     answering ERR (wal disabled) fails the whole merge with that
//     ERR — a partial sum would overstate durability.
//   - Anything unparseable forwards to backend 0 so the backend's own
//     grammar renders the authoritative ERR, byte-identical to a
//     direct connection.
//
// Failure handling: transport failures trip the backend pool's
// circuit breaker; while it is open, requests shed fast with "ERR
// unavailable" (slots: "ERR:unavailable") — never a silently wrong
// reply. Idempotent reads (SEARCH, TSEARCH, EXPLAIN) that died
// in-flight retry with backoff on a fresh pool connection, bounded by
// Retries; writes never retry (their fate on the backend is unknown).
// The health watcher probes HEALTH on every backend each interval,
// tripping breakers of quiet-dead backends and closing them on
// recovery.
type Router struct {
	ring  *Ring
	pools []*Pool
	met   *metrics.RouterMetrics
	log   *slog.Logger
	trc   *trace.Collector // nil = router tracing off (legacy local SLOWLOG/METRICS)
	order []int            // backend indices sorted by address: scatter-merge iteration order

	pinMu  sync.Mutex
	pinned atomic.Pointer[map[string]bool] // COW; read on the hot path

	retries      int
	retryBackoff time.Duration

	watcherStop chan struct{}
	watcherWG   sync.WaitGroup

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	closed    bool
	handlers  sync.WaitGroup
}

// ErrRouterClosed is returned by Serve after Close.
var ErrRouterClosed = errors.New("cluster: router closed")

// RouterConfig configures NewRouter. Backends is required; everything
// else has working defaults.
type RouterConfig struct {
	Backends []Backend
	Replicas int      // virtual nodes per backend (default DefaultReplicas)
	Pin      []string // engine names pinned to their home backend at boot

	Conns            int           // connections per backend pool (default 4)
	BreakerThreshold int           // consecutive failures to open a breaker (default 3)
	BreakerBackoff   time.Duration // breaker open window (default 250ms)
	DialTimeout      time.Duration // per-dial bound (default 2s)

	Retries        int           // idempotent-read resubmissions (default 2)
	RetryBackoff   time.Duration // first retry delay, doubling (default 2ms)
	HealthInterval time.Duration // HEALTH probe period (0 = watcher off)
	HealthTimeout  time.Duration // per-probe bound (default 1s)

	Metrics *metrics.RouterMetrics // optional; nil runs unmetered
	Logger  *slog.Logger           // optional

	// Tracing attaches a trace collector to the router: every proxied
	// request grows its own span tree (ring lookup, queue wait, backend
	// RTT, retries, breaker state), eligible requests tag their
	// forwarded commands with a wire trace id so backend traces become
	// children, and the SLOWLOG / METRICS / TRACE wire commands answer
	// fleet-wide (scatter/gather-merged) instead of the pre-tracing
	// local forms. nil keeps the legacy behavior byte-exactly.
	Tracing *trace.Collector
}

// NewRouter builds the ring and one pipelined pool per backend, and
// starts the health watcher when HealthInterval is set.
func NewRouter(cfg RouterConfig) (*Router, error) {
	labels := make([]string, len(cfg.Backends))
	for i, b := range cfg.Backends {
		labels[i] = b.Label
	}
	ring, err := NewRing(labels, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 2 * time.Millisecond
	}
	if cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = time.Second
	}
	rt := &Router{
		ring:         ring,
		met:          cfg.Metrics,
		log:          cfg.Logger,
		trc:          cfg.Tracing,
		retries:      cfg.Retries,
		retryBackoff: cfg.RetryBackoff,
		listeners:    make(map[net.Listener]struct{}),
		conns:        make(map[net.Conn]struct{}),
	}
	// Scatter merges iterate backends in address order, not config
	// order, so admin output is stable regardless of how the backend
	// list was spelled (ties — tests use synthetic labels — break by
	// label, then config position).
	rt.order = make([]int, len(cfg.Backends))
	for i := range rt.order {
		rt.order[i] = i
	}
	sort.SliceStable(rt.order, func(a, b int) bool {
		ba, bb := cfg.Backends[rt.order[a]], cfg.Backends[rt.order[b]]
		if ba.Addr != bb.Addr {
			return ba.Addr < bb.Addr
		}
		return ba.Label < bb.Label
	})
	rt.pools = make([]*Pool, len(cfg.Backends))
	for i, b := range cfg.Backends {
		rt.pools[i] = NewPool(b, PoolConfig{
			Conns:            cfg.Conns,
			BreakerThreshold: cfg.BreakerThreshold,
			BreakerBackoff:   cfg.BreakerBackoff,
			DialTimeout:      cfg.DialTimeout,
			Metrics:          cfg.Metrics.Backend(i),
		})
	}
	pins := make(map[string]bool, len(cfg.Pin))
	for _, name := range cfg.Pin {
		if name != "" {
			pins[name] = true
		}
	}
	rt.pinned.Store(&pins)
	if cfg.HealthInterval > 0 {
		rt.watcherStop = make(chan struct{})
		rt.watcherWG.Add(1)
		go rt.watch(cfg.HealthInterval, cfg.HealthTimeout)
	}
	return rt, nil
}

// Ring returns the router's ring (tests pin assignments through it).
func (rt *Router) Ring() *Ring { return rt.ring }

// Pool returns backend b's pool.
func (rt *Router) Pool(b int) *Pool { return rt.pools[b] }

// Pinned reports whether the engine routes whole to its home backend.
func (rt *Router) Pinned(engine string) bool {
	return (*rt.pinned.Load())[engine]
}

// pin/unpin swap a fresh copy-on-write map; mutation is rare (CREATE/
// DROP of typed engines), reads are an atomic load.
func (rt *Router) pin(engine string, on bool) {
	rt.pinMu.Lock()
	defer rt.pinMu.Unlock()
	cur := *rt.pinned.Load()
	if cur[engine] == on {
		return
	}
	next := make(map[string]bool, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	if on {
		next[engine] = true
	} else {
		delete(next, engine)
	}
	rt.pinned.Store(&next)
}

// watch is the health watcher: probe every backend each tick. Probes
// bypass the pools (and their breaker gates), so an open breaker still
// gets its half-open recovery check and a quiet-dead backend trips
// before client traffic has to discover it.
func (rt *Router) watch(interval, timeout time.Duration) {
	defer rt.watcherWG.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-rt.watcherStop:
			return
		case <-tick.C:
			for i, p := range rt.pools {
				wasOpen := p.BreakerOpen()
				up := p.Probe(timeout)
				if rt.log != nil && up == wasOpen { // state change either direction
					if up {
						rt.log.Info("backend recovered", "backend", rt.ring.Label(i))
					} else {
						rt.log.Warn("backend unhealthy", "backend", rt.ring.Label(i))
					}
				}
			}
		}
	}
}

// Serve accepts connections until the listener closes or the router
// shuts down with Close.
func (rt *Router) Serve(l net.Listener) error {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		l.Close()
		return ErrRouterClosed
	}
	rt.listeners[l] = struct{}{}
	rt.handlers.Add(1)
	rt.mu.Unlock()
	defer func() {
		rt.mu.Lock()
		delete(rt.listeners, l)
		rt.mu.Unlock()
		rt.handlers.Done()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			if rt.isClosed() {
				return ErrRouterClosed
			}
			return err
		}
		rt.mu.Lock()
		if rt.closed {
			rt.mu.Unlock()
			conn.Close()
			return ErrRouterClosed
		}
		rt.conns[conn] = struct{}{}
		rt.handlers.Add(1)
		rt.mu.Unlock()
		go func() {
			defer func() {
				conn.Close()
				rt.mu.Lock()
				delete(rt.conns, conn)
				rt.mu.Unlock()
				rt.handlers.Done()
			}()
			defer func() {
				if r := recover(); r != nil && rt.log != nil {
					rt.log.Error("router handler panic",
						"remote", conn.RemoteAddr().String(),
						"panic", fmt.Sprint(r))
				}
			}()
			rt.Handle(conn, conn)
		}()
	}
}

func (rt *Router) isClosed() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.closed
}

// Close shuts the router down: the watcher stops, listeners and client
// connections close, in-flight handlers drain, then the backend pools
// tear down. (Pools close last — handlers may hold in-flight calls.)
func (rt *Router) Close() error {
	rt.mu.Lock()
	if !rt.closed {
		rt.closed = true
		for l := range rt.listeners {
			l.Close()
		}
		for c := range rt.conns {
			c.Close()
		}
	}
	rt.mu.Unlock()
	if rt.watcherStop != nil {
		close(rt.watcherStop)
		rt.watcherWG.Wait()
		rt.watcherStop = nil
	}
	rt.handlers.Wait()
	for _, p := range rt.pools {
		p.Close()
	}
	return nil
}

// opKind is the settle-time shape of one dispatched request.
type opKind uint8

const (
	opForward opKind = iota // one call, verbatim reply
	opLocal                 // precomputed router-side reply
	opMSearch               // per-backend MSEARCH calls + slot plan
	opScatter               // per-backend calls + merge rule
)

// mergeKind selects the scatter reassembly rule.
type mergeKind uint8

const (
	mergeOK mergeKind = iota
	mergeMaskedSearch
	mergeEngines
	mergeHealthAll
	mergeHealthEngine
	mergeScrub
	mergeStats
	mergeSlowlogLen
	mergeSlowlogGet
	mergeMetricsAll
	mergeMetricsEngine
	mergeHistQuantiles
	mergeHistSum
	mergeTrace
	mergeWALStatus
)

// pendingOp is one in-flight request of a client burst. The struct
// and its slices are reused across bursts (nextOp), so the forward
// path allocates nothing.
type pendingOp struct {
	kind       opKind
	merge      mergeKind
	backend    int  // opForward target
	idempotent bool // retry on in-flight transport death
	pin        string
	unpin      string
	calls      []*Call      // opForward: 1; scatter/msearch: per-backend (nil = uninvolved)
	slotBk     []int        // opMSearch: original slot -> backend
	local      []byte       // opLocal reply
	tr         *trace.Trace // router-side trace of this request (nil = untraced)
}

func (op *pendingOp) reset() {
	op.kind, op.merge, op.backend, op.idempotent = opForward, mergeOK, 0, false
	op.pin, op.unpin = "", ""
	op.calls = op.calls[:0]
	op.slotBk = op.slotBk[:0]
	op.local = op.local[:0]
	op.tr = nil
}

// rconn is one client connection's reusable state: the line reader,
// the reply buffer, the pending-op arena, and the scatter scratch.
// lane is the client's sticky pool lane: every submission this client
// makes to a given backend rides one connection, so its own requests
// reach that backend in order (the pipelining contract a direct
// connection gives); different clients land on different lanes and
// coalesce.
type rconn struct {
	r    *bufio.Reader
	out  []byte
	lane uint64
	ops  []pendingOp
	reqb [][]byte     // per-backend MSEARCH builders
	curs []int        // per-backend reassembly cursors
	tr   *trace.Trace // trace of the request currently dispatching
	tagb []byte       // *TID tagging scratch (reused per submission)
	cmdb []byte       // rewritten-command scratch (METRICS ... LATENCY -> HIST)
}

// laneCounter hands each handled connection its lane.
var laneCounter atomic.Uint64

var rconnPool = sync.Pool{
	New: func() any {
		return &rconn{
			r:   bufio.NewReaderSize(nil, server.MaxLineBytes),
			out: make([]byte, 0, 4096),
		}
	},
}

// nextOp returns a reset pendingOp slot, reusing backing arrays.
func (st *rconn) nextOp() *pendingOp {
	if len(st.ops) < cap(st.ops) {
		st.ops = st.ops[:len(st.ops)+1]
	} else {
		st.ops = append(st.ops, pendingOp{})
	}
	op := &st.ops[len(st.ops)-1]
	op.reset()
	return op
}

// flushThreshold and maxClientPipeline bound how much reply data and
// how many pending ops accumulate before a settle is forced even
// though more pipelined requests are buffered.
const (
	flushThreshold    = 32 * 1024
	maxClientPipeline = 512
)

// Handle processes one client connection's request stream: read every
// request already buffered, dispatch each to its backend(s) — they
// coalesce into pool write bursts — then settle the burst: await
// replies in request order, reassemble, and flush once. Split from
// Serve so tests drive it over arbitrary pipes; safe for concurrent
// use by any number of connections.
func (rt *Router) Handle(r io.Reader, w io.Writer) {
	st := rconnPool.Get().(*rconn)
	st.r.Reset(r)
	st.out = st.out[:0]
	st.lane = laneCounter.Add(1)
	st.ops = st.ops[:0]
	if len(st.reqb) < len(rt.pools) {
		st.reqb = make([][]byte, len(rt.pools))
		st.curs = make([]int, len(rt.pools))
	}
	defer func() {
		st.r.Reset(nil)
		rconnPool.Put(st)
	}()
	for {
		line, err := st.r.ReadSlice('\n')
		switch {
		case err == nil:
			rt.dispatch(st, trimEOL(line))
			if st.r.Buffered() == 0 || len(st.ops) >= maxClientPipeline {
				if !rt.settle(st, w) {
					return
				}
			}
		case errors.Is(err, bufio.ErrBufferFull):
			rt.settle(st, w)
			w.Write([]byte("ERR line too long\n")) //nolint:errcheck // connection is ending either way
			return
		case errors.Is(err, io.EOF):
			if len(line) > 0 {
				rt.dispatch(st, trimEOL(line))
			}
			rt.settle(st, w)
			return
		default:
			if len(line) > 0 {
				rt.dispatch(st, trimEOL(line))
			}
			if rt.settle(st, w) {
				fmt.Fprintf(w, "ERR read: %s\n", err.Error()) //nolint:errcheck
			}
			return
		}
	}
}

// dispatch routes one request line: submit its call(s) and append the
// pending op. It never blocks on replies — that is settle's job — so
// a pipelined client burst reaches the pools as one coalesced window.
// When the router has a collector, each request grows its own trace;
// ineligible traces (sampler missed, slowlog off) recycle immediately
// so the untraced forward path stays allocation-free.
func (rt *Router) dispatch(st *rconn, line []byte) {
	if tr := rt.trc.Begin(); tr != nil {
		if rt.trc.Eligible(tr) {
			st.tr = tr
		} else {
			rt.trc.End(tr)
		}
	}
	rt.route(st, line)
	if st.tr != nil {
		// Every route path appends exactly one op; hand the trace to it
		// for settle-time span recording and admission.
		st.ops[len(st.ops)-1].tr = st.tr
		st.tr = nil
	}
}

// route picks the backend(s) for one line and submits. Split from
// dispatch so trace bookkeeping wraps every return path once.
func (rt *Router) route(st *rconn, line []byte) {
	sc := bscan{b: line}
	cmd, ok := sc.next()
	if !ok {
		rt.forward(st, line, 0, false) // empty request: backend renders the ERR
		return
	}
	// The trace copies what it records: the line buffer dies at the
	// next ReadSlice, long before settle finishes this trace.
	st.tr.RequestBytes(cmd, nil, nil)
	switch {
	case eqFold(cmd, "SEARCH"):
		eng, ok1 := sc.next()
		key, ok2 := sc.next()
		mask, hasMask := sc.next()
		_, extra := sc.next()
		if !ok1 || !ok2 || extra {
			rt.forwardUsage(st, line, eng, ok1)
			return
		}
		st.tr.RequestBytes(cmd, eng, key)
		if rt.Pinned(string(eng)) {
			rt.forward(st, line, rt.ring.OwnerEngine(string(eng)), true)
			return
		}
		if hasMask {
			_ = mask
			rt.scatter(st, line, mergeMaskedSearch)
			return
		}
		if v, ok := parseVecBytes(key); ok {
			rt.forward(st, line, rt.ring.Owner(string(eng), v), true)
		} else {
			rt.forward(st, line, rt.ring.OwnerEngine(string(eng)), true)
		}
	case eqFold(cmd, "INSERT"), eqFold(cmd, "DELETE"):
		eng, ok1 := sc.next()
		key, ok2 := sc.next()
		if !ok1 || !ok2 {
			rt.forwardUsage(st, line, eng, ok1)
			return
		}
		st.tr.RequestBytes(cmd, eng, key)
		if rt.Pinned(string(eng)) {
			rt.forward(st, line, rt.ring.OwnerEngine(string(eng)), false)
			return
		}
		if v, ok := parseVecBytes(key); ok {
			rt.forward(st, line, rt.ring.Owner(string(eng), v), false)
		} else {
			rt.forward(st, line, rt.ring.OwnerEngine(string(eng)), false)
		}
	case eqFold(cmd, "MSEARCH"):
		rt.dispatchMSearch(st, line, sc)
	case eqFold(cmd, "MINSERT"), eqFold(cmd, "MDELETE"), eqFold(cmd, "TINSERT"):
		eng, ok1 := sc.next()
		rt.forwardUsage(st, line, eng, ok1)
	case eqFold(cmd, "TSEARCH"):
		eng, ok1 := sc.next()
		if !ok1 {
			rt.forward(st, line, 0, false)
			return
		}
		rt.forward(st, line, rt.ring.OwnerEngine(string(eng)), true)
	case eqFold(cmd, "EXPLAIN"):
		sub, okSub := sc.next()
		eng, ok1 := sc.next()
		key, ok2 := sc.next()
		_, hasMask := sc.next()
		if !okSub || !eqFold(sub, "SEARCH") || !ok1 || !ok2 {
			rt.forwardUsage(st, line, eng, ok1)
			return
		}
		if hasMask || rt.Pinned(string(eng)) {
			rt.forward(st, line, rt.ring.OwnerEngine(string(eng)), true)
			return
		}
		if v, ok := parseVecBytes(key); ok {
			rt.forward(st, line, rt.ring.Owner(string(eng), v), true)
		} else {
			rt.forward(st, line, rt.ring.OwnerEngine(string(eng)), true)
		}
	case eqFold(cmd, "STATS"):
		eng, ok1 := sc.next()
		_, extra := sc.next()
		if !ok1 || extra {
			rt.forward(st, line, 0, false)
			return
		}
		if rt.Pinned(string(eng)) {
			rt.forward(st, line, rt.ring.OwnerEngine(string(eng)), true)
			return
		}
		rt.scatter(st, line, mergeStats)
	case eqFold(cmd, "ENGINES"):
		rt.scatter(st, line, mergeEngines)
	case eqFold(cmd, "HEALTH"):
		eng, hasEng := sc.next()
		sub, hasSub := sc.next()
		_, extra := sc.next()
		switch {
		case extra:
			rt.forward(st, line, 0, false)
		case !hasEng:
			rt.scatter(st, line, mergeHealthAll)
		case rt.Pinned(string(eng)):
			rt.forward(st, line, rt.ring.OwnerEngine(string(eng)), !hasSub)
		case hasSub && eqFold(sub, "SCRUB"):
			rt.scatter(st, line, mergeScrub)
		case hasSub:
			rt.forward(st, line, 0, false) // bad subcommand: backend usage ERR
		default:
			rt.scatter(st, line, mergeHealthEngine)
		}
	case eqFold(cmd, "WAL"):
		rt.scatter(st, line, mergeWALStatus)
	case eqFold(cmd, "CREATE"):
		kw, okKw := sc.next()
		name, okName := sc.next()
		tkw, okTkw := sc.next()
		typ, okTyp := sc.next()
		if !okKw || !eqFold(kw, "ENGINE") || !okName || !okTkw || !eqFold(tkw, "TYPE") || !okTyp {
			rt.forward(st, line, 0, false)
			return
		}
		if eqFold(typ, "EXACT") {
			rt.scatter(st, line, mergeOK)
			return
		}
		// Pin at dispatch, not settle: requests later in this same
		// pipelined burst must already route the new typed engine to
		// its home. Settle rolls the pin back if the CREATE failed.
		rt.pin(string(name), true)
		op := rt.forward(st, line, rt.ring.OwnerEngine(string(name)), false)
		op.pin = string(name)
	case eqFold(cmd, "DROP"):
		kw, okKw := sc.next()
		name, okName := sc.next()
		if !okKw || !eqFold(kw, "ENGINE") || !okName {
			rt.forward(st, line, 0, false)
			return
		}
		if rt.Pinned(string(name)) {
			op := rt.forward(st, line, rt.ring.OwnerEngine(string(name)), false)
			op.unpin = string(name)
			return
		}
		rt.scatter(st, line, mergeOK)
	case eqFold(cmd, "METRICS"):
		rt.dispatchMetrics(st, line)
	case eqFold(cmd, "SLOWLOG"):
		rt.dispatchSlowlog(st, line, sc)
	case eqFold(cmd, "TRACE"):
		rt.dispatchTrace(st, line, sc)
	default:
		rt.forward(st, line, 0, false)
	}
}

// forward submits line to one backend and records the pending op.
func (rt *Router) forward(st *rconn, line []byte, backend int, idempotent bool) *pendingOp {
	op := st.nextOp()
	op.kind = opForward
	op.backend = backend
	op.idempotent = idempotent
	if tr := st.tr; tr != nil {
		tr.Span(trace.KindRoute, tr.Begin) // parse + ring lookup, dispatch-relative
		tr.Add(trace.Event{Kind: trace.KindBreaker, Bucket: uint32(backend),
			Hit: rt.pools[backend].BreakerOpen()})
		op.calls = append(op.calls, rt.pools[backend].SubmitLaneT(st.tag(line, 1), st.lane, true))
		return op
	}
	op.calls = append(op.calls, rt.pools[backend].SubmitLane(line, st.lane))
	return op
}

// tag prefixes line with the trace's wire annotation — "*TID
// <hex-id>/<span> <line>" — into the rconn scratch. The backend joins
// its own trace to the id, so a later TRACE GET <id>/<span> on that
// backend returns this hop's child trace. The trace id is minted
// lazily, once per router trace; a minted id does not make the
// router's own trace retainable (only slow or sampled ones are kept).
func (st *rconn) tag(line []byte, span uint32) []byte {
	b := append(st.tagb[:0], "*TID "...)
	b = strconv.AppendUint(b, st.tr.Mint(), 16)
	b = append(b, '/')
	b = strconv.AppendUint(b, uint64(span), 10)
	b = append(b, ' ')
	b = append(b, line...)
	st.tagb = b
	return b
}

// forwardUsage anchors a malformed engine-op line: to the engine's
// home when an engine field exists (deterministic, and the right place
// for its real ops too), else to backend 0. The backend renders the
// authoritative ERR, byte-identical to a direct connection.
func (rt *Router) forwardUsage(st *rconn, line []byte, eng []byte, haveEng bool) {
	if haveEng {
		rt.forward(st, line, rt.ring.OwnerEngine(string(eng)), false)
	} else {
		rt.forward(st, line, 0, false)
	}
}

// scatter submits line to every backend with a merge rule. Traced
// scatters tag backend b's copy with child span b+1.
func (rt *Router) scatter(st *rconn, line []byte, merge mergeKind) *pendingOp {
	op := st.nextOp()
	op.kind = opScatter
	op.merge = merge
	if tr := st.tr; tr != nil {
		tr.Span(trace.KindRoute, tr.Begin)
		for i, p := range rt.pools {
			tr.Add(trace.Event{Kind: trace.KindBreaker, Bucket: uint32(i), Hit: p.BreakerOpen()})
			op.calls = append(op.calls, p.SubmitLaneT(st.tag(line, uint32(i+1)), st.lane, true))
		}
		return op
	}
	for _, p := range rt.pools {
		op.calls = append(op.calls, p.SubmitLane(line, st.lane))
	}
	return op
}

// dispatchMSearch splits the pair list by ring owner and issues one
// MSEARCH per involved backend. Malformed lists (odd arity, bad hex)
// forward whole to backend 0: the server validates every key before
// executing any slot, so nothing runs and the ERR is authoritative.
func (rt *Router) dispatchMSearch(st *rconn, line []byte, sc bscan) {
	n := sc.count()
	if n == 0 || n%2 != 0 {
		rt.forward(st, line, 0, false)
		return
	}
	op := st.nextOp()
	op.kind = opMSearch
	for b := range rt.pools {
		if cap(st.reqb[b]) == 0 {
			st.reqb[b] = make([]byte, 0, 256)
		}
		st.reqb[b] = st.reqb[b][:0]
	}
	for {
		eng, ok := sc.next()
		if !ok {
			break
		}
		key, _ := sc.next()
		v, okKey := parseVecBytes(key)
		if !okKey {
			// Bad hex: the whole line belongs to one backend's parser
			// (the server validates every key before executing any
			// slot, so nothing has run). Drop the op — no calls were
			// submitted yet — and forward whole.
			st.ops = st.ops[:len(st.ops)-1]
			rt.forward(st, line, 0, false)
			return
		}
		var b int
		if rt.Pinned(string(eng)) {
			b = rt.ring.OwnerEngine(string(eng))
		} else {
			b = rt.ring.Owner(string(eng), v)
		}
		if len(st.reqb[b]) == 0 {
			st.reqb[b] = append(st.reqb[b], "MSEARCH"...)
		}
		st.reqb[b] = append(st.reqb[b], ' ')
		st.reqb[b] = append(st.reqb[b], eng...)
		st.reqb[b] = append(st.reqb[b], ' ')
		st.reqb[b] = append(st.reqb[b], key...)
		op.slotBk = append(op.slotBk, b)
	}
	if st.tr != nil {
		st.tr.Span(trace.KindRoute, st.tr.Begin)
	}
	for b := range rt.pools {
		switch {
		case len(st.reqb[b]) == 0:
			op.calls = append(op.calls, nil)
		case st.tr != nil:
			op.calls = append(op.calls, rt.pools[b].SubmitLaneT(st.tag(st.reqb[b], uint32(b+1)), st.lane, true))
		default:
			op.calls = append(op.calls, rt.pools[b].SubmitLane(st.reqb[b], st.lane))
		}
	}
}

// replyUnavailable is the router's shed line for single-reply
// requests; MSEARCH slots use server.SlotUnavailable. Only ever sent
// instead of an answer, never alongside a wrong one.
var replyUnavailable = []byte("ERR unavailable")

// settle awaits the burst's calls in request order, reassembles
// scatter replies, appends everything to the out buffer, and flushes
// it with one write. Reports false when the client's write side died.
func (rt *Router) settle(st *rconn, w io.Writer) bool {
	for i := range st.ops {
		op := &st.ops[i]
		mark := len(st.out)
		switch op.kind {
		case opLocal:
			st.out = append(st.out, op.local...)
		case opForward:
			st.out = rt.settleForward(st.out, op)
		case opMSearch:
			st.out = rt.settleMSearch(st, st.out, op)
		case opScatter:
			st.out = rt.settleScatter(st.out, op)
		}
		if op.tr != nil {
			op.tr.SetResult(server.ResultToken(st.out[mark:]))
			if rt.log == nil {
				rt.trc.End(op.tr)
			} else if slow := rt.trc.EndCopy(op.tr); slow != nil {
				rt.log.Warn("slow proxied request",
					"id", slow.ID,
					"cmd", slow.Cmd,
					"engine", slow.Engine,
					"key", slow.Key,
					"us", slow.Dur.Microseconds(),
					"result", slow.Result)
			}
			op.tr = nil
		}
		st.out = append(st.out, '\n')
	}
	st.ops = st.ops[:0]
	ok := true
	if len(st.out) > 0 {
		_, err := w.Write(st.out)
		st.out = st.out[:0]
		ok = err == nil
	}
	return ok
}

// settleForward resolves a single-backend call, retrying idempotent
// reads whose connection died in flight.
func (rt *Router) settleForward(out []byte, op *pendingOp) []byte {
	c := op.calls[0]
	resp, err := c.Wait()
	for attempt := 1; err != nil && op.idempotent && errors.Is(err, ErrBackendDown) && attempt <= rt.retries; attempt++ {
		rt.met.Backend(op.backend).IncRetries()
		if op.tr != nil {
			op.tr.Add(trace.Event{Kind: trace.KindRetry, Bucket: uint32(op.backend),
				Matches: int32(attempt)})
		}
		time.Sleep(rt.retryBackoff << uint(attempt-1))
		nc := rt.pools[op.backend].SubmitT(c.req, c.traced) // the *TID tag rides in c.req
		c.Release()
		c = nc
		resp, err = c.Wait()
	}
	recordCall(op.tr, c, op.backend, 1)
	ok := err == nil && tokenEq(resp, server.ReplyOK)
	if op.pin != "" && !ok {
		rt.pin(op.pin, false) // CREATE failed: roll the speculative pin back
	}
	if op.unpin != "" && ok {
		rt.pin(op.unpin, false) // DROP succeeded: the engine is gone
	}
	if err != nil {
		out = append(out, replyUnavailable...)
	} else {
		out = append(out, resp...)
	}
	c.Release()
	return out
}

// settleMSearch reassembles per-backend MRESULTS into the caller's
// original slot order.
func (rt *Router) settleMSearch(st *rconn, out []byte, op *pendingOp) []byte {
	// Await every involved backend first; a slow shard must not stall
	// slots of others being appended out of order anyway (order is
	// fixed by the plan, not by arrival).
	for _, c := range op.calls {
		if c != nil {
			c.Wait() //nolint:errcheck // consumed per-slot below
		}
	}
	// Per-backend cursors walk each MRESULTS reply left to right; the
	// slot plan visits each backend's slots in the order they were
	// packed, so a cursor never rewinds.
	for b, c := range op.calls {
		st.curs[b] = 0
		if c == nil {
			continue
		}
		if resp, err := c.Wait(); err == nil {
			// Position after the "MRESULTS" token; anything else
			// (an ERR line) marks every slot of this backend failed.
			if tok, rest := firstToken(resp); eqFold(tok, server.ReplyMResults) {
				st.curs[b] = rest
			} else {
				st.curs[b] = -1
			}
		} else {
			st.curs[b] = -1
		}
	}
	out = append(out, server.ReplyMResults...)
	for _, b := range op.slotBk {
		out = append(out, ' ')
		c := op.calls[b]
		if c == nil || st.curs[b] < 0 {
			out = append(out, server.SlotUnavailable...)
			continue
		}
		resp, _ := c.Wait()
		slot, next := tokenAt(resp, st.curs[b])
		if len(slot) == 0 {
			// Backend answered fewer slots than asked: desync; never
			// serve a shifted reply.
			out = append(out, server.SlotUnavailable...)
			continue
		}
		st.curs[b] = next
		out = append(out, slot...)
	}
	for b, c := range op.calls {
		if c != nil {
			recordCall(op.tr, c, b, uint32(b+1))
			c.Release()
		}
	}
	return out
}

// settleScatter resolves a broadcast according to its merge rule.
func (rt *Router) settleScatter(out []byte, op *pendingOp) []byte {
	for _, c := range op.calls {
		c.Wait() //nolint:errcheck // re-read per merge rule below
	}
	switch op.merge {
	case mergeOK:
		out = rt.mergeAllOK(out, op)
	case mergeMaskedSearch:
		out = mergeMasked(out, op)
	case mergeEngines:
		out = mergeEngineUnion(out, op)
	case mergeHealthAll:
		out = rt.mergeHealthRoster(out, op)
	case mergeHealthEngine:
		out = rt.mergeHealthCounters(out, op)
	case mergeScrub:
		out = rt.mergeScrubReports(out, op)
	case mergeStats:
		out = mergeStatsAgg(out, op)
	case mergeSlowlogLen:
		out = rt.mergeSlowlogLen(out, op)
	case mergeSlowlogGet:
		out = rt.mergeSlowlogGet(out, op)
	case mergeMetricsAll:
		out = rt.mergeMetricsAll(out, op)
	case mergeMetricsEngine:
		out = rt.mergeMetricsEngine(out, op)
	case mergeHistQuantiles:
		out = rt.mergeHistQuantiles(out, op)
	case mergeHistSum:
		out = rt.mergeHistSum(out, op)
	case mergeTrace:
		out = rt.mergeTrace(out, op)
	case mergeWALStatus:
		out = rt.mergeWALStatus(out, op)
	}
	for b, c := range op.calls {
		recordCall(op.tr, c, b, uint32(b+1))
		c.Release()
	}
	return out
}

// recordCall turns one traced pool call's timestamps into router
// spans: queue_wait (submit -> pool writer picked it up), backend_rtt
// (write -> reply decoded; Span carries the child span id a stitcher
// resolves via TRACE GET on that backend), and the coalesced write
// burst size. A call shed before reaching a connection (open breaker,
// closed pool) never got a write stamp: all of its time was queueing.
func recordCall(tr *trace.Trace, c *Call, backend int, span uint32) {
	if tr == nil || !c.traced {
		return
	}
	begin := tr.Begin.UnixNano()
	if c.tWrite != 0 {
		tr.Add(trace.Event{Kind: trace.KindQueue, Bucket: uint32(backend),
			Offset: time.Duration(c.tSubmit - begin), Dur: time.Duration(c.tWrite - c.tSubmit)})
		tr.Add(trace.Event{Kind: trace.KindRTT, Bucket: uint32(backend), Span: span,
			Offset: time.Duration(c.tWrite - begin), Dur: time.Duration(c.tDone - c.tWrite)})
		tr.Add(trace.Event{Kind: trace.KindBurst, Bucket: uint32(backend), Matches: c.burst})
	} else {
		tr.Add(trace.Event{Kind: trace.KindQueue, Bucket: uint32(backend),
			Offset: time.Duration(c.tSubmit - begin), Dur: time.Duration(c.tDone - c.tSubmit)})
	}
}

// mergeAllOK: every backend must say OK; otherwise the first non-OK
// reply (in backend order) wins, and a transport failure sheds. Used
// for broadcast CREATE/DROP of sharded engines, where partial
// application is surfaced, not hidden. On success, settle-side pin
// bookkeeping has already been handled by the forward path (pinned
// creates are not broadcast).
func (rt *Router) mergeAllOK(out []byte, op *pendingOp) []byte {
	for _, c := range op.calls {
		resp, err := c.Wait()
		if err != nil {
			return append(out, replyUnavailable...)
		}
		if !tokenEq(resp, server.ReplyOK) {
			return append(out, resp...)
		}
	}
	return append(out, server.ReplyOK...)
}

// mergeMasked: a masked probe can match on any shard — first HIT in
// backend order wins; a backend that could not rule the key out (or
// could not be asked) forces the explicit error forms.
func mergeMasked(out []byte, op *pendingOp) []byte {
	sawDown, sawMissErr, sawMiss := false, false, false
	var firstOther []byte
	for _, c := range op.calls {
		resp, err := c.Wait()
		switch {
		case err != nil:
			sawDown = true
		case hasPrefix(resp, "HIT "):
			return append(out, resp...)
		case tokenEq(resp, server.ReplyMissErr):
			sawMissErr = true
		case tokenEq(resp, server.ReplyMiss):
			sawMiss = true
		default:
			if firstOther == nil {
				firstOther = resp
			}
		}
	}
	switch {
	case sawDown:
		return append(out, replyUnavailable...)
	case sawMissErr:
		return append(out, server.ReplyMissErr...)
	case sawMiss:
		return append(out, server.ReplyMiss...)
	case firstOther != nil:
		return append(out, firstOther...)
	}
	return append(out, server.ReplyMiss...)
}

// mergeEngineUnion: the cluster roster is the union of backend
// rosters, first-seen order scanning backends in configuration order.
func mergeEngineUnion(out []byte, op *pendingOp) []byte {
	seen := make(map[string]struct{}, 8)
	mark := len(out)
	out = append(out, "ENGINES"...)
	for _, c := range op.calls {
		resp, err := c.Wait()
		if err != nil {
			return append(out[:mark], replyUnavailable...)
		}
		sc := bscan{b: resp}
		if tok, ok := sc.next(); !ok || !eqFold(tok, "ENGINES") {
			continue
		}
		for {
			name, ok := sc.next()
			if !ok {
				break
			}
			if _, dup := seen[string(name)]; dup {
				continue
			}
			seen[string(name)] = struct{}{}
			out = append(out, ' ')
			out = append(out, name...)
		}
	}
	return out
}

// healthRank orders the engine health vocabulary worst-last.
func healthRank(state []byte) int {
	switch {
	case eqFold(state, "failed"):
		return 2
	case eqFold(state, "degraded"):
		return 1
	default:
		return 0
	}
}

var healthNames = [...]string{"healthy", "degraded", "failed"}

// mergeHealthRoster: per engine name, the worst state reported by any
// backend (a sharded engine is only as available as its sickest
// shard), names in first-seen order scanning backends by address — so
// the merged roster is deterministic regardless of how the backend
// list was spelled.
func (rt *Router) mergeHealthRoster(out []byte, op *pendingOp) []byte {
	type ent struct {
		name string
		rank int
	}
	var ents []ent
	idx := make(map[string]int, 8)
	for _, bi := range rt.order {
		resp, err := op.calls[bi].Wait()
		if err != nil {
			return append(out, replyUnavailable...)
		}
		sc := bscan{b: resp}
		if tok, ok := sc.next(); !ok || !eqFold(tok, "HEALTH") {
			continue
		}
		for {
			pair, ok := sc.next()
			if !ok {
				break
			}
			name, val, ok := splitKV(pair)
			if !ok {
				continue
			}
			r := healthRank(val)
			if i, seen := idx[string(name)]; seen {
				if r > ents[i].rank {
					ents[i].rank = r
				}
			} else {
				idx[string(name)] = len(ents)
				ents = append(ents, ent{name: string(name), rank: r})
			}
		}
	}
	out = append(out, "HEALTH"...)
	for _, e := range ents {
		out = append(out, ' ')
		out = append(out, e.name...)
		out = append(out, '=')
		out = append(out, healthNames[e.rank]...)
	}
	return out
}

// mergeHealthCounters: HEALTH <eng> across shards — worst state,
// summed error-coding counters, summed overflow occupancy. Backends
// scan in address order so the surviving ERR (if any) is stable.
func (rt *Router) mergeHealthCounters(out []byte, op *pendingOp) []byte {
	var (
		got      bool
		rank     int
		sums     map[string]int64
		ovLen    int64
		ovCap    int64
		firstErr []byte
		engine   []byte
	)
	order := []string{"quarantined", "corrected", "uncorrectable", "read_errors", "scrubs", "scrub_bits"}
	sums = make(map[string]int64, len(order))
	for _, bi := range rt.order {
		resp, err := op.calls[bi].Wait()
		if err != nil {
			return append(out, replyUnavailable...)
		}
		sc := bscan{b: resp}
		if tok, ok := sc.next(); !ok || !eqFold(tok, "HEALTH") {
			if firstErr == nil {
				firstErr = resp
			}
			continue
		}
		got = true
		for {
			pair, ok := sc.next()
			if !ok {
				break
			}
			k, v, ok := splitKV(pair)
			if !ok {
				continue
			}
			switch {
			case eqFold(k, "engine"):
				engine = v
			case eqFold(k, "state"):
				if r := healthRank(v); r > rank {
					rank = r
				}
			case eqFold(k, "overflow"):
				if a, b, ok := splitSlash(v); ok {
					ovLen += parseInt(a)
					ovCap += parseInt(b)
				}
			default:
				sums[string(k)] += parseInt(v)
			}
		}
	}
	if !got {
		if firstErr != nil {
			return append(out, firstErr...)
		}
		return append(out, replyUnavailable...)
	}
	out = append(out, "HEALTH engine="...)
	out = append(out, engine...)
	out = append(out, " state="...)
	out = append(out, healthNames[rank]...)
	for _, k := range order {
		out = append(out, ' ')
		out = append(out, k...)
		out = append(out, '=')
		out = strconv.AppendInt(out, sums[k], 10)
	}
	out = append(out, " overflow="...)
	out = strconv.AppendInt(out, ovLen, 10)
	out = append(out, '/')
	return strconv.AppendInt(out, ovCap, 10)
}

// mergeScrubReports: HEALTH <eng> SCRUB across shards — every shard
// scrubs, repairs sum, backends scanned in address order.
func (rt *Router) mergeScrubReports(out []byte, op *pendingOp) []byte {
	var rows, bits, released int64
	var engine []byte
	got := false
	var firstErr []byte
	for _, bi := range rt.order {
		resp, err := op.calls[bi].Wait()
		if err != nil {
			return append(out, replyUnavailable...)
		}
		sc := bscan{b: resp}
		if tok, ok := sc.next(); !ok || !eqFold(tok, "OK") {
			if firstErr == nil {
				firstErr = resp
			}
			continue
		}
		got = true
		for {
			pair, ok := sc.next()
			if !ok {
				break
			}
			k, v, ok := splitKV(pair)
			if !ok {
				continue
			}
			switch {
			case eqFold(k, "engine"):
				engine = v
			case eqFold(k, "rows"):
				rows += parseInt(v)
			case eqFold(k, "bits"):
				bits += parseInt(v)
			case eqFold(k, "released"):
				released += parseInt(v)
			}
		}
	}
	if !got {
		if firstErr != nil {
			return append(out, firstErr...)
		}
		return append(out, replyUnavailable...)
	}
	out = append(out, "OK scrub engine="...)
	out = append(out, engine...)
	out = append(out, " rows="...)
	out = strconv.AppendInt(out, rows, 10)
	out = append(out, " bits="...)
	out = strconv.AppendInt(out, bits, 10)
	out = append(out, " released="...)
	return strconv.AppendInt(out, released, 10)
}

// mergeWALStatus: WAL STATUS across the fleet — summed commit
// horizons (lsn, durable, segments; each node numbers its own log, so
// the sums are fleet totals), the most conservative snapshot bound
// (min), and the sync policy when every node agrees ("mixed"
// otherwise). Node-local latency keys of the SYNC form are dropped
// from the merged reply. A backend that answers ERR (wal disabled, or
// a usage error) wins verbatim, address order making it stable.
func (rt *Router) mergeWALStatus(out []byte, op *pendingOp) []byte {
	var (
		got                    bool
		nodes                  int64
		lsn, durable, segments int64
		snapMin                int64 = -1
		policy                 []byte
		mixed                  bool
	)
	for _, bi := range rt.order {
		resp, err := op.calls[bi].Wait()
		if err != nil {
			return append(out, replyUnavailable...)
		}
		sc := bscan{b: resp}
		if tok, ok := sc.next(); !ok || !eqFold(tok, "WAL") {
			// Any node without a WAL (or otherwise erring) fails the
			// whole fleet answer: a partial sum would overstate what is
			// actually durable.
			return append(out, resp...)
		}
		got = true
		nodes++
		for {
			pair, ok := sc.next()
			if !ok {
				break
			}
			k, v, ok := splitKV(pair)
			if !ok {
				continue
			}
			switch {
			case eqFold(k, "lsn"):
				lsn += parseInt(v)
			case eqFold(k, "durable"):
				durable += parseInt(v)
			case eqFold(k, "segments"):
				segments += parseInt(v)
			case eqFold(k, "snapshot_lsn"):
				if s := parseInt(v); snapMin < 0 || s < snapMin {
					snapMin = s
				}
			case eqFold(k, "sync"):
				if policy == nil {
					policy = v
				} else if string(policy) != string(v) {
					mixed = true
				}
			}
		}
	}
	if !got {
		return append(out, replyUnavailable...)
	}
	if snapMin < 0 {
		snapMin = 0
	}
	out = append(out, "WAL nodes="...)
	out = strconv.AppendInt(out, nodes, 10)
	out = append(out, " lsn="...)
	out = strconv.AppendInt(out, lsn, 10)
	out = append(out, " durable="...)
	out = strconv.AppendInt(out, durable, 10)
	out = append(out, " segments="...)
	out = strconv.AppendInt(out, segments, 10)
	out = append(out, " snapshot_lsn="...)
	out = strconv.AppendInt(out, snapMin, 10)
	out = append(out, " sync="...)
	if mixed {
		out = append(out, "mixed"...)
	} else {
		out = append(out, policy...)
	}
	return out
}

// mergeStatsAgg: STATS across shards. Counts sum exactly; alpha is
// the mean shard load factor (shards share one geometry, so the mean
// is the cluster load factor); amal is the lookup-weighted mean — the
// cluster's rows-accessed-per-lookup over the same traffic.
func mergeStatsAgg(out []byte, op *pendingOp) []byte {
	var (
		n, hits, misses int64
		alphaSum        float64
		amalWeighted    float64
		lookups         float64
		shards          int
		firstErr        []byte
	)
	for _, c := range op.calls {
		resp, err := c.Wait()
		if err != nil {
			return append(out, replyUnavailable...)
		}
		sc := bscan{b: resp}
		if tok, ok := sc.next(); !ok || !eqFold(tok, "STATS") {
			if firstErr == nil {
				firstErr = resp
			}
			continue
		}
		shards++
		var sn, sh, sm int64
		var salpha, samal float64
		for {
			pair, ok := sc.next()
			if !ok {
				break
			}
			k, v, ok := splitKV(pair)
			if !ok {
				continue
			}
			switch {
			case eqFold(k, "n"):
				sn = parseInt(v)
			case eqFold(k, "alpha"):
				salpha = parseFloat(v)
			case eqFold(k, "amal"):
				samal = parseFloat(v)
			case eqFold(k, "hits"):
				sh = parseInt(v)
			case eqFold(k, "misses"):
				sm = parseInt(v)
			}
		}
		n += sn
		hits += sh
		misses += sm
		alphaSum += salpha
		l := float64(sh + sm)
		amalWeighted += samal * l
		lookups += l
	}
	if shards == 0 {
		if firstErr != nil {
			return append(out, firstErr...)
		}
		return append(out, replyUnavailable...)
	}
	alpha := alphaSum / float64(shards)
	amal := amalWeighted / lookups // NaN with zero lookups, like a fresh engine's
	out = append(out, "STATS n="...)
	out = strconv.AppendInt(out, n, 10)
	out = append(out, " alpha="...)
	out = strconv.AppendFloat(out, alpha, 'f', 3, 64)
	out = append(out, " amal="...)
	out = strconv.AppendFloat(out, amal, 'f', 3, 64)
	out = append(out, " hits="...)
	out = strconv.AppendInt(out, hits, 10)
	out = append(out, " misses="...)
	return strconv.AppendInt(out, misses, 10)
}
