package cluster

import (
	"bufio"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"testing"
	"time"

	"caram/internal/trace"
)

// The PR-8 performance contract, frozen into BENCH_PR8.json:
//
//   - BenchmarkRouterPipelinedSearch/depth8 must be >= 2x the ops/sec
//     of BenchmarkUnpipelinedProxySearch/depth8 on loopback. Depth is
//     the client pipeline depth: how many requests each client writes
//     before reading replies. The naive proxy holds one connection per
//     backend behind a mutex and does one round trip at a time, so it
//     cannot convert depth into wire-level batching; the router's
//     pools coalesce concurrent requests into single writes.
//   - BenchmarkRouterForwardPath must report 0 allocs/op: the
//     dispatch -> pool -> settle path reuses every buffer.

// benchCluster boots two real TCP backends preloaded with benchKeys
// self-validating records, inserted directly (not through the frontend
// under test).
const benchKeys = 128

func benchCluster(b *testing.B) []*testBackend {
	b.Helper()
	bks := []*testBackend{startBackend(b, "db"), startBackend(b, "db")}
	ring, err := NewRing([]string{"b0", "b1"}, DefaultReplicas)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < len(bks); i++ {
		conn, err := net.Dial("tcp", bks[i].addr)
		if err != nil {
			b.Fatal(err)
		}
		bw := bufio.NewWriter(conn)
		n := 0
		for k := 1; k <= benchKeys; k++ {
			v, _ := parseVecBytes([]byte(fmt.Sprintf("%x", k)))
			if ring.Owner("db", v) != i {
				continue
			}
			fmt.Fprintf(bw, "INSERT db %x %x\n", k, k)
			n++
		}
		if err := bw.Flush(); err != nil {
			b.Fatal(err)
		}
		br := bufio.NewReader(conn)
		for j := 0; j < n; j++ {
			line, err := br.ReadString('\n')
			if err != nil || line != "OK\n" {
				b.Fatalf("preload backend %d: %q %v", i, line, err)
			}
		}
		conn.Close()
	}
	return bks
}

// driveFrontend hammers addr with concurrent clients, each pipelining
// `depth` SEARCH requests per flush, and validates every reply.
func driveFrontend(b *testing.B, addr string, depth int) {
	reqs := make([][]byte, benchKeys)
	wants := make([]string, benchKeys)
	for k := 1; k <= benchKeys; k++ {
		reqs[k-1] = []byte(fmt.Sprintf("SEARCH db %x\n", k))
		wants[k-1] = fmt.Sprintf("HIT 0:%016x\n", k)
	}
	b.SetParallelism(4) // clients = 4 * GOMAXPROCS
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			b.Error(err)
			return
		}
		defer conn.Close()
		bw := bufio.NewWriterSize(conn, 16<<10)
		br := bufio.NewReaderSize(conn, 16<<10)
		idx, batch := 0, make([]int, 0, depth)
		for {
			batch = batch[:0]
			for len(batch) < depth && pb.Next() {
				bw.Write(reqs[idx]) //nolint:errcheck
				batch = append(batch, idx)
				idx = (idx + 1) % benchKeys
			}
			if len(batch) == 0 {
				return
			}
			if err := bw.Flush(); err != nil {
				b.Error(err)
				return
			}
			for _, k := range batch {
				line, err := br.ReadString('\n')
				if err != nil {
					b.Error(err)
					return
				}
				if line != wants[k] {
					b.Errorf("reply %q, want %q", line, wants[k])
					return
				}
			}
			if len(batch) < depth {
				return
			}
		}
	})
}

func BenchmarkRouterPipelinedSearch(b *testing.B) {
	bks := benchCluster(b)
	rt, _ := testRouter(b, bks, func(cfg *RouterConfig) { cfg.Conns = 4 })
	defer rt.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go rt.Serve(l) //nolint:errcheck
	for _, depth := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			driveFrontend(b, l.Addr().String(), depth)
		})
	}
}

// BenchmarkDirectServerSearch is the no-router reference: the same
// pipelined clients straight at one caram-server holding all the
// records. The gap between this and the router is the cost of the
// extra network hop; the gap between the router and the naive proxy
// is what the pipelined pools buy back.
func BenchmarkDirectServerSearch(b *testing.B) {
	bk := startBackend(b, "db")
	conn, err := net.Dial("tcp", bk.addr)
	if err != nil {
		b.Fatal(err)
	}
	bw := bufio.NewWriter(conn)
	for k := 1; k <= benchKeys; k++ {
		fmt.Fprintf(bw, "INSERT db %x %x\n", k, k)
	}
	if err := bw.Flush(); err != nil {
		b.Fatal(err)
	}
	br := bufio.NewReader(conn)
	for j := 0; j < benchKeys; j++ {
		if line, err := br.ReadString('\n'); err != nil || line != "OK\n" {
			b.Fatalf("preload: %q %v", line, err)
		}
	}
	conn.Close()
	for _, depth := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			driveFrontend(b, bk.addr, depth)
		})
	}
}

// naiveProxy is the unpipelined baseline: the same ring routing, but
// one connection per backend behind a mutex and one request/reply
// round trip on the wire at a time.
type naiveProxy struct {
	ring  *Ring
	mus   []sync.Mutex
	conns []net.Conn
	brs   []*bufio.Reader
	l     net.Listener
}

func newNaiveProxy(b *testing.B, bks []*testBackend) *naiveProxy {
	b.Helper()
	ring, err := NewRing([]string{"b0", "b1"}, DefaultReplicas)
	if err != nil {
		b.Fatal(err)
	}
	np := &naiveProxy{ring: ring, mus: make([]sync.Mutex, len(bks))}
	for _, bk := range bks {
		conn, err := net.Dial("tcp", bk.addr)
		if err != nil {
			b.Fatal(err)
		}
		np.conns = append(np.conns, conn)
		np.brs = append(np.brs, bufio.NewReader(conn))
	}
	if np.l, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	go func() {
		for {
			conn, err := np.l.Accept()
			if err != nil {
				return
			}
			go np.handle(conn)
		}
	}()
	return np
}

func (np *naiveProxy) handle(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return
		}
		// Route exactly like the router: SEARCH db <key>.
		sc := bscan{b: line}
		sc.next() // SEARCH
		eng, _ := sc.next()
		key, _ := sc.next()
		v, ok := parseVecBytes(key)
		if !ok {
			return
		}
		bk := np.ring.Owner(string(eng), v)
		np.mus[bk].Lock()
		_, werr := np.conns[bk].Write(line)
		var resp []byte
		if werr == nil {
			resp, werr = np.brs[bk].ReadBytes('\n')
		}
		np.mus[bk].Unlock()
		if werr != nil {
			return
		}
		bw.Write(resp) //nolint:errcheck
		// One round trip at a time also on the client side: the
		// baseline never batches replies.
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

func (np *naiveProxy) Close() {
	np.l.Close()
	for _, c := range np.conns {
		c.Close()
	}
}

func BenchmarkUnpipelinedProxySearch(b *testing.B) {
	bks := benchCluster(b)
	np := newNaiveProxy(b, bks)
	defer np.Close()
	for _, depth := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			driveFrontend(b, np.l.Addr().String(), depth)
		})
	}
}

// stubBackend answers every line with MISS without allocating, so the
// forward-path measurements below see only the router's own behavior.
func stubBackend(b testing.TB) string {
	b.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { l.Close() })
	miss := []byte("MISS\n")
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					if _, err := br.ReadSlice('\n'); err != nil {
						return
					}
					if _, err := conn.Write(miss); err != nil {
						return
					}
				}
			}()
		}
	}()
	return l.Addr().String()
}

// forwardPathAllocs serves a router (with an optional trace collector
// and logger) over a stub backend and returns the steady-state
// allocations of one client round trip. AllocsPerRun counts mallocs
// process-wide, so the stub backend and the measuring client are built
// to be allocation-free too.
func forwardPathAllocs(t *testing.T, col *trace.Collector, log *slog.Logger) float64 {
	t.Helper()
	rt, err := NewRouter(RouterConfig{
		Backends: []Backend{{Label: "b0", Addr: stubBackend(t)}},
		Conns:    1, // HealthInterval 0: watcher off, nothing ticks
		Tracing:  col,
		Logger:   log,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rt.Serve(l) //nolint:errcheck
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 4<<10)
	req := []byte("SEARCH db 5\n")
	roundTrip := func() {
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		if _, err := br.ReadSlice('\n'); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*trace.DefaultRing; i++ { // warm every pool, buffer and ring
		roundTrip()
	}
	return testing.AllocsPerRun(300, roundTrip)
}

// TestRouterForwardPathAllocs is the CI guard for the same property
// the benchmark freezes: steady-state forwarding allocates nothing.
func TestRouterForwardPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector builds allocate in sync.Pool by design; make cluster-guard runs this without -race")
	}
	if avg := forwardPathAllocs(t, nil, nil); avg >= 1 {
		t.Errorf("forward path allocates %.2f allocs/op, want 0", avg)
	}
}

// BenchmarkRouterForwardPath freezes the zero-alloc forward path: one
// client, stub backend, alloc accounting on. Expect 0 allocs/op.
func BenchmarkRouterForwardPath(b *testing.B) {
	rt, err := NewRouter(RouterConfig{
		Backends: []Backend{{Label: "b0", Addr: stubBackend(b)}},
		Conns:    1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go rt.Serve(l) //nolint:errcheck
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 4<<10)
	req := []byte("SEARCH db 5\n")
	roundTrip := func() {
		if _, err := conn.Write(req); err != nil {
			b.Fatal(err)
		}
		if _, err := br.ReadSlice('\n'); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ { // warm every pool and buffer
		roundTrip()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}

// TestRouterUntracedZeroAlloc is the PR-9 CI guard: a collector
// compiled in but admitting nothing (sampling off, slowlog off) must
// leave the forward path exactly as allocation-free as no collector at
// all — Begin returns nil for ineligible requests before any trace
// state is touched.
func TestRouterUntracedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector builds allocate in sync.Pool by design; make alloc-guard runs this without -race")
	}
	col := trace.NewCollector(trace.Config{SampleN: 0, Slowlog: -1})
	if avg := forwardPathAllocs(t, col, nil); avg >= 1 {
		t.Errorf("forward path with idle collector allocates %.2f allocs/op, want 0", avg)
	}
}

// TestRouterDefaultTracingZeroAlloc guards the forward path under the
// shipped caram-router defaults: slowlog at 10 ms, sampling off, a
// logger attached. Every request is then eligible, so it is traced
// and forwarded with a *TID tag; its trace records the command, engine
// and key into the trace's reused buffer and is recycled at settle
// (a minted id does not make the router's own trace retainable).
func TestRouterDefaultTracingZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector builds allocate in sync.Pool by design; make alloc-guard runs this without -race")
	}
	col := trace.NewCollector(trace.Config{SampleN: 0, Slowlog: 10 * time.Millisecond})
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	if avg := forwardPathAllocs(t, col, log); avg >= 1 {
		t.Errorf("forward path under default tracing allocates %.2f allocs/op, want 0", avg)
	}
	if seen := col.Seen(); seen < 2*trace.DefaultRing+300 {
		t.Errorf("collector saw %d requests; the guard did not trace the forward path", seen)
	}
}

// BenchmarkRouterForwardPathTraced is BenchmarkRouterForwardPath with
// an idle collector attached — the number BENCH_PR9.json compares
// against the untraced baseline (< 5% added latency, still 0
// allocs/op).
func BenchmarkRouterForwardPathTraced(b *testing.B) {
	rt, err := NewRouter(RouterConfig{
		Backends: []Backend{{Label: "b0", Addr: stubBackend(b)}},
		Conns:    1,
		Tracing:  trace.NewCollector(trace.Config{SampleN: 0, Slowlog: -1}),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go rt.Serve(l) //nolint:errcheck
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 4<<10)
	req := []byte("SEARCH db 5\n")
	roundTrip := func() {
		if _, err := conn.Write(req); err != nil {
			b.Fatal(err)
		}
		if _, err := br.ReadSlice('\n'); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		roundTrip()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}

// BenchmarkRouterPipelinedSearchTraced mirrors the depth sweep with an
// idle collector attached to the router; depth8 traced-vs-untraced is
// the PR-9 overhead contract.
func BenchmarkRouterPipelinedSearchTraced(b *testing.B) {
	bks := benchCluster(b)
	rt, _ := testRouter(b, bks, func(cfg *RouterConfig) {
		cfg.Conns = 4
		cfg.Tracing = trace.NewCollector(trace.Config{SampleN: 0, Slowlog: -1})
	})
	defer rt.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go rt.Serve(l) //nolint:errcheck
	for _, depth := range []int{1, 8} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			driveFrontend(b, l.Addr().String(), depth)
		})
	}
}
