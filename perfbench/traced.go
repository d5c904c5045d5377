package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"caram/internal/bitutil"
	"caram/internal/caram"
	"caram/internal/cluster"
	"caram/internal/hash"
	"caram/internal/match"
	"caram/internal/metrics"
	"caram/internal/server"
	"caram/internal/subsystem"
	"caram/internal/trace"
	"caram/internal/wal"
)

// The traced run. The benchmark cannot put spans inside the program,
// so it times calls into each layer's public entry point, on the same
// seeded requests the open loop sent, around batches of calls. A
// layer's self time is its per-call time minus the per-call time of the
// layer it calls, measured on the same requests.

// span is one timed batch of calls into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Req    int    `json:"req"` // index of the first replayed request in the batch
	Calls  int    `json:"calls"`
	Start  int64  `json:"start_ns"` // since the replay began
	End    int64  `json:"end_ns"`
}

type recorder struct {
	t0    time.Time
	spans []span
}

func (r *recorder) open(name string, parent int) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(r.t0))})
	return len(r.spans)
}

func (r *recorder) close(id int) { r.spans[id-1].End = int64(time.Since(r.t0)) }

// timeBatches runs call(i) for i in [0, n), batch calls at a time, one
// span per batch under a root span named layer, and returns the median
// per-call nanoseconds over the batches.
func (r *recorder) timeBatches(layer string, n, batch int, call func(i int)) float64 {
	root := r.open(layer, 0)
	var per []float64
	for lo := 0; lo < n; lo += batch {
		hi := min(lo+batch, n)
		id := r.open(layer, root)
		t := time.Now()
		for i := lo; i < hi; i++ {
			call(i)
		}
		d := time.Since(t)
		r.close(id)
		r.spans[id-1].Req, r.spans[id-1].Calls = lo, hi-lo
		per = append(per, float64(d)/float64(hi-lo))
	}
	r.close(root)
	return median(per)
}

func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		enc.Encode(s)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runtimeFigures are the per-layer numbers read from the running
// processes over the measured window.
type runtimeFigures struct {
	serverOpP50Us   float64 // caram_op_latency_seconds{op="search"}
	retries, fallbk float64
	kops            float64
	amal            float64
	cpuNsPerReq     float64 // server CPU per closed-loop request
	caramKeysPerReq float64 // lookups per closed-loop request
	routed          bool
}

func newRuntimeFigures(routed bool, w *window, all *tally, cpuNsPerReq float64) *runtimeFigures {
	rt := &runtimeFigures{routed: routed, cpuNsPerReq: cpuNsPerReq}
	rt.serverOpP50Us = w.servers.histQuantile("caram_op_latency_seconds", 0.5, `op="search"`) * 1e6
	rt.retries = w.servers.sum("caram_search_retries_total")
	rt.fallbk = w.servers.sum("caram_search_lock_fallbacks_total")
	rt.kops = w.servers.sum("caram_ops_total") / 1000
	if l := w.servers.sum("caram_engine_lookups_total"); l > 0 {
		rt.amal = w.servers.sum("caram_engine_rows_accessed_total") / l
	}
	if all.attempted > 0 {
		rt.caramKeysPerReq = float64(all.sent[opSearch]+msearchKeys*all.sent[opMSearch]) / float64(all.attempted)
	}
	return rt
}

// shard is one in-process server's engines.
type shard struct {
	sub    *subsystem.Subsystem
	slices []*caram.Slice
}

// newShard builds engines exactly as caram-server builds exact engines
// from its -indexbits and -slots flags.
func newShard(ks *keyset, indexBits, slots int) (*shard, error) {
	sh := &shard{sub: subsystem.New(0)}
	for _, name := range ks.engines {
		sl, err := caram.New(caram.Config{
			IndexBits: indexBits,
			RowBits:   slots*(1+64+32) + 16,
			KeyBits:   64,
			DataBits:  32,
			AuxBits:   16,
			Index:     hash.NewMultShift(indexBits),
		})
		if err != nil {
			return nil, err
		}
		if err := sh.sub.AddEngine(&subsystem.Engine{Name: name, Main: sl}); err != nil {
			return nil, err
		}
		sh.slices = append(sh.slices, sl)
	}
	return sh, nil
}

func record(k ekey) match.Record {
	return match.Record{Key: bitutil.Exact(bitutil.Vec128{Lo: k.key}), Data: bitutil.Vec128{Lo: uint64(dataOf(k.key))}}
}

func tern(k ekey) bitutil.Ternary { return bitutil.Exact(bitutil.Vec128{Lo: k.key}) }

// rop is one replayed request.
type rop struct {
	op   uint8
	line string // without newline
	keys []ekey
}

// parseStreams interleaves the open loop's per-connection streams in
// schedule order and parses their keys back out of the request lines.
func parseStreams(ks *keyset, streams []*arena) []rop {
	eng := map[string]uint8{}
	for i, e := range ks.engines {
		eng[e] = uint8(i)
	}
	var out []rop
	for i := 0; ; i++ {
		c, j := i%len(streams), i/len(streams)
		if j >= len(streams[c].ops) {
			break
		}
		r := streams[c].get(j)
		line := strings.TrimSpace(string(r.line))
		f := strings.Fields(line)
		o := rop{op: r.op, line: line}
		for k := 1; k+1 < len(f); k += 2 {
			var key uint64
			fmt.Sscanf(f[k+1], "%x", &key)
			o.keys = append(o.keys, ekey{eng[f[k]], key})
			if r.op == opSearch {
				break
			}
		}
		out = append(out, o)
	}
	return out
}

// linesReader hands Handle depth request lines per Read, the way a
// pipelining client's bursts arrive.
type linesReader struct {
	lines [][]byte
	depth int
}

func (r *linesReader) Read(p []byte) (int, error) {
	if len(r.lines) == 0 {
		return 0, io.EOF
	}
	n := 0
	for k := 0; k < r.depth && len(r.lines) > 0 && n+len(r.lines[0]) <= len(p); k++ {
		n += copy(p[n:], r.lines[0])
		r.lines = r.lines[1:]
	}
	return n, nil
}

type countingWriter struct{ writes int }

func (w *countingWriter) Write(p []byte) (int, error) { w.writes++; return len(p), nil }

// rttMedian measures depth-1 round trips of lines against addr and
// returns the median in microseconds.
func rttMedian(rec *recorder, name, addr string, lines []string) (float64, error) {
	cl, err := dial(addr)
	if err != nil {
		return 0, err
	}
	defer cl.close()
	root := rec.open(name, 0)
	var us []float64
	for i, l := range lines {
		id := rec.open(name, root)
		t := time.Now()
		if _, err := cl.roundTrip(l); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t))/1e3)
		rec.close(id)
		rec.spans[id-1].Req, rec.spans[id-1].Calls = i, 1
	}
	rec.close(root)
	return median(us), nil
}

// layerCall is one layer's entry point, called on input i. warm, when
// set, runs untimed over a batch's inputs before the batch is timed.
type layerCall struct {
	name string
	call func(i int)
	warm func(i int)
}

// timeInterleaved times several layers on statistically identical
// inputs at the same time: the calls' index range is cut into chunks of
// batch, and chunk c goes to layer c mod len(layers), so host drift
// reaches every layer alike and no layer runs on rows another layer has
// just pulled into cache. It returns each layer's median per-call
// nanoseconds over its batches.
func (r *recorder) timeInterleaved(n, batch int, layers []layerCall) []float64 {
	roots := make([]int, len(layers))
	for v, l := range layers {
		roots[v] = r.open(l.name, 0)
	}
	per := make([][]float64, len(layers))
	for c, lo := 0, 0; lo < n; c, lo = c+1, lo+batch {
		v := c % len(layers)
		l := layers[v]
		hi := min(lo+batch, n)
		if l.warm != nil {
			for i := lo; i < hi; i++ {
				l.warm(i)
			}
		}
		id := r.open(l.name, roots[v])
		t := time.Now()
		for i := lo; i < hi; i++ {
			l.call(i)
		}
		d := time.Since(t)
		r.close(id)
		r.spans[id-1].Req, r.spans[id-1].Calls = lo, hi-lo
		per[v] = append(per[v], float64(d)/float64(hi-lo))
	}
	out := make([]float64, len(layers))
	for v := range layers {
		r.close(roots[v])
		out[v] = median(per[v])
	}
	return out
}

// replay runs the traced in-process replay of the open loop's requests
// (rounds of per-connection streams) and sets the per-layer metrics.
// pools are the closed-loop streams of the in-process router's
// pipelined phase.
func replay(res *result, sp *spec, ks *keyset, openRounds [][]*arena, pools []*pool, work string, rt *runtimeFigures) error {
	rec := &recorder{t0: time.Now()}
	var ops []rop
	for _, streams := range openRounds {
		ops = append(ops, parseStreams(ks, streams)...)
	}
	const maxReplay = 60000
	if len(ops) > maxReplay {
		ops = ops[:maxReplay]
	}
	var reads []ekey
	var searchLines, msearchLines []string
	var searchKeys []ekey // searchLines' keys
	var msearches [][]ekey
	for _, o := range ops {
		reads = append(reads, o.keys...)
		if o.op == opSearch {
			searchLines = append(searchLines, o.line)
			searchKeys = append(searchKeys, o.keys[0])
		} else {
			msearchLines = append(msearchLines, o.line)
			msearches = append(msearches, o.keys)
		}
	}

	// Two in-process backends for the cluster layer. They carry the
	// routed workload's ring labels, so keys land where caram-router put
	// them; a direct workload's keys split over two servers of its own
	// geometry.
	var lns []net.Listener
	var bks []cluster.Backend
	for i := 0; i < 2; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer l.Close()
		lns = append(lns, l)
		bks = append(bks, cluster.Backend{Label: routedLabels[i], Addr: l.Addr().String()})
	}
	ring := routedRing
	var backends []*shard
	for i := 0; i < 2; i++ {
		sh, err := newShard(ks, sp.indexBits, sp.slots)
		if err != nil {
			return err
		}
		backends = append(backends, sh)
	}
	for _, k := range ks.stored {
		b := ring.Owner(ks.engines[k.eng], bitutil.Vec128{Lo: k.key})
		if err := backends[b].slices[k.eng].Insert(record(k)); err != nil {
			return fmt.Errorf("cluster shard load: %w", err)
		}
	}
	// The layer under the wire: the workload's own server geometry. A
	// routed workload's servers are the two backends themselves, and its
	// single-key layers are timed on the shard that owns each key.
	shards := backends
	owner := func(k ekey) int { return ring.Owner(ks.engines[k.eng], bitutil.Vec128{Lo: k.key}) }
	if sp.backends == 0 {
		sh, err := newShard(ks, sp.indexBits, sp.slots)
		if err != nil {
			return err
		}
		for _, k := range ks.stored {
			if err := sh.slices[k.eng].Insert(record(k)); err != nil {
				return fmt.Errorf("shard load: %w", err)
			}
		}
		shards = []*shard{sh}
		owner = func(ekey) int { return 0 }
	}

	// The measured AMAL over every replayed lookup, SEARCH and MSEARCH.
	readers := map[*caram.Slice]*caram.Reader{}
	readerOf := func(k ekey) *caram.Reader {
		sl := shards[owner(k)].slices[k.eng]
		if readers[sl] == nil {
			readers[sl] = sl.NewReader()
		}
		return readers[sl]
	}
	rowsRead, lookups := 0, 0
	for _, k := range reads {
		if lr, ok := readerOf(k).Lookup(tern(k), nil); ok {
			rowsRead += lr.RowsRead
			lookups++
		}
	}
	amal := float64(rowsRead) / float64(max(lookups, 1))

	// One SEARCH through each layer, from the comparator bank over the
	// home row up to the protocol engine under each option set. The
	// comparator bank is timed on rows already in cache: fetching a row
	// is the caram layer's work.
	type rowRef struct {
		pr  *match.Processor
		row []uint64
	}
	rows := make([]rowRef, len(searchKeys))
	rdr := make([]*caram.Reader, len(searchKeys))
	procs := map[*caram.Slice]*match.Processor{}
	searchOwner := make([]int, len(searchKeys))
	for i, k := range searchKeys {
		searchOwner[i] = owner(k)
		sl := shards[searchOwner[i]].slices[k.eng]
		pr := procs[sl]
		if pr == nil {
			pr = match.NewProcessor(sl.Layout(), sl.Config().MatchProcessors)
			procs[sl] = pr
		}
		rows[i] = rowRef{pr, sl.Array().PeekRow(sl.Index(tern(k).Value))}
		rdr[i] = readerOf(k)
	}
	cons := make([]*subsystem.Concurrent, len(shards))
	for i, sh := range shards {
		cons[i] = subsystem.NewConcurrent(sh.sub)
		defer cons[i].Close()
	}
	mkServer := func(sh *shard, opts ...server.Option) *server.Server { return server.New(sh.sub, opts...) }
	binCol := func() *trace.Collector {
		return trace.NewCollector(trace.Config{SampleN: 0, Slowlog: 10 * time.Millisecond, Ring: trace.DefaultRing})
	}
	var binSrv, plainSrv, bareSrv, idleSrv []*server.Server
	for _, sh := range shards {
		binSrv = append(binSrv, mkServer(sh, server.WithTracing(binCol())))
		plainSrv = append(plainSrv, mkServer(sh))
		bareSrv = append(bareSrv, mkServer(sh, server.WithoutMetrics()))
		idleSrv = append(idleSrv, mkServer(sh, server.WithTracing(trace.NewCollector(trace.Config{SampleN: 0, Slowlog: -1}))))
	}
	var mres match.Result
	var sink uint64
	buf := make([]byte, 0, 256)
	exec := func(name string, srvs []*server.Server) layerCall {
		return layerCall{name: name, call: func(i int) { buf = srvs[searchOwner[i]].ExecAppend(buf[:0], searchLines[i]) }}
	}
	layer := rec.timeInterleaved(len(searchKeys), 64, []layerCall{
		{name: "match.SearchInto",
			call: func(i int) { rows[i].pr.SearchInto(&mres, rows[i].row, tern(searchKeys[i])) },
			warm: func(i int) {
				for _, w := range rows[i].row {
					sink += w
				}
			}},
		{name: "caram.Reader.Lookup", call: func(i int) { rdr[i].Lookup(tern(searchKeys[i]), nil) }},
		{name: "subsystem.Concurrent.Search", call: func(i int) {
			k := searchKeys[i]
			cons[searchOwner[i]].Search(ks.engines[k.eng], tern(k))
		}},
		exec("server.ExecAppend", binSrv),
		exec("server.ExecAppend.metrics", plainSrv),
		exec("server.ExecAppend.nometrics", bareSrv),
		exec("server.ExecAppend.idletrace", idleSrv),
	})
	rowNs, lookupNs, searchNs := layer[0], layer[1], layer[2]
	execNs, plainNs, bareNs, idleNs := layer[3], layer[4], layer[5], layer[6]
	res.note("server.ExecAppend of one SEARCH: %.0f ns as the binary runs it (tracing, slowlog on), %.0f ns with metrics and no collector, %.0f ns without metrics, %.0f ns with an idle collector (row checksum %d)",
		execNs, plainNs, bareNs, idleNs, sink%10)
	// The recorder's own cost, from empty spans. The end-to-end phases
	// of a traced run record no spans, so this is all tracing adds.
	const probes = 10000
	t0 := time.Now()
	for i := 0; i < probes; i++ {
		rec.close(rec.open("recorder.empty", 0))
	}
	spanNs := float64(time.Since(t0)) / probes
	rec.spans = rec.spans[:len(rec.spans)-probes]
	res.note("tracing overhead: one span costs the recorder %.0f ns, %.1f ns per timed call at one span per 64 calls; the end-to-end phases of a traced run record no spans",
		spanNs, spanNs/64)

	// MSearch per batch; a routed batch is split by owner the way the
	// router splits it.
	var msPer []float64
	msRoot := rec.open("subsystem.Concurrent.MSearch", 0)
	for i, keys := range msearches {
		parts := make([][]subsystem.PortKey, len(shards))
		for _, k := range keys {
			s := owner(k)
			parts[s] = append(parts[s], subsystem.PortKey{Port: ks.engines[k.eng], Key: tern(k)})
		}
		id := rec.open("subsystem.Concurrent.MSearch", msRoot)
		t := time.Now()
		for s, part := range parts {
			if len(part) > 0 {
				cons[s].MSearch(part)
			}
		}
		msPer = append(msPer, float64(time.Since(t))/float64(len(keys)))
		rec.close(id)
		rec.spans[id-1].Req, rec.spans[id-1].Calls = i, 1
	}
	rec.close(msRoot)

	// Handle over an in-memory stream, depth lines per read: the
	// SEARCH lines shard 0 owns.
	var handleLinesOwn [][]byte
	var ownLines []string
	for i, l := range searchLines {
		if searchOwner[i] == 0 {
			handleLinesOwn = append(handleLinesOwn, []byte(l+"\n"))
			ownLines = append(ownLines, l)
		}
	}
	cw := &countingWriter{}
	hroot := rec.open("server.Handle", 0)
	t := time.Now()
	binSrv[0].Handle(&linesReader{lines: handleLinesOwn, depth: sp.depth}, cw)
	handleNs := float64(time.Since(t)) / float64(max(len(handleLinesOwn), 1))
	rec.close(hroot)
	rec.spans[hroot-1].Calls = len(handleLinesOwn)

	// Depth-1 round trips: one in-process server, then the router in
	// front of the two backends.
	rttLines := searchLines
	if len(rttLines) > 3000 {
		rttLines = rttLines[:3000]
	}
	direct := server.New(shards[0].sub, server.WithTracing(binCol()))
	dl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go direct.Serve(dl)
	defer direct.Close()
	if len(ownLines) > 3000 {
		ownLines = ownLines[:3000]
	}
	serverRtt, err := rttMedian(rec, "server.rtt", dl.Addr().String(), ownLines)
	if err != nil {
		return err
	}
	for i, sh := range backends {
		s := server.New(sh.sub, server.WithTracing(binCol()))
		go s.Serve(lns[i])
		defer s.Close()
	}
	rm := metrics.NewRouterMetrics(routedLabels)
	router, err := cluster.NewRouter(cluster.RouterConfig{
		Backends: bks,
		Metrics:  rm,
		Tracing:  binCol(),
	})
	if err != nil {
		return err
	}
	rl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go router.Serve(rl)
	defer router.Close()
	clusterRtt, err := rttMedian(rec, "cluster.rtt", rl.Addr().String(), rttLines)
	if err != nil {
		return err
	}
	msLines := msearchLines
	if len(msLines) > 1000 {
		msLines = msLines[:1000]
	}
	clusterMsRtt, err := rttMedian(rec, "cluster.msearch_rtt", rl.Addr().String(), msLines)
	if err != nil {
		return err
	}
	// Burst coalescing needs a pipelined client: the closed loop's depth
	// on both connections, through the in-process router.
	bursts := func() (n uint64, sum float64) {
		for i := 0; i < rm.Backends(); i++ {
			bn, mean := rm.Backend(i).Bursts()
			n += bn
			sum += mean * float64(bn)
		}
		return n, sum
	}
	var rcls []*client
	for c := 0; c < conns; c++ {
		cl, err := dial(rl.Addr().String())
		if err != nil {
			return err
		}
		defer cl.close()
		rcls = append(rcls, cl)
	}
	n0, sum0 := bursts()
	broot := rec.open("cluster.pipelined", 0)
	pt := closedLoop(rcls, pools, sp.depth, 500*time.Millisecond)
	rec.close(broot)
	rec.spans[broot-1].Calls = int(pt.attempted)
	n1, sum1 := bursts()
	if pt.wrong > 0 || pt.failed > 0 {
		res.fail("in-process router: %d wrong and %d failed replies; first: %s", pt.wrong, pt.failed, pt.firstBad)
	}
	burstMean := (sum1 - sum0) / float64(max(n1-n0, 1))

	// subsystem writes with no WAL: each call inserts a key that is
	// never loaded and deletes it again.
	refused := 0
	writeNs := rec.timeBatches("subsystem.write", len(searchKeys), 64, func(i int) {
		k := ekey{searchKeys[i].eng, tagFresh | searchKeys[i].key&^(3<<62)}
		c := cons[owner(k)]
		if c.Insert(ks.engines[k.eng], record(k)) != nil || c.Delete(ks.engines[k.eng], tern(k)) != nil {
			refused++
		}
	})
	if refused > 0 {
		res.note("subsystem.write: %d of %d insert+delete pairs refused", refused, len(searchKeys))
	}

	// The WAL on its own, under -wal-sync always.
	walDir := filepath.Join(work, "replay-wal")
	os.RemoveAll(walDir)
	wlog, _, err := wal.Recover(walDir, nil, wal.Options{Sync: wal.SyncPolicy{Mode: wal.SyncAlways}})
	if err != nil {
		return err
	}
	entries := make([]subsystem.JournalEntry, 0, 20000)
	for i := 0; len(entries) < cap(entries); i++ {
		k := ks.stored[i%len(ks.stored)]
		entries = append(entries, subsystem.JournalEntry{Op: subsystem.JournalInsert, Engine: ks.engines[k.eng], Rec: record(k)})
	}
	appendNs := rec.timeBatches("wal.Append", len(entries), 64, func(i int) { wlog.Append(entries[i]) })
	if err := wlog.Commit(wlog.LastLSN()); err != nil {
		return err
	}
	size0 := dirBytes(walDir)
	const commits = 300
	commitUs := rec.timeBatches("wal.Commit", commits, 1, func(i int) {
		lsn, _ := wlog.Append(entries[i])
		wlog.Commit(lsn)
	}) / 1e3
	walBytesPerRec := float64(dirBytes(walDir)-size0) / commits
	// Group commit: as many writers as the closed loop keeps requests
	// outstanding, each appending and committing one record at a time
	// the way a connection's handler acks its writes, so that several
	// records wait on every fsync.
	st0 := wlog.Stats()
	groot := rec.open("wal.GroupCommit", 0)
	var wg sync.WaitGroup
	writers := conns * sp.depth
	for c := 0; c < writers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < 10*commits; i += writers {
				lsn, _ := wlog.Append(entries[i])
				wlog.Commit(lsn)
			}
		}(c)
	}
	wg.Wait()
	rec.close(groot)
	st1 := wlog.Stats()
	fsyncs := float64(max(st1.Fsyncs-st0.Fsyncs, 1))
	fsyncUs := float64(st1.FsyncNanos-st0.FsyncNanos) / fsyncs / 1e3
	recPerFsync := float64(st1.LSN-st0.LSN) / fsyncs
	snapCon := subsystem.NewConcurrent(shards[0].sub)
	defer snapCon.Close()
	var snapMs []float64
	sroot := rec.open("wal.Snapshot", 0)
	for i := 0; i < 3; i++ {
		id := rec.open("wal.Snapshot", sroot)
		t := time.Now()
		if err := wlog.Snapshot(snapCon.SnapshotImage); err != nil {
			return err
		}
		snapMs = append(snapMs, float64(time.Since(t))/1e6)
		rec.close(id)
	}
	rec.close(sroot)
	wlog.Seal()

	spansPath := filepath.Join(work, "spans.jsonl")
	if err := rec.write(spansPath); err != nil {
		return err
	}

	// Per-layer metrics.
	set := res.set
	set("match.row_ns", rowNs, "ns")
	set("caram.rows_per_lookup", amal, "count")
	set("caram.lookup_ns", lookupNs, "ns")
	set("caram.lookup_self_ns", lookupNs-amal*rowNs, "ns")
	set("subsystem.search_ns", searchNs, "ns")
	set("subsystem.search_self_ns", searchNs-lookupNs, "ns")
	set("subsystem.msearch_ns_per_key", median(msPer), "ns")
	set("subsystem.write_ns", writeNs, "ns")
	set("server.exec_ns", execNs, "ns")
	set("server.exec_self_ns", execNs-searchNs, "ns")
	set("server.handle_ns_per_req", handleNs, "ns")
	set("server.writes_per_req", float64(cw.writes)/float64(max(len(handleLinesOwn), 1)), "count")
	set("server.op_p50_us", rt.serverOpP50Us, "us")
	set("server.gap_p50_us", res.metrics["search_p50_us"]-rt.serverOpP50Us, "us")
	set("server.rtt_us", serverRtt, "us")
	set("server.cpu_ns_per_req", rt.cpuNsPerReq, "ns")
	set("metrics.overhead_ratio", plainNs/bareNs, "x")
	set("trace.overhead_ratio", idleNs/plainNs, "x")
	set("cluster.rtt_us", clusterRtt, "us")
	set("cluster.hop_us", clusterRtt-serverRtt, "us")
	set("cluster.msearch_rtt_us", clusterMsRtt, "us")
	set("cluster.burst_size_mean", burstMean, "count")
	set("wal.append_ns", appendNs, "ns")
	set("wal.commit_us", commitUs, "us")
	set("wal.fsync_us", fsyncUs, "us")
	set("wal.records_per_fsync", recPerFsync, "count")
	set("wal.bytes_per_write", walBytesPerRec, "B")
	set("wal.snapshot_ms", median(snapMs), "ms")
	res.note("subsystem: %.0f seqlock retries and %.0f lock fallbacks over %.1f kops in the measured window (no writers in this workload)",
		rt.retries, rt.fallbk, rt.kops)

	// Reconcile the replay's AMAL with the servers' own counters.
	if rt.amal > 0 {
		diff := (rt.amal - amal) / amal
		res.note("reconcile: scraped AMAL %.4f vs replayed caram.rows_per_lookup %.4f (%+.2f%%)", rt.amal, amal, 100*diff)
		if diff > 0.05 || diff < -0.05 {
			res.fail("scraped AMAL %.4f and replayed AMAL %.4f differ by more than 5%%", rt.amal, amal)
		}
	}
	printBudget(res, sp, rt)
	res.note("traced replay: %d requests (%d lookups), %d spans written to %s", len(ops), len(reads), len(rec.spans), spansPath)
	return nil
}

func dirBytes(dir string) int64 {
	var n int64
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if fi, err := e.Info(); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// printBudget stacks the self times of one depth-1 SEARCH, from the
// match kernel up to the router hop, next to the client's open-loop
// SEARCH p50.
func printBudget(res *result, sp *spec, rt *runtimeFigures) {
	m := res.metrics
	type row struct {
		layer string
		ns    float64
	}
	rows := []row{
		{"match (rows x match.row_ns)", m["caram.rows_per_lookup"] * m["match.row_ns"]},
		{"caram self", m["caram.lookup_self_ns"]},
		{"subsystem self", m["subsystem.search_self_ns"]},
		{"server exec self (parse, encode, metrics, trace)", m["server.exec_self_ns"]},
		{"socket + scheduling (server.rtt_us - server.exec_ns)", m["server.rtt_us"]*1e3 - m["server.exec_ns"]},
	}
	if rt.routed {
		rows = append(rows, row{"router hop (cluster.hop_us)", m["cluster.hop_us"] * 1e3})
	}
	total := m["search_p50_us"] * 1e3
	var b bytes.Buffer
	fmt.Fprintf(&b, "layer budget, %s: one depth-1 SEARCH against the open loop's client p50 (%.1f us)\n", sp.name, total/1e3)
	sum := 0.0
	for _, r := range rows {
		sum += r.ns
		fmt.Fprintf(&b, "  %-56s %10.0f ns  %5.1f%%\n", r.layer, r.ns, 100*r.ns/total)
	}
	fmt.Fprintf(&b, "  %-56s %10.0f ns  %5.1f%%\n", "sum of layers", sum, 100*sum/total)
	fmt.Fprintf(&b, "  %-56s %10.0f ns  %5.1f%%\n", "unexplained (client p50 - sum)", total-sum, 100*(total-sum)/total)
	caramNs := m["subsystem.search_ns"] * rt.caramKeysPerReq
	if rt.cpuNsPerReq > 0 {
		fmt.Fprintf(&b, "closed loop: server CPU %.0f ns per request; CA-RAM layers (match+caram+subsystem, %.2f lookups x %.0f ns) %.0f ns = %.1f%% of it\n",
			rt.cpuNsPerReq, rt.caramKeysPerReq, m["subsystem.search_ns"], caramNs, 100*caramNs/rt.cpuNsPerReq)
	}
	res.extra = append(res.extra, strings.TrimRight(b.String(), "\n"))
}
