// Command perfbench is the repository's same-host end-to-end benchmark.
// It starts the real caram-server (and, for the routed workload,
// caram-router) binaries, loads a seeded table over loopback, and drives
// them from one process with at most two connections:
//
//   - an open-loop phase at a fixed offered rate, every request timed
//     from when it was due, which gives the latency metrics;
//   - a closed-loop phase at a fixed pipelining depth per connection,
//     which gives the throughput metric.
//
// Every reply is checked against an oracle. With -trace 1 the run also
// replays the same seeded inputs in process, timing each layer's public
// entry points, and prints the per-layer metrics and the layer budget
// instead of the end-to-end ones. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench -bin <dir with caram-server, caram-router> -workload lookup_zipf -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"caram/internal/bitutil"
)

// spec is one workload.
type spec struct {
	name        string
	engines     int     // exact engines, e0..e{n-1}
	indexBits   int     // per server process
	backends    int     // servers behind caram-router; 0 = clients talk to one server
	slots       int     // keys per bucket
	alpha       float64 // load factor after set-up
	zipf        bool    // lookups Zipf s=1.0 over the stored keys (else uniform)
	missFrac    float64 // share of lookups for never-stored keys
	msearchFrac float64 // share of requests that are MSEARCH of msearchKeys keys
	rate        float64 // open-loop offered load, requests/s over both connections
	depth       int     // closed-loop pipelining depth per connection
}

func (sp *spec) storedPerEngine() int {
	buckets := 1 << sp.indexBits
	if sp.backends > 0 {
		buckets *= sp.backends
	}
	return int(sp.alpha*float64(buckets*sp.slots) + 0.5)
}

// Offered rates sit far below capacity (the closed loop reaches about
// 300k req/s direct and 60k req/s routed on 2 vCPUs), so that the host's
// other tenants move latency without pushing the open loop into a queue.
var workloads = map[string]*spec{
	// Table 3 design-A load on 4 engines: 451k keys, 6.5 MB of rows,
	// larger than L2; Zipf s=1.0 lookups (the paper's AMALs).
	"lookup_zipf": {name: "lookup_zipf", engines: 4, indexBits: 14, slots: 8, alpha: 0.86, zipf: true,
		missFrac: 0.10, msearchFrac: 0.05, rate: 10000, depth: 16},
	// The same keys and mix, uniform (AMALu), through the router to two
	// backends sized to keep alpha at 0.86.
	"lookup_routed": {name: "lookup_routed", engines: 4, indexBits: 13, backends: 2, slots: 8, alpha: 0.86,
		missFrac: 0.10, msearchFrac: 0.05, rate: 5000, depth: 8},
}

const (
	conns     = 2
	setupRuns = 3
	// roundsPerSecond splits the measured time into rounds of one
	// open-loop and one closed-loop window each.
	roundsPerSecond = 2
	// Round validity limits. Past the lag or backlog limit the open loop
	// did not keep its schedule; past the steal limit the hypervisor took
	// the host's vCPUs away from every process, the benchmark and the
	// program alike. Such a round's figures are dropped, and a run with
	// fewer than minValidRounds valid rounds reports no latencies. Lag is
	// charged to the late requests either way (they are timed from when
	// they were due).
	maxLagP99Us = 2000
	maxBacklog  = 1000
	maxSteal    = 0.10
	// closedPoolSize is the number of requests pre-generated for each
	// connection's closed-loop stream.
	closedPoolSize = 1 << 16
)

// system is one set-up: the processes, the client connections and the
// admin connections used for STATS.
type system struct {
	servers []*proc
	router  *proc
	cls     []*client
	admin   []*client // one per server
	labels  []string
}

func (s *system) stop() {
	for _, c := range append(s.cls, s.admin...) {
		if c != nil {
			c.close()
		}
	}
	s.router.stop()
	for _, p := range s.servers {
		p.stop()
	}
}

// serverCPU returns the CPU seconds (user + system) the server
// processes have used so far.
func (s *system) serverCPU() float64 {
	t := 0.0
	for _, p := range s.servers {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
		if err != nil {
			continue
		}
		// Fields after the parenthesised command name; utime and stime
		// are fields 14 and 15 of the whole line, in clock ticks.
		f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
		if len(f) > 12 {
			u, _ := strconv.ParseFloat(f[11], 64)
			st, _ := strconv.ParseFloat(f[12], 64)
			t += (u + st) / clockTicks
		}
	}
	return t
}

// hostSteal returns the CPU seconds the hypervisor has taken from this
// host's vCPUs so far, summed over vCPUs.
func hostSteal() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	if len(f) < 9 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64)
	return v / clockTicks
}

// hostRef times a fixed piece of work that uses no program code, an
// xorshift walk over a 256 KiB table, as a gauge of how fast
// the host ran at that moment.
func hostRef() float64 {
	t := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 1<<18; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		refTable[x&(uint64(len(refTable))-1)] += x
	}
	return float64(time.Since(t))
}

var refTable = make([]uint64, 32<<10)

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times on
// Linux.
const clockTicks = 100

func (s *system) procs() []*proc {
	ps := append([]*proc(nil), s.servers...)
	if s.router != nil {
		ps = append(ps, s.router)
	}
	return ps
}

// setUp starts the processes, loads the table and waits for the first
// lookup's reply; it returns the elapsed time.
func setUp(sp *spec, ks *keyset, bin, work string, n int) (*system, float64, error) {
	dir := filepath.Join(work, "setup"+strconv.Itoa(n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	sys := &system{}
	t0 := time.Now()
	nServers := max(sp.backends, 1)
	for i := 0; i < nServers; i++ {
		addr := "127.0.0.1:0"
		if sp.backends > 0 {
			addr = routedLabels[i]
		}
		args := []string{"-addr", addr, "-http", "127.0.0.1:0",
			"-engines", strings.Join(ks.engines, ","),
			"-indexbits", strconv.Itoa(sp.indexBits), "-slots", strconv.Itoa(sp.slots)}
		p, err := startProc(fmt.Sprintf("server%d", i), filepath.Join(bin, "caram-server"),
			filepath.Join(dir, fmt.Sprintf("server%d.log", i)), args...)
		if err != nil {
			sys.stop()
			return nil, 0, err
		}
		sys.servers = append(sys.servers, p)
		sys.labels = append(sys.labels, p.addr)
	}
	target := sys.servers[0].addr
	if sp.backends > 0 {
		p, err := startProc("router", filepath.Join(bin, "caram-router"), filepath.Join(dir, "router.log"),
			"-addr", "127.0.0.1:0", "-http", "127.0.0.1:0", "-backends", strings.Join(sys.labels, ","))
		if err != nil {
			sys.stop()
			return nil, 0, err
		}
		sys.router = p
		target = p.addr
	}
	for c := 0; c < conns; c++ {
		cl, err := dial(target)
		if err != nil {
			sys.stop()
			return nil, 0, err
		}
		sys.cls = append(sys.cls, cl)
	}
	if err := load(sys.cls, ks); err != nil {
		sys.stop()
		return nil, 0, err
	}
	k := ks.stored[0]
	want := string(appendSearchReply(nil, k.key, true))
	if got, err := sys.cls[0].roundTrip("SEARCH " + ks.engines[k.eng] + " " + strconv.FormatUint(k.key, 16)); err != nil || got != want {
		sys.stop()
		return nil, 0, fmt.Errorf("first lookup: got %q (%v), want %q", got, err, want)
	}
	elapsed := time.Since(t0).Seconds()
	for _, p := range sys.servers {
		cl, err := dial(p.addr)
		if err != nil {
			sys.stop()
			return nil, 0, err
		}
		sys.admin = append(sys.admin, cl)
	}
	return sys, elapsed, nil
}

// reading is every counter the processes expose, at one instant.
type reading struct {
	servers []scrape
	router  scrape
	stats   []map[string]float64 // per server, STATS summed over engines
}

func (s *system) read(ks *keyset) (*reading, error) {
	r := &reading{}
	for i, p := range s.servers {
		m, err := scrapeMetrics(p.httpAddr)
		if err != nil {
			return nil, err
		}
		r.servers = append(r.servers, m)
		st := map[string]float64{}
		for _, e := range ks.engines {
			rep, err := s.admin[i].roundTrip("STATS " + e)
			if err != nil {
				return nil, err
			}
			for k, v := range wireFields(rep) {
				st[k] += v
			}
		}
		r.stats = append(r.stats, st)
	}
	if s.router != nil {
		m, err := scrapeMetrics(s.router.httpAddr)
		if err != nil {
			return nil, err
		}
		r.router = m
	}
	return r, nil
}

// window is how the counters moved between two readings: server
// samples summed over the servers.
type window struct {
	servers      scrape
	router       scrape
	statsLookups float64 // STATS hits + misses
}

func newWindow(b, a *reading) *window {
	w := &window{servers: scrape{}, router: delta(b.router, a.router)}
	for i := range a.servers {
		w.add(&window{servers: delta(b.servers[i], a.servers[i])})
		w.statsLookups += a.stats[i]["hits"] + a.stats[i]["misses"] - b.stats[i]["hits"] - b.stats[i]["misses"]
	}
	return w
}

func (w *window) add(o *window) {
	for k, v := range o.servers {
		w.servers[k] += v
	}
	if w.router == nil {
		w.router = scrape{}
	}
	for k, v := range o.router {
		w.router[k] += v
	}
	w.statsLookups += o.statsLookups
}

// result collects one run's outcome.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	notes     []string // reconciliation and validity findings
	metrics   map[string]float64
	units     map[string]string
	order     []string
	extra     []string // lines printed next to the metrics (p999, sample counts)
}

func (r *result) set(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = v
	r.units[name] = unit
}

func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.notes = append(r.notes, "FAIL: "+fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: lookup_zipf or lookup_routed")
		seed     = flag.Int64("seed", 1, "workload seed: keys, request mix and key choice")
		seconds  = flag.Int("seconds", 10, "measured seconds: open-loop phase plus closed-loop phase")
		traced   = flag.Int("trace", 0, "1 = also run the traced in-process replay and report per-layer metrics")
		bin      = flag.String("bin", "", "directory holding the caram-server and caram-router binaries")
		work     = flag.String("work", "", "scratch directory for logs and spans (emptied first)")
		history  = flag.String("history", "", "directory of per-host result logs to append to (empty = none)")
		commit   = flag.String("commit", "unknown", "commit of the tree under test, recorded in the history")
	)
	flag.Parse()
	runtime.GOMAXPROCS(2)
	sp, ok := workloads[*workload]
	if !ok || *bin == "" || *work == "" || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -bin <dir> -work <dir> -workload lookup_zipf|lookup_routed [-seed n] [-seconds n] [-trace 0|1]")
		os.Exit(2)
	}
	res, err := run(sp, *seed, *seconds, *traced == 1, *bin, *work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, n := range res.notes {
		fmt.Println(n)
	}
	for _, name := range res.order {
		fmt.Printf("%-32s %14.4f %s\n", name, res.metrics[name], res.units[name])
	}
	for _, l := range res.extra {
		fmt.Println(l)
	}
	if *history != "" {
		if err := appendHistory(*history, *commit, *workload, *seed, *seconds, *traced, res); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: history:", err)
		}
	}
	out := map[string]any{"correct": res.correct, "attempted": res.attempted, "failed": res.failed}
	ms := map[string]any{}
	for _, name := range res.order {
		if !res.reported(name, *traced == 1) {
			continue
		}
		ms[name] = map[string]any{"value": res.metrics[name], "unit": res.units[name]}
	}
	out["metrics"] = ms
	b, _ := json.Marshal(out)
	fmt.Println(string(b))
	if !res.correct {
		os.Exit(1)
	}
}

// endToEnd lists the metrics a -trace 0 run reports; every other metric
// belongs to the per-layer set of a -trace 1 run.
var endToEnd = []string{"setup_s", "ops_s", "search_p50_us", "msearch_p50_us", "rss_mb"}

func (r *result) reported(name string, traced bool) bool {
	for _, e := range endToEnd {
		if e == name {
			return !traced
		}
	}
	return traced
}

func run(sp *spec, seed int64, seconds int, traced bool, bin, work string) (*result, error) {
	res := &result{correct: true, metrics: map[string]float64{}, units: map[string]string{}}
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	ks := newKeyset(sp, seed)
	var z *zipf
	if sp.zipf {
		z = newZipf(len(ks.stored))
	}

	var owner func(ekey) int
	if sp.backends > 0 {
		owner = func(k ekey) int { return routedRing.Owner(ks.engines[k.eng], bitutil.Vec128{Lo: k.key}) }
	}
	mkGen := func(conn, phase int) *gen {
		g := newGen(sp, ks, z, seed, conn, phase)
		g.owner = owner
		return g
	}
	// The measured time is split into rounds of one open-loop window and
	// one closed-loop window each. Every metric is the median over the
	// valid rounds, so a stall from elsewhere on the host spoils one
	// round, not the run. The open-loop and closed-loop streams are
	// separate per connection, so the open loop's inputs do not depend
	// on how far the closed loop got.
	rounds := seconds * roundsPerSecond
	roundDur := time.Second / roundsPerSecond
	openW := time.Duration(float64(roundDur) * 0.6)
	closedW := roundDur - openW
	warm := make([]*arena, conns)
	openArenas := make([][]*arena, rounds)
	closedPools := make([]*pool, conns)
	for c := 0; c < conns; c++ {
		g := mkGen(c, kindOpen)
		warm[c] = newArena(g, int(sp.rate*0.25)/conns)
		for r := range openArenas {
			openArenas[r] = append(openArenas[r], newArena(g, int(sp.rate*openW.Seconds())/conns))
		}
		closedPools[c] = &pool{a: newArena(mkGen(c, kindClosed), closedPoolSize)}
	}

	// The system is set up setupRuns times, and each set-up serves an
	// equal share of the rounds, so that how one set of processes
	// happened to land in memory and on the vCPUs is not the whole run's
	// figure.
	var setups, rssPerSetup []float64
	open := &openResult{}
	all := &tally{}
	total := &window{servers: scrape{}}
	var rs []roundResult
	var cpu float64
	var closedAttempted int64
	for su := 0; su < setupRuns; su++ {
		sys, d, err := setUp(sp, ks, bin, work, su)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d)
		// No collections while measuring: with two Ps a mark phase takes
		// one of them and delays the sender past its schedule. What the
		// phases allocate is tens of megabytes; the memory limit still
		// bounds it.
		runtime.GC()
		debug.SetGCPercent(-1)
		debug.SetMemoryLimit(1 << 30)
		wu := openLoop(sys.cls, warm, sp.rate, false)
		if wu.wrong > 0 {
			res.fail("warm-up: %d wrong replies; first: %s", wu.wrong, wu.firstBad)
		}
		before, err := sys.read(ks)
		if err != nil {
			sys.stop()
			return nil, err
		}
		sysTally := &tally{}
		for r := su * rounds / setupRuns; r < (su+1)*rounds/setupRuns; r++ {
			var rr roundResult
			t0, st0 := time.Now(), hostSteal()
			o := openLoop(sys.cls, openArenas[r], sp.rate, true)
			cpu0 := sys.serverCPU()
			cl := closedLoop(sys.cls, closedPools, sp.depth, closedW)
			cpu += sys.serverCPU() - cpu0
			rr.steal = (hostSteal() - st0) / time.Since(t0).Seconds() / float64(runtime.NumCPU())
			rr.refNs = hostRef()
			rr.lagP99, rr.backlog = quantile(o.lagUs, 0.99), o.backlog
			rr.valid = rr.lagP99 <= maxLagP99Us && rr.backlog <= maxBacklog && rr.steal <= maxSteal
			rr.ops = float64(cl.completed) / closedW.Seconds()
			for i, xs := range o.lat {
				rr.p50[i], rr.p99[i] = quantile(xs, 0.5), quantile(xs, 0.99)
				if len(xs) == 0 {
					res.fail("round %d: no %s samples", r, opNames[i])
				}
			}
			rr.lat = o.lat
			rs = append(rs, rr)
			closedAttempted += cl.attempted
			open.merge(&o.tally)
			open.lagUs = append(open.lagUs, o.lagUs...)
			open.backlog = max(open.backlog, o.backlog)
			sysTally.merge(&o.tally)
			sysTally.merge(cl)
		}
		debug.SetGCPercent(100)
		debug.SetMemoryLimit(math.MaxInt64)
		after, err := sys.read(ks)
		if err != nil {
			sys.stop()
			return nil, err
		}
		rss := 0.0
		for _, p := range sys.procs() {
			rss += p.peakRSSMB()
		}
		rssPerSetup = append(rssPerSetup, rss)
		w := newWindow(before, after)
		reconcile(res, su, sys.router != nil, w, sysTally)
		total.add(w)
		all.merge(sysTally)
		sys.stop()
	}
	res.set("setup_s", median(setups), "s")
	cpuNsPerReq := cpu * 1e9 / float64(max(closedAttempted, 1))

	res.attempted, res.failed = all.attempted, all.failed
	if all.wrong > 0 {
		res.fail("%d wrong replies; first: %s", all.wrong, all.firstBad)
	}
	res.note("workload %s seed %d: %d set-ups x %d rounds of open loop %.0f req/s for %.2fs then closed loop depth %d x %d conns for %.2fs; %d open-loop and %d closed-loop requests",
		sp.name, seed, setupRuns, rounds/setupRuns, sp.rate, openW.Seconds(), sp.depth, conns, closedW.Seconds(), open.attempted, closedAttempted)
	res.note("failed_frac %.6f (%d of %d attempted)", float64(all.failed)/float64(max(all.attempted, 1)), all.failed, all.attempted)

	var valid []roundResult
	var pooled [numOps][]float64
	for i, rr := range rs {
		res.extra = append(res.extra, fmt.Sprintf("  round %2d: steal %5.1f%%  lag p99 %8.1f us  backlog %4d  valid %-5v  search p50 %7.1f us  msearch p50 %7.1f us  ops_s %8.0f  host ref %6.0f us",
			i, 100*rr.steal, rr.lagP99, rr.backlog, rr.valid, rr.p50[opSearch], rr.p50[opMSearch], rr.ops, rr.refNs/1e3))
		if rr.valid {
			valid = append(valid, rr)
			for op := range pooled {
				pooled[op] = append(pooled[op], rr.lat[op]...)
			}
		}
	}
	lagP99 := quantile(open.lagUs, 0.99)
	res.note("loadgen: lag p50 %.1f us, p99 %.1f us, largest final backlog %d requests; %d of %d rounds valid (lag p99 <= %d us, backlog <= %d, host steal <= %.0f%%)",
		quantile(open.lagUs, 0.5), lagP99, open.backlog, len(valid), rounds, maxLagP99Us, maxBacklog, 100*maxSteal)
	if len(valid) < minValidRounds(rounds) {
		for _, n := range append(res.notes, res.extra...) {
			fmt.Fprintln(os.Stderr, n)
		}
		return nil, fmt.Errorf("run invalid: %d of %d rounds valid, fewer than %d; figures not reported", len(valid), rounds, minValidRounds(rounds))
	}

	pick := func(f func(rr roundResult) float64) float64 {
		xs := make([]float64, len(valid))
		for i, rr := range valid {
			xs[i] = f(rr)
		}
		return median(xs)
	}
	res.set("ops_s", pick(func(rr roundResult) float64 { return rr.ops }), "1/s")
	for op, name := range opNames {
		res.set(name+"_p50_us", pick(func(rr roundResult) float64 { return rr.p50[op] }), "us")
		res.set(name+"_p99_us", pick(func(rr roundResult) float64 { return rr.p99[op] }), "us")
		xs := pooled[op]
		res.extra = append(res.extra, fmt.Sprintf("  %-8s pooled over the valid rounds: p50 %9.1f us  p99 %9.1f us  p999 %9.1f us  n=%d",
			name, quantile(xs, 0.5), quantile(xs, 0.99), quantile(xs, 0.999), len(xs)))
	}
	res.set("rss_mb", median(rssPerSetup), "MB")
	res.note("host speed: the fixed reference loop took %.0f us (median over the valid rounds); it runs no program code, so a shift in it between runs is the host's own",
		pick(func(rr roundResult) float64 { return rr.refNs })/1e3)
	res.set("loadgen.lag_p99_us", lagP99, "us")
	if traced {
		rt := newRuntimeFigures(sp.backends > 0, total, all, cpuNsPerReq)
		replayPools := make([]*pool, conns)
		for c := range replayPools {
			replayPools[c] = &pool{a: newArena(newGen(sp, ks, z, seed, c, kindReplay), closedPoolSize)}
		}
		if err := replay(res, sp, ks, openArenas, replayPools, work, rt); err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
	}
	return res, nil
}

// roundResult is one round's figures.
type roundResult struct {
	steal    float64 // share of the host's CPU time the hypervisor took
	refNs    float64 // hostRef after the round
	lagP99   float64
	backlog  int
	valid    bool
	p50, p99 [numOps]float64
	lat      [numOps][]float64
	ops      float64
}

// minValidRounds is how many of a run's rounds must be valid for its
// figures to be reported: enough for a median, and no more, because on
// a shared host whole stretches of a run can be disturbed.
func minValidRounds(rounds int) int { return min(3, rounds) }

// reconcile checks one set-up's client counts against its processes'
// own counters over the measured window.
func reconcile(res *result, su int, routed bool, w *window, t *tally) {
	wantOps := t.sent[opSearch] + msearchKeys*t.sent[opMSearch]
	gotOps := w.servers.sum("caram_ops_total")
	res.note("reconcile, set-up %d: client ops %d (search %d + %d x msearch %d), servers' caram_ops_total delta %.0f, op errors %.0f",
		su, wantOps, t.sent[opSearch], msearchKeys, t.sent[opMSearch], gotOps, w.servers.sum("caram_op_errors_total"))
	if t.failed == 0 && float64(wantOps) != gotOps {
		res.fail("set-up %d: client-counted ops %d != servers' caram_ops_total delta %.0f", su, wantOps, gotOps)
	}
	if routed {
		got := w.router.sum("caram_router_backend_ops_total")
		res.note("reconcile, set-up %d: client requests %d cost %d backend requests by the ring; router's caram_router_backend_ops_total delta %.0f",
			su, t.attempted, t.fan, got)
		if t.failed == 0 && float64(t.fan) != got {
			res.fail("set-up %d: ring-predicted backend ops %d != router's backend ops delta %.0f", su, t.fan, got)
		}
	}
	if lookups := w.servers.sum("caram_engine_lookups_total"); lookups > 0 {
		res.note("reconcile, set-up %d: scraped AMAL %.4f rows/lookup over %.0f lookups (/metrics); STATS hits+misses delta %.0f",
			su, w.servers.sum("caram_engine_rows_accessed_total")/lookups, lookups, w.statsLookups)
	}
}

func hostName() string {
	h, err := os.Hostname()
	if err != nil || h == "" {
		return "unknown-host"
	}
	return h
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// appendHistory appends the run as one JSON line to <dir>/<host>.jsonl;
// earlier lines are never rewritten.
func appendHistory(dir, commit, workload string, seed int64, seconds, traced int, res *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, hostName()+".jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	ms := map[string]float64{}
	for k, v := range res.metrics {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			ms[k] = v
		}
	}
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	rec := map[string]any{
		"time": time.Now().UTC().Format(time.RFC3339), "host": hostName(), "commit": commit,
		"cpu": cpuModel(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"workload": workload, "seed": seed, "seconds": seconds, "trace": traced,
		"correct": res.correct, "attempted": res.attempted, "failed": res.failed, "metrics": ms,
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	_, err = f.Write(append(b, '\n'))
	return err
}
