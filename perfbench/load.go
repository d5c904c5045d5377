package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// client is one pipelined connection to the system under test.
type client struct {
	c net.Conn
	w *bufio.Writer
	r *bufio.Reader
}

func dial(addr string) (*client, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &client{c: c, w: bufio.NewWriterSize(c, 64<<10), r: bufio.NewReaderSize(c, 64<<10)}, nil
}

// readLine returns the next reply without its newline; the slice is
// valid until the next read.
func (cl *client) readLine() ([]byte, error) {
	line, err := cl.r.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return line[:len(line)-1], nil
}

// roundTrip sends one line and reads one reply.
func (cl *client) roundTrip(line string) (string, error) {
	cl.c.SetDeadline(time.Now().Add(10 * time.Second))
	defer cl.c.SetDeadline(time.Time{})
	if _, err := cl.w.WriteString(line + "\n"); err != nil {
		return "", err
	}
	if err := cl.w.Flush(); err != nil {
		return "", err
	}
	rep, err := cl.readLine()
	return string(rep), err
}

func (cl *client) close() { cl.c.Close() }

// tally accumulates one phase's outcomes. Latencies are in
// microseconds. A reply that differs from the oracle's is wrong unless
// it is an error reply (ERR ..., or an ERR: slot of MRESULTS), which
// counts as failed; requests that never got a reply also count as
// failed.
type tally struct {
	mu        sync.Mutex
	lat       [numOps][]float64
	attempted int64
	failed    int64
	wrong     int64
	firstBad  string
	completed int64 // replies received before the phase's end (closed loop)
	sent      [numOps]int64
	fan       int64 // backend requests the sent requests cost behind a router
}

func (t *tally) check(r *request, reply []byte) bool {
	if bytes.Equal(reply, r.want) {
		return true
	}
	if bytes.HasPrefix(reply, []byte("ERR")) || bytes.Contains(reply, []byte(" ERR:")) {
		t.failed++
		return false
	}
	t.wrong++
	if t.firstBad == "" {
		t.firstBad = fmt.Sprintf("request %q: got %q, want %q", bytes.TrimSpace(r.line), reply, r.want)
	}
	return false
}

func (t *tally) merge(o *tally) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.lat {
		t.lat[i] = append(t.lat[i], o.lat[i]...)
		t.sent[i] += o.sent[i]
	}
	t.fan += o.fan
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	t.completed += o.completed
	if t.firstBad == "" {
		t.firstBad = o.firstBad
	}
}

// load inserts every stored key over both connections, a window of
// requests at a time, and fails on any reply but OK.
func load(cls []*client, ks *keyset) error {
	const window = 256
	errs := make(chan error, len(cls))
	for c, cl := range cls {
		go func(c int, cl *client) {
			lines := loadLines(ks, c)
			cl.c.SetDeadline(time.Now().Add(120 * time.Second))
			defer cl.c.SetDeadline(time.Time{})
			for len(lines) > 0 {
				n := min(window, len(lines))
				for _, l := range lines[:n] {
					cl.w.Write(l)
				}
				if err := cl.w.Flush(); err != nil {
					errs <- err
					return
				}
				for i := 0; i < n; i++ {
					rep, err := cl.readLine()
					if err != nil {
						errs <- err
						return
					}
					if string(rep) != "OK" {
						errs <- fmt.Errorf("load %q: %q", bytes.TrimSpace(lines[i]), rep)
						return
					}
				}
				lines = lines[n:]
			}
			errs <- nil
		}(c, cl)
	}
	var first error
	for range cls {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// arena holds a pre-generated request stream compactly.
type arena struct {
	ops   []uint8
	fans  []uint8
	lines []byte
	wants []byte
	lo    []int32 // lines[lo[i]:lo[i+1]]
	wo    []int32
}

func newArena(g *gen, n int) *arena {
	a := &arena{lo: []int32{0}, wo: []int32{0}}
	var r request
	for i := 0; i < n; i++ {
		g.next(&r)
		a.ops = append(a.ops, r.op)
		a.fans = append(a.fans, r.fan)
		a.lines = append(a.lines, r.line...)
		a.wants = append(a.wants, r.want...)
		a.lo = append(a.lo, int32(len(a.lines)))
		a.wo = append(a.wo, int32(len(a.wants)))
	}
	return a
}

func (a *arena) get(i int) request {
	return request{op: a.ops[i], fan: a.fans[i], line: a.lines[a.lo[i]:a.lo[i+1]], want: a.wants[a.wo[i]:a.wo[i+1]]}
}

// openResult is one open-loop phase's outcome.
type openResult struct {
	tally
	lagUs   []float64 // send time minus due time, every request
	backlog int       // requests sent but unanswered when the last one was due
}

type pending struct {
	idx int
	due time.Time
}

// openLoop offers streams[c] on connection c at rate requests per
// second in total, alternating connections, on a fixed schedule that
// does not wait for replies. Each request's latency runs from when it
// was due, so a stall is charged to every request queued behind it.
// When record is false the phase only warms up.
func openLoop(cls []*client, streams []*arena, rate float64, record bool) *openResult {
	n := 0
	for _, s := range streams {
		n += len(s.ops)
	}
	interval := time.Duration(float64(time.Second) / rate)
	res := &openResult{}
	pend := make([]chan pending, len(cls))
	for c := range cls {
		pend[c] = make(chan pending, len(streams[c].ops)+1)
	}
	var inflight int64
	var inflightMu sync.Mutex
	tallies := make([]*tally, len(cls))
	var wg sync.WaitGroup
	start := time.Now().Add(2 * time.Millisecond)
	end := start.Add(time.Duration(n) * interval)
	for c, cl := range cls {
		tallies[c] = &tally{}
		wg.Add(1)
		go func(c int, cl *client, t *tally) {
			defer wg.Done()
			cl.c.SetReadDeadline(end.Add(5 * time.Second))
			defer cl.c.SetReadDeadline(time.Time{})
			s := streams[c]
			for got := 0; got < len(s.ops); got++ {
				reply, err := cl.readLine()
				now := time.Now()
				if err != nil {
					// Dropped or timed out: everything unanswered failed.
					t.failed += int64(len(s.ops) - got)
					return
				}
				p := <-pend[c]
				r := s.get(p.idx)
				if t.check(&r, reply) && record {
					t.lat[r.op] = append(t.lat[r.op], float64(now.Sub(p.due))/1e3)
				}
				inflightMu.Lock()
				inflight--
				inflightMu.Unlock()
			}
		}(c, cl, tallies[c])
	}

	// The sender runs on its own OS thread with a 1 µs timer slack and
	// sleeps in nanosleep: Go's own timers woke about a millisecond late
	// on a 2-vCPU Linux VM, which would turn a fixed-rate schedule into
	// bursts.
	senderDone := make(chan struct{})
	go func() {
		defer close(senderDone)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		syscall.RawSyscall(syscall.SYS_PRCTL, 29 /* PR_SET_TIMERSLACK */, 1000, 0)
		next := make([]int, len(cls))
		dirty := make([]bool, len(cls))
		for i := 0; i < n; {
			now := time.Now()
			due := start.Add(time.Duration(i) * interval)
			if wait := due.Sub(now); wait > 0 {
				ts := syscall.NsecToTimespec(int64(wait))
				syscall.Nanosleep(&ts, nil)
				continue
			}
			for ; i < n; i++ {
				due = start.Add(time.Duration(i) * interval)
				if due.After(now) {
					break
				}
				c := i % len(cls)
				if next[c] >= len(streams[c].ops) {
					continue
				}
				r := streams[c].get(next[c])
				inflightMu.Lock()
				inflight++
				inflightMu.Unlock()
				pend[c] <- pending{idx: next[c], due: due}
				next[c]++
				cls[c].w.Write(r.line)
				dirty[c] = true
				if record {
					res.lagUs = append(res.lagUs, float64(now.Sub(due))/1e3)
				}
			}
			for c, cl := range cls {
				if dirty[c] {
					cl.w.Flush()
					dirty[c] = false
				}
			}
		}
		inflightMu.Lock()
		res.backlog = int(inflight)
		inflightMu.Unlock()
	}()
	<-senderDone
	wg.Wait()
	for c, t := range tallies {
		t.attempted = int64(len(streams[c].ops))
		for i, op := range streams[c].ops {
			t.sent[op]++
			t.fan += int64(streams[c].fans[i])
		}
		res.tally.merge(t)
	}
	return res
}

// pool is a closed-loop request stream: a pre-generated arena that the
// closed loop walks round after round, wrapping at its end, so that
// generating requests costs the client nothing while it measures.
type pool struct {
	a    *arena
	next int
}

// closedLoop keeps depth requests outstanding on every connection for
// dur, taking connection c's requests from pools[c]. Replies that
// arrive after dur are still checked but not counted as completed.
func closedLoop(cls []*client, pools []*pool, depth int, dur time.Duration) *tally {
	total := &tally{}
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(dur)
	for c, cl := range cls {
		wg.Add(1)
		go func(cl *client, p *pool) {
			defer wg.Done()
			t := &tally{}
			defer total.merge(t)
			cl.c.SetReadDeadline(end.Add(5 * time.Second))
			defer cl.c.SetReadDeadline(time.Time{})
			ring := make([]int, depth) // arena index of each outstanding request
			head, inFlight := 0, 0
			send := func() {
				i := p.next % len(p.a.ops)
				p.next++
				ring[(head+inFlight)%depth] = i
				r := p.a.get(i)
				cl.w.Write(r.line)
				t.sent[r.op]++
				t.fan += int64(r.fan)
				t.attempted++
				inFlight++
			}
			for inFlight < depth {
				send()
			}
			cl.w.Flush()
			for inFlight > 0 {
				reply, err := cl.readLine()
				if err != nil {
					t.failed += int64(inFlight)
					return
				}
				now := time.Now()
				r := p.a.get(ring[head])
				if t.check(&r, reply) && now.Before(end) {
					t.completed++
				}
				head = (head + 1) % depth
				inFlight--
				if now.Before(end) {
					send()
					if cl.r.Buffered() == 0 {
						cl.w.Flush()
					}
				} else if cl.r.Buffered() == 0 {
					cl.w.Flush()
				}
			}
		}(cl, pools[c])
	}
	wg.Wait()
	return total
}

// quantile returns the q-quantile of xs by linear interpolation
// (sorting xs in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	return quantile(c, 0.5)
}
