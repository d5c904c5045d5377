package main

import (
	"math/bits"
	"math/rand"
	"sort"
	"strconv"

	"caram/internal/bitutil"
	"caram/internal/cluster"
)

// Request kinds, in the order their latencies are reported.
const (
	opSearch = iota
	opMSearch
	numOps
)

var opNames = [numOps]string{"search", "msearch"}

// msearchKeys is the batch size of every generated MSEARCH.
const msearchKeys = 8

// ekey is one stored or probed key and the engine it belongs to.
type ekey struct {
	eng uint8
	key uint64
}

// Key tags in the top two bits keep the key populations disjoint by
// construction: keys loaded at set-up, keys the traced replay inserts
// and deletes, and keys that are never stored.
const (
	tagBase   = uint64(0) << 62
	tagFresh  = uint64(1) << 62
	tagAbsent = uint64(2) << 62
)

// dataOf is the value stored under key: a fixed function of the key, so
// every HIT reply can be checked without remembering what was written.
// Engines keep 32 data bits.
func dataOf(key uint64) uint32 { return uint32((key * 0x9E3779B97F4A7C15) >> 32) }

// routedLabels are the fixed addresses of the routed workload's
// backends. caram-router places keys on a hash ring keyed by backend
// address, so fixed addresses give every run the same placement.
var routedLabels = []string{"127.0.0.1:47311", "127.0.0.1:47312"}

var routedRing = func() *cluster.Ring {
	r, err := cluster.NewRing(routedLabels, cluster.DefaultReplicas)
	if err != nil {
		panic(err)
	}
	return r
}()

// keyset is the workload's table contents at the end of set-up.
type keyset struct {
	engines []string
	stored  []ekey // every loaded key; shuffled, so index order is a random popularity order
	absent  []ekey // keys that are never stored
}

func newKeyset(sp *spec, seed int64) *keyset {
	rng := rand.New(rand.NewSource(seed))
	ks := &keyset{}
	for e := 0; e < sp.engines; e++ {
		ks.engines = append(ks.engines, "e"+strconv.Itoa(e))
	}
	perEngine := sp.storedPerEngine()
	seen := make(map[uint64]struct{}, perEngine*sp.engines)
	draw := func(tag uint64) uint64 {
		for {
			k := tag | rng.Uint64()>>2
			if _, dup := seen[k]; !dup {
				seen[k] = struct{}{}
				return k
			}
		}
	}
	for e := 0; e < sp.engines; e++ {
		if sp.backends == 0 {
			for i := 0; i < perEngine; i++ {
				ks.stored = append(ks.stored, ekey{uint8(e), draw(tagBase)})
			}
			continue
		}
		// Behind the router, keep each backend's engine at exactly the
		// workload's load factor whatever share of the ring it owns:
		// draw keys and skip those whose owner is already full.
		quota := perEngine / sp.backends
		have := make([]int, sp.backends)
		for filled := 0; filled < sp.backends; {
			k := draw(tagBase)
			b := routedRing.Owner(ks.engines[e], bitutil.Vec128{Lo: k})
			if have[b] == quota {
				continue
			}
			ks.stored = append(ks.stored, ekey{uint8(e), k})
			if have[b]++; have[b] == quota {
				filled++
			}
		}
	}
	rng.Shuffle(len(ks.stored), func(i, j int) { ks.stored[i], ks.stored[j] = ks.stored[j], ks.stored[i] })
	for i := 0; i < 1<<16; i++ {
		ks.absent = append(ks.absent, ekey{uint8(rng.Intn(sp.engines)), draw(tagAbsent)})
	}
	return ks
}

// zipf draws ranks in [0, n) with P(k) proportional to 1/(k+1)^1, the
// paper's skewed pattern at s = 1.0 exactly (math/rand's sampler needs
// s > 1), by inverse transform over the cumulative weights.
type zipf struct{ cdf []float64 }

func newZipf(n int) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for k := range z.cdf {
		sum += 1 / float64(k+1)
		z.cdf[k] = sum
	}
	return z
}

func (z *zipf) rank(rng *rand.Rand) int {
	u := rng.Float64() * z.cdf[len(z.cdf)-1]
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// request is one generated request line and the only reply a correct
// server may give to it.
type request struct {
	op   uint8
	fan  uint8  // backend requests it costs behind the router (1 when direct)
	line []byte // with the trailing newline
	want []byte // without the newline
}

// gen produces one connection's request stream. Streams are
// deterministic per (seed, connection, phase). The streams only read,
// so the expected reply of every request is known when it is
// generated, whatever the interleaving between the two connections.
type gen struct {
	sp   *spec
	ks   *keyset
	rng  *rand.Rand
	zipf *zipf
	// owner maps a key to its backend behind the router; nil when the
	// workload talks to one server.
	owner func(ekey) int
}

// Stream kinds: each connection has one open-loop and one closed-loop
// stream, and one more for the traced run's in-process router.
const (
	kindOpen = iota
	kindClosed
	kindReplay
)

func newGen(sp *spec, ks *keyset, z *zipf, seed int64, conn, kind int) *gen {
	return &gen{
		sp:   sp,
		ks:   ks,
		rng:  rand.New(rand.NewSource(seed*1_000_003 + int64(kind)*7919 + int64(conn))),
		zipf: z,
	}
}

// readKey picks the key of one lookup and reports whether it is stored.
func (g *gen) readKey() (ekey, bool) {
	if g.rng.Float64() < g.sp.missFrac {
		return g.ks.absent[g.rng.Intn(len(g.ks.absent))], false
	}
	if g.zipf != nil {
		return g.ks.stored[g.zipf.rank(g.rng)], true
	}
	return g.ks.stored[g.rng.Intn(len(g.ks.stored))], true
}

// next fills r with the stream's next request, reusing r's buffers.
func (g *gen) next(r *request) {
	r.line, r.want = r.line[:0], r.want[:0]
	r.fan = 1
	if g.rng.Float64() < g.sp.msearchFrac {
		r.op = opMSearch
		r.line = append(r.line, "MSEARCH"...)
		r.want = append(r.want, "MRESULTS"...)
		var backends uint64
		for i := 0; i < msearchKeys; i++ {
			k, stored := g.readKey()
			if g.owner != nil {
				backends |= 1 << g.owner(k)
			}
			r.line = appendEKey(r.line, g.ks, k)
			if stored {
				r.want = append(r.want, " HIT:0:"...)
				r.want = appendHex16(r.want, uint64(dataOf(k.key)))
			} else {
				r.want = append(r.want, " MISS"...)
			}
		}
		r.line = append(r.line, '\n')
		if g.owner != nil {
			r.fan = uint8(bits.OnesCount64(backends))
		}
		return
	}
	r.op = opSearch
	k, stored := g.readKey()
	r.line = append(r.line, "SEARCH"...)
	r.line = appendEKey(r.line, g.ks, k)
	r.line = append(r.line, '\n')
	r.want = appendSearchReply(r.want, k.key, stored)
}

func appendEKey(b []byte, ks *keyset, k ekey) []byte {
	b = append(b, ' ')
	b = append(b, ks.engines[k.eng]...)
	b = append(b, ' ')
	return strconv.AppendUint(b, k.key, 16)
}

func appendSearchReply(b []byte, key uint64, stored bool) []byte {
	if !stored {
		return append(b, "MISS"...)
	}
	b = append(b, "HIT 0:"...)
	return appendHex16(b, uint64(dataOf(key)))
}

func appendHex16(b []byte, v uint64) []byte {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, digits[(v>>uint(shift))&0xf])
	}
	return b
}

// loadLines returns the INSERT lines that load connection conn's half
// of the stored keys.
func loadLines(ks *keyset, conn int) (lines [][]byte) {
	for i, k := range ks.stored {
		if i%2 != conn {
			continue
		}
		b := appendEKey([]byte("INSERT"), ks, k)
		b = append(b, ' ')
		b = strconv.AppendUint(b, uint64(dataOf(k.key)), 16)
		lines = append(lines, append(b, '\n'))
	}
	return lines
}
