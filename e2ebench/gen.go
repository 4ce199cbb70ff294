package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
)

// opKind is one client-visible operation of a workload's op stream.
type opKind uint8

const (
	kGet opKind = iota
	kPut
	kDel
	kCas
	kBatch
	kTxn
	kScan
)

// bop is one entry of a BATCH.
type bop struct {
	del  bool
	key  uint64
	size int
}

// op is one generated request (a TXN is one op: a whole BEGIN…COMMIT
// conversation).
type op struct {
	kind  opKind
	key   uint64    // GET/PUT/DEL/CAS key; SCAN start key
	size  int       // PUT/CAS value length
	keys  [2]uint64 // TXN keys
	batch []bop
}

// scanLen is the SCAN page every workload asks for.
const scanLen = 100

// workload is one seeded traffic mix and the rewindd flags it runs under.
type workload struct {
	name    string
	preload int // keys 0..preload-1 are loaded during set-up
	hot     int // shared hot keys (hotBase..), loaded during set-up
	// compactEvery is rewindd's -compact-every: 0 where nothing is
	// deleted, the default 1 elsewhere.
	compactEvery int
	newGen       func(seed uint64, worker int) generator
	scans        bool // SCAN is part of the timed mix (else a post-window probe)
	deletes      bool // the mix deletes keys
}

// generator yields one worker's op stream. The stream is a pure function
// of (seed, workload, worker): it never looks at server responses.
type generator interface{ next(o *op) }

// hotBase numbers churn's shared TXN/CAS keys apart from the owned keys.
const hotBase = 1 << 40

var workloads = map[string]*workload{
	"point-update": {
		name: "point-update", preload: 100_000,
		newGen: func(seed uint64, w int) generator {
			return &pointGen{rng: newRNG(seed, w), z: newZipf(100_000, 0.99)}
		},
	},
	"read-scan": {
		name: "read-scan", preload: 100_000, scans: true,
		newGen: func(seed uint64, w int) generator {
			return &readScanGen{rng: newRNG(seed, w), n: 100_000}
		},
	},
	"churn": {
		name: "churn", preload: 20_000, hot: 16, deletes: true, compactEvery: 1,
		newGen: func(seed uint64, w int) generator { return newChurnGen(seed, w, 20_000, 16) },
	},
}

func newRNG(seed uint64, worker int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^uint64(worker)))
}

// pointGen: 50% GET, 50% overwrite PUT of 100 B, keys YCSB-zipfian.
type pointGen struct {
	rng *rand.Rand
	z   *zipf
}

func (g *pointGen) next(o *op) {
	*o = op{key: g.z.next(g.rng), size: 100}
	if g.rng.IntN(2) == 0 {
		o.kind = kGet
	} else {
		o.kind = kPut
	}
}

// readScanGen: 90% GET, 5% SCAN-100, 5% overwrite PUT of 100 B, keys
// uniform.
type readScanGen struct {
	rng *rand.Rand
	n   uint64
}

func (g *readScanGen) next(o *op) {
	r := g.rng.IntN(100)
	switch {
	case r < 90:
		*o = op{kind: kGet, key: g.rng.Uint64N(g.n)}
	case r < 95:
		*o = op{kind: kScan, key: g.rng.Uint64N(g.n - scanLen + 1)}
	default:
		*o = op{kind: kPut, key: g.rng.Uint64N(g.n), size: 100}
	}
}

// churnGen: 25% fresh insert, 20% delete, 10% overwrite, 5% CAS, 20% GET,
// 10% BATCH-8, 10% TXN. Inserts, deletes, overwrites, GETs and batches
// touch only keys this worker owns (key%2 == worker), so the generator's
// own live list is the truth about them whatever the other worker does;
// CAS and TXN go to the shared hot keys, where the two workers meet.
type churnGen struct {
	rng   *rand.Rand
	live  []uint64
	fresh uint64 // next unused owned key
	cap   int    // live-set ceiling: inserts turn into deletes above it
	hot   int
}

func newChurnGen(seed uint64, w, preload, hot int) *churnGen {
	g := &churnGen{rng: newRNG(seed, w), fresh: uint64(preload + w), hot: hot}
	for k := w; k < preload; k += 2 {
		g.live = append(g.live, uint64(k))
	}
	g.cap = len(g.live) * 5 / 4
	return g
}

func (g *churnGen) size() int { return 16 + g.rng.IntN(512-16+1) }

func (g *churnGen) insertKey() uint64 {
	k := g.fresh
	g.fresh += 2
	g.live = append(g.live, k)
	return k
}

// takeLive removes and returns a random live key.
func (g *churnGen) takeLive() uint64 {
	i := g.rng.IntN(len(g.live))
	k := g.live[i]
	g.live[i] = g.live[len(g.live)-1]
	g.live = g.live[:len(g.live)-1]
	return k
}

func (g *churnGen) anyLive() uint64 { return g.live[g.rng.IntN(len(g.live))] }

func (g *churnGen) hotKey() uint64 { return hotBase + g.rng.Uint64N(uint64(g.hot)) }

func (g *churnGen) next(o *op) {
	r := g.rng.IntN(100)
	switch {
	case r < 25 && len(g.live) < g.cap, r < 45 && len(g.live) < 64:
		*o = op{kind: kPut, key: g.insertKey(), size: g.size()}
	case r < 45:
		*o = op{kind: kDel, key: g.takeLive()}
	case r < 55:
		*o = op{kind: kPut, key: g.anyLive(), size: g.size()}
	case r < 60:
		*o = op{kind: kCas, key: g.hotKey(), size: g.size()}
	case r < 80:
		*o = op{kind: kGet, key: g.anyLive()}
	case r < 90:
		*o = op{kind: kBatch, batch: g.batch()}
	default:
		a := g.hotKey()
		b := g.hotKey()
		for b == a {
			b = g.hotKey()
		}
		*o = op{kind: kTxn, keys: [2]uint64{a, b}, size: g.size()}
	}
}

// batch builds 8 entries on distinct owned keys: ~40% deletes, ~35% fresh
// inserts, ~25% overwrites, which with the single-op mix keeps the live
// set roughly level.
func (g *churnGen) batch() []bop {
	out := make([]bop, 0, 8)
	seen := map[uint64]bool{} // keys already in this batch
	for len(out) < 8 {
		r := g.rng.IntN(100)
		switch {
		case r < 40 && len(g.live) > 64:
			out = append(out, bop{del: true, key: g.takeLive()})
		case r < 75:
			out = append(out, bop{key: g.insertKey(), size: g.size()})
			seen[g.live[len(g.live)-1]] = true
		default:
			k := g.anyLive()
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, bop{key: k, size: g.size()})
		}
	}
	return out
}

// zipf is YCSB's scrambled zipfian generator (Gray et al.'s method): rank
// r has weight 1/(r+1)^theta, and ranks are hashed over the key space so
// the hot keys do not cluster in one leaf or stripe.
type zipf struct {
	n                        uint64
	theta, alpha, zetan, eta float64
	half                     float64
}

func newZipf(n uint64, theta float64) *zipf {
	zeta := func(n uint64) float64 {
		s := 0.0
		for i := uint64(1); i <= n; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	zetan := zeta(n)
	return &zipf{
		n: n, theta: theta, alpha: 1 / (1 - theta), zetan: zetan,
		eta:  (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/zetan),
		half: math.Pow(0.5, theta),
	}
}

func (z *zipf) next(rng *rand.Rand) uint64 {
	u := rng.Float64()
	uz := u * z.zetan
	var rank uint64
	switch {
	case uz < 1:
		rank = 0
	case uz < 1+z.half:
		rank = 1
	default:
		rank = uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	return fnv64(rank) % z.n
}

func fnv64(v uint64) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 0x100000001b3
		v >>= 8
	}
	return h
}

// Every stored value is self-describing: key, then stamp (writer<<48 |
// seq), then filler derived from the stamp, so a reader can name the
// write that produced it and spot a torn or misplaced image.
const valueHeader = 16

func makeValue(dst []byte, key, stamp uint64, size int) []byte {
	if size < valueHeader {
		panic(fmt.Sprintf("value size %d below the %d-byte stamp", size, valueHeader))
	}
	v := append(dst[:0], make([]byte, size)...)
	binary.LittleEndian.PutUint64(v, key)
	binary.LittleEndian.PutUint64(v[8:], stamp)
	for i := valueHeader; i < size; i++ {
		v[i] = fill(stamp, i)
	}
	return v
}

func fill(stamp uint64, i int) byte { return byte(stamp>>(8*(i&7))) ^ byte(i) }

// parseValue returns the stamp a value names, or ok=false when the image
// is not one makeValue could have produced for key.
func parseValue(key uint64, v []byte) (stamp uint64, ok bool) {
	if len(v) < valueHeader || binary.LittleEndian.Uint64(v) != key {
		return 0, false
	}
	stamp = binary.LittleEndian.Uint64(v[8:])
	for i := valueHeader; i < len(v); i++ {
		if v[i] != fill(stamp, i) {
			return stamp, false
		}
	}
	return stamp, true
}
