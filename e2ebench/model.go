package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// never is the ack event of a write whose outcome is unknown: in flight,
// or failed ambiguously (connection lost, daemon killed).
const never = math.MaxInt64

// write is one PUT or DELETE the generator sent. Events are ticks of the
// model's clock: send is taken before the request leaves, ack after its
// response arrives, so ack(A) < send(B) proves A was applied before B
// reached the server.
type write struct {
	key   uint64
	stamp uint64 // PUTs only
	del   bool
	size  int
	send  int64
	ack   int64 // never until acknowledged
	dead  bool  // the server reported it did not apply (CAS miss, TXN conflict)
}

type ackMark struct{ ack, maxSend int64 }

// keyState is one key's acknowledged history.
type keyState struct {
	acks     []ackMark // acked writes in ack order; maxSend is a prefix max
	delAck   int64     // latest ack among acked deletes (-1: none)
	pendDels []*write  // deletes sent but not acked
	last     *write    // latest acked write
}

// model records every write the generator sends and checks each read
// against it. A read of key k sent at event s and answered at event r is
// correct when it returns the image of some write X with X.send < r such
// that no write W acked before s was sent after X was acked: that W would
// have overwritten X before the read arrived. A NOTFOUND answer needs
// such an X among the deletes (or no acked write at all before s).
type model struct {
	clock atomic.Int64

	mu        sync.Mutex
	keys      map[uint64]*keyState
	puts      map[uint64]*write // by stamp
	liveBytes int64             // key+value bytes of keys whose latest acked write is a PUT
	bad       int64
	first     []string
}

func newModel() *model {
	return &model{keys: map[uint64]*keyState{}, puts: map[uint64]*write{}}
}

func (m *model) event() int64 { return m.clock.Add(1) }

func (m *model) state(key uint64) *keyState {
	ks := m.keys[key]
	if ks == nil {
		ks = &keyState{delAck: -1}
		m.keys[key] = ks
	}
	return ks
}

// sendPut registers a PUT of stamp before it is sent.
func (m *model) sendPut(key, stamp uint64, size int) *write {
	w := &write{key: key, stamp: stamp, size: size, ack: never}
	m.mu.Lock()
	m.state(key)
	m.puts[stamp] = w
	w.send = m.event()
	m.mu.Unlock()
	return w
}

// sendDel registers a DELETE before it is sent.
func (m *model) sendDel(key uint64) *write {
	w := &write{key: key, del: true, ack: never}
	m.mu.Lock()
	ks := m.state(key)
	ks.pendDels = append(ks.pendDels, w)
	w.send = m.event()
	m.mu.Unlock()
	return w
}

// acked records that ws (one atomic request) was acknowledged.
func (m *model) acked(ws ...*write) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ev := m.event()
	for _, w := range ws {
		w.ack = ev
		ks := m.keys[w.key]
		ms := w.send
		if n := len(ks.acks); n > 0 && ks.acks[n-1].maxSend > ms {
			ms = ks.acks[n-1].maxSend
		}
		ks.acks = append(ks.acks, ackMark{ack: ev, maxSend: ms})
		if w.del {
			ks.delAck = ev
			ks.dropPending(w)
		}
		m.liveBytes -= ks.lastBytes()
		ks.last = w
		m.liveBytes += ks.lastBytes()
	}
}

// dead records that ws were definitely not applied.
func (m *model) dead(ws ...*write) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, w := range ws {
		w.dead = true
		if w.del {
			m.keys[w.key].dropPending(w)
		}
	}
}

func (ks *keyState) dropPending(w *write) {
	for i, p := range ks.pendDels {
		if p == w {
			ks.pendDels = append(ks.pendDels[:i], ks.pendDels[i+1:]...)
			return
		}
	}
}

func (ks *keyState) lastBytes() int64 {
	if ks.last == nil || ks.last.del {
		return 0
	}
	return int64(8 + ks.last.size)
}

// maxSendBefore is the latest send event among writes acked before ev
// (-1 when none).
func (ks *keyState) maxSendBefore(ev int64) int64 {
	i := sort.Search(len(ks.acks), func(i int) bool { return ks.acks[i].ack >= ev })
	if i == 0 {
		return -1
	}
	return ks.acks[i-1].maxSend
}

// latestImage returns the stamp and size of key's latest acked PUT, or
// ok=false when the latest acked write is a delete or there is none.
func (m *model) latestImage(key uint64) (stamp uint64, size int, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ks := m.keys[key]
	if ks == nil || ks.last == nil || ks.last.del {
		return 0, 0, false
	}
	return ks.last.stamp, ks.last.size, true
}

// fail records a violation found outside the model's own checks.
func (m *model) fail(format string, args ...any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.violation(format, args...)
}

// violation records a violation; the caller holds mu.
func (m *model) violation(format string, args ...any) {
	m.bad++
	if len(m.first) < 8 {
		m.first = append(m.first, fmt.Sprintf(format, args...))
	}
}

// checkValue checks a read of key that returned v, sent at event send
// and answered at event recv (never, never for the post-crash check).
func (m *model) checkValue(what string, key uint64, v []byte, send, recv int64) {
	stamp, ok := parseValue(key, v)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !ok {
		m.violation("%s %d: returned %d bytes that are not an image written for that key", what, key, len(v))
		return
	}
	w := m.puts[stamp]
	switch {
	case w == nil || w.key != key:
		m.violation("%s %d: returned stamp %#x that was never written to it", what, key, stamp)
	case w.size != len(v):
		m.violation("%s %d: stamp %#x has %d bytes, want %d", what, key, stamp, len(v), w.size)
	case w.dead:
		m.violation("%s %d: returned stamp %#x whose write was reported not applied", what, key, stamp)
	case w.send > recv:
		m.violation("%s %d: returned stamp %#x before it was sent", what, key, stamp)
	case m.keys[key].maxSendBefore(send) > w.ack:
		m.violation("%s %d: returned stamp %#x, older than a write acked before the read was sent", what, key, stamp)
	}
}

// checkAbsent checks a read of key that found nothing.
func (m *model) checkAbsent(what string, key uint64, send, recv int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ks := m.keys[key]
	if ks == nil {
		return
	}
	ms := ks.maxSendBefore(send)
	if ms < 0 || ks.delAck > ms {
		return
	}
	for _, d := range ks.pendDels {
		if d.send < recv {
			return
		}
	}
	m.violation("%s %d: not found, but a write acked before the read was sent put it there", what, key)
}

// checkFinal compares a full post-restart scan with the model: every key
// must hold its latest acked image or a later in-flight one, and every key
// the scan did not return must be explainable as deleted.
func (m *model) checkFinal(got map[uint64][]byte) {
	for k, v := range got {
		m.mu.Lock()
		known := m.keys[k] != nil
		m.mu.Unlock()
		if !known {
			m.fail("after restart: key %d present but never written", k)
			continue
		}
		m.checkValue("after restart: key", k, v, never, never)
	}
	m.mu.Lock()
	var missing []uint64
	for k := range m.keys {
		if _, ok := got[k]; !ok {
			missing = append(missing, k)
		}
	}
	m.mu.Unlock()
	for _, k := range missing {
		m.checkAbsent("after restart: key", k, never, never)
	}
}

// liveKeys returns the keys whose latest acked write is a PUT, sorted.
func (m *model) liveKeys() []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []uint64
	for k, ks := range m.keys {
		if ks.last != nil && !ks.last.del {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (m *model) violations() (int64, []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bad, append([]string(nil), m.first...)
}

func (m *model) live() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.liveBytes
}
