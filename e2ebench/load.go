package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rewind-db/rewind/client"
)

// class groups ops for the latency metrics.
type class uint8

const (
	clsRead  class = iota // GET
	clsWrite              // PUT, DEL, CAS, BATCH, whole TXN conversation
	clsScan               // SCAN-100
	nClasses
)

func classOf(k opKind) class {
	switch k {
	case kGet:
		return clsRead
	case kScan:
		return clsScan
	}
	return clsWrite
}

// sample is one finished op, in nanoseconds since the run's epoch.
type sample struct {
	start, end int64
	cls        class
	failed     bool
}

// cspan is one client call (one wire frame) recorded by a traced worker.
type cspan struct {
	op         string // wire op: GET PUT DEL CAS BATCH SCAN BEGIN TGET TPUT COMMIT
	key        uint64
	start, end int64
}

// worker drives one closed-loop connection: it sends its next request
// only after the previous one is answered.
type worker struct {
	id    int
	cl    *client.Client
	gen   generator
	m     *model
	wl    *workload
	epoch time.Time
	seq   uint64
	buf   []byte

	// trace records a span per client call and keeps the generated op
	// stream for the traced run's kv replay.
	trace bool
	spans []cspan
	ops   []op

	samples []sample
	retries int64 // transport-level resends of idempotent requests
	lost    bool  // the connection died (daemon killed): stop
}

func newWorker(id int, addr string, wl *workload, gen generator, m *model, epoch time.Time) *worker {
	return &worker{id: id, wl: wl, gen: gen, m: m, epoch: epoch, cl: dial(addr)}
}

// dial opens one connection that never resends on its own: the worker
// counts and makes its resends itself.
func dial(addr string) *client.Client {
	return client.Dial(addr, client.Options{Conns: 1, Retries: -1, DialTimeout: time.Second})
}

func (wk *worker) now() int64 { return time.Since(wk.epoch).Nanoseconds() }

// stamp names the next value this worker writes.
func (wk *worker) stamp() uint64 {
	wk.seq++
	return uint64(wk.id)<<48 | wk.seq
}

// run executes ops until stop is set or the connection is lost.
func (wk *worker) run(stop *atomic.Bool, killing bool) {
	var o op
	for !stop.Load() && !wk.lost {
		wk.gen.next(&o)
		if wk.trace {
			wk.ops = append(wk.ops, o)
		}
		start := wk.now()
		err := wk.exec(&o, !killing)
		wk.samples = append(wk.samples, sample{start: start, end: wk.now(), cls: classOf(o.kind), failed: err != nil})
		if err != nil && killing {
			wk.lost = true
		}
	}
}

// transient reports whether err is a transport failure (worth a resend of
// an idempotent request) rather than a server verdict.
func transient(err error) bool {
	var se *client.ServerError
	return err != nil && !errors.As(err, &se) && !errors.Is(err, client.ErrNotFound) &&
		!errors.Is(err, client.ErrConflict)
}

// call runs fn as one client call, recording its span, and resends it up
// to twice on a transport failure when retry is set.
func (wk *worker) call(name string, key uint64, retry bool, fn func() error) error {
	for attempt := 0; ; attempt++ {
		s := wk.now()
		err := fn()
		if wk.trace {
			wk.spans = append(wk.spans, cspan{op: name, key: key, start: s, end: wk.now()})
		}
		if !retry || attempt == 2 || !transient(err) {
			return err
		}
		wk.retries++
	}
}

func (wk *worker) exec(o *op, retry bool) error {
	m := wk.m
	switch o.kind {
	case kGet:
		send := m.event()
		var v []byte
		err := wk.call("GET", o.key, retry, func() (err error) { v, err = wk.cl.Get(o.key); return })
		switch {
		case errors.Is(err, client.ErrNotFound):
			m.checkAbsent("GET", o.key, send, m.event())
			if !wk.wl.deletes {
				return fmt.Errorf("GET %d: not found", o.key)
			}
			return nil
		case err != nil:
			return err
		}
		m.checkValue("GET", o.key, v, send, m.event())
		return nil

	case kPut:
		st := wk.stamp()
		wk.buf = makeValue(wk.buf, o.key, st, o.size)
		w := m.sendPut(o.key, st, o.size)
		if err := wk.call("PUT", o.key, retry, func() error { return wk.cl.Put(o.key, wk.buf) }); err != nil {
			return err
		}
		m.acked(w)
		return nil

	case kDel:
		w := m.sendDel(o.key)
		var found bool
		err := wk.call("DEL", o.key, retry, func() (err error) { found, err = wk.cl.Delete(o.key); return })
		if err != nil {
			return err
		}
		m.acked(w)
		if !found && retry {
			// Only this worker writes its owned keys, and its generator
			// deletes only keys it holds live.
			m.fail("DEL %d: reported absent, but the key was live", o.key)
		}
		return nil

	case kCas:
		var expect []byte
		if st, size, ok := m.latestImage(o.key); ok {
			expect = makeValue(nil, o.key, st, size)
		}
		st := wk.stamp()
		wk.buf = makeValue(wk.buf, o.key, st, o.size)
		w := m.sendPut(o.key, st, o.size)
		var swapped bool
		err := wk.call("CAS", o.key, false, func() (err error) {
			swapped, err = wk.cl.CompareAndSwap(o.key, expect, wk.buf)
			return
		})
		switch {
		case err != nil:
			return err
		case swapped:
			m.acked(w)
		default:
			m.dead(w)
		}
		return nil

	case kBatch:
		ops := make([]client.Op, len(o.batch))
		ws := make([]*write, len(o.batch))
		for i, b := range o.batch {
			if b.del {
				ops[i] = client.Op{Delete: true, Key: b.key}
				ws[i] = m.sendDel(b.key)
				continue
			}
			st := wk.stamp()
			ops[i] = client.Op{Key: b.key, Value: makeValue(nil, b.key, st, b.size)}
			ws[i] = m.sendPut(b.key, st, b.size)
		}
		if err := wk.call("BATCH", 0, retry, func() error { return wk.cl.Batch(ops) }); err != nil {
			return err
		}
		m.acked(ws...)
		return nil

	case kTxn:
		return wk.txn(o)

	case kScan:
		send := m.event()
		var pairs []client.Pair
		err := wk.call("SCAN", o.key, retry, func() (err error) {
			pairs, err = wk.cl.Scan(o.key, ^uint64(0), scanLen)
			return
		})
		if err != nil {
			return err
		}
		recv := m.event()
		for i, p := range pairs {
			if p.Key < o.key || (i > 0 && p.Key <= pairs[i-1].Key) {
				m.fail("SCAN from %d: key %d out of order", o.key, p.Key)
				break
			}
			if !wk.wl.deletes && p.Key != o.key+uint64(i) {
				m.fail("SCAN from %d: entry %d is key %d, want %d", o.key, i, p.Key, o.key+uint64(i))
				break
			}
			m.checkValue("SCAN", p.Key, p.Value, send, recv)
		}
		if !wk.wl.deletes && len(pairs) != scanLen {
			m.fail("SCAN from %d: %d entries, want %d", o.key, len(pairs), scanLen)
		}
		return nil
	}
	return fmt.Errorf("unknown op kind %d", o.kind)
}

// txnAttemptsMax bounds conflict retries of one TXN op.
const txnAttemptsMax = 32

// txn runs BEGIN, GetForUpdate on both keys, PUT both, COMMIT; a conflict
// rebuilds and retries the conversation.
func (wk *worker) txn(o *op) error {
	m := wk.m
	for attempt := 0; attempt < txnAttemptsMax; attempt++ {
		var t *client.Txn
		if err := wk.call("BEGIN", 0, false, func() (err error) { t, err = wk.cl.Begin(); return }); err != nil {
			return err
		}
		for _, k := range o.keys {
			send := m.event()
			var v []byte
			err := wk.call("TGET", k, false, func() (err error) { v, err = t.GetForUpdate(k); return })
			switch {
			case errors.Is(err, client.ErrNotFound):
				m.checkAbsent("TGET", k, send, m.event())
			case err != nil:
				return err
			default:
				m.checkValue("TGET", k, v, send, m.event())
			}
		}
		ws := make([]*write, 2)
		stamps := [2]uint64{wk.stamp(), wk.stamp()}
		for i, k := range o.keys {
			v := makeValue(nil, k, stamps[i], o.size)
			if err := wk.call("TPUT", k, false, func() error { return t.Put(k, v) }); err != nil {
				return err
			}
		}
		for i, k := range o.keys {
			ws[i] = m.sendPut(k, stamps[i], o.size)
		}
		err := wk.call("COMMIT", 0, false, t.Commit)
		switch {
		case err == nil:
			m.acked(ws...)
			return nil
		case errors.Is(err, client.ErrConflict):
			m.dead(ws...)
		default:
			return err
		}
	}
	return fmt.Errorf("TXN %v: %d conflicts in a row", o.keys, txnAttemptsMax)
}

// runWorkers runs one worker per entry until stop is set, and waits for
// them.
func runWorkers(ws []*worker, stop *atomic.Bool, killing bool) {
	var wg sync.WaitGroup
	for _, wk := range ws {
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			wk.run(stop, killing)
		}(wk)
	}
	wg.Wait()
}
