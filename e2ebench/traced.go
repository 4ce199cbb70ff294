package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/rewind-db/rewind"
	"github.com/rewind-db/rewind/client"
	"github.com/rewind-db/rewind/internal/nvm"
	"github.com/rewind-db/rewind/internal/obs"
	"github.com/rewind-db/rewind/kv"
	"github.com/rewind-db/rewind/server"
)

// flightSize is the per-connection flight ring of the traced stack: large
// enough that no span of a traced window is overwritten.
const flightSize = 1 << 18

// markerBase keys the GET each traced connection opens with, so its
// server-side flight ring can be told apart from the others.
const markerBase = 1 << 62

// stack is rewindd's serving stack built in-process with the daemon's
// option values, plus the daemon's checkpoint/compaction ticker.
type stack struct {
	st   *rewind.Store
	kvs  *kv.Store
	obs  *obs.Obs
	srv  *server.Server
	addr string

	tickMu  sync.Mutex // held by the ticker while it works; quiesce takes it
	ckpts   []int64    // max pause (ns) of each ticker checkpoint
	ckptsMu sync.Mutex
	stop    chan struct{}
	done    sync.WaitGroup
}

func openStack(wl *workload, backing string, serve bool) (*stack, error) {
	o := obs.New(obs.NewRegistry(), obs.Config{
		SlowOp: 250 * time.Millisecond, FlightSize: flightSize,
		Logf: func(string, ...any) {},
	})
	st, err := rewind.Open(rewind.Options{
		ArenaSize: 256 << 20, MaxArena: 2 << 30, BackingFile: backing,
		CommitMode: rewind.UndoRedo, LogShards: 1, GroupSize: 64,
		GroupCommit: true, GroupCommitWindow: 100 * time.Microsecond, GroupCommitMax: 64,
		Obs: o,
	})
	if err != nil {
		return nil, fmt.Errorf("opening store: %w", err)
	}
	kvs, err := kv.Open(st, kv.Config{Stripes: 8, MaxValue: 512, Obs: o})
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("opening kv store: %w", err)
	}
	s := &stack{st: st, kvs: kvs, obs: o, stop: make(chan struct{})}
	if serve {
		s.srv = server.New(kvs)
		s.srv.SetTxnIdle(time.Minute)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			st.Close()
			return nil, err
		}
		s.addr = ln.Addr().String()
		s.done.Add(1)
		go func() {
			defer s.done.Done()
			_ = s.srv.Serve(ln) // returns ErrServerClosed at close
		}()
	}
	s.done.Add(1)
	go s.ticker(wl.compactEvery)
	return s, nil
}

// ticker mirrors rewindd's background loop: a paced checkpoint every
// ckptEvery with a 2 ms device-time pause budget, then a compaction step
// every compactEvery checkpoints.
func (s *stack) ticker(compactEvery int) {
	defer s.done.Done()
	budget := int(2 * time.Millisecond / nvm.DefaultWriteLatency)
	t := time.NewTicker(ckptEvery)
	defer t.Stop()
	for n := 1; ; n++ {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		s.tickMu.Lock()
		cs := s.st.CheckpointPaced(budget)
		s.ckptsMu.Lock()
		s.ckpts = append(s.ckpts, cs.MaxPauseNs)
		s.ckptsMu.Unlock()
		if compactEvery > 0 && n%compactEvery == 0 {
			_, _ = s.kvs.CompactStep(kv.CompactConfig{DeadFraction: 0.6, MinDeadBytes: 1 << 20, MaxMovesPerTxn: 64})
		}
		s.tickMu.Unlock()
	}
}

func (s *stack) checkpoints() int {
	s.ckptsMu.Lock()
	defer s.ckptsMu.Unlock()
	return len(s.ckpts)
}

// close stops the ticker and the server and closes the store cleanly.
func (s *stack) close() error {
	close(s.stop)
	if s.srv != nil {
		s.srv.Close()
	}
	s.done.Wait()
	return s.st.Close()
}

// counters is one snapshot of every layer's counters.
type counters struct {
	kv      kv.Stats
	dev     nvm.Stats
	logB    int64
	commits int64
	rounds  int64
	errored int64
}

func (s *stack) counters() counters {
	tm := s.st.TMStats()
	c := counters{kv: s.kvs.Stats(), dev: s.st.Stats(), logB: tm.LogBytes, errored: s.srv.Stats().Errored}
	for _, sh := range tm.Shards {
		c.commits += sh.Commits
		c.rounds += sh.GroupCommitRounds
	}
	return c
}

// copySparse copies a quiesced backing file: the copy is the crash image
// a SIGKILL at that instant leaves. All-zero blocks stay holes, so the
// copy takes no more disk than the mostly unwritten original.
func copySparse(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	buf := make([]byte, 1<<16)
	var off int64
	for {
		n, err := io.ReadFull(in, buf)
		if n > 0 {
			zero := true
			for _, b := range buf[:n] {
				if b != 0 {
					zero = false
					break
				}
			}
			if !zero {
				if _, werr := out.WriteAt(buf[:n], off); werr != nil {
					out.Close()
					return werr
				}
			}
			off += int64(n)
		}
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			break
		}
		if err != nil {
			out.Close()
			return err
		}
	}
	if err := out.Truncate(off); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// wireOps maps a client call to the server span kind it produces.
var wireOps = map[string]obs.OpKind{
	"GET": obs.OpGet, "PUT": obs.OpPut, "DEL": obs.OpDel, "CAS": obs.OpCas,
	"BATCH": obs.OpBatch, "SCAN": obs.OpScan, "BEGIN": obs.OpBegin,
	"TGET": obs.OpTxnGet, "TPUT": obs.OpTxnPut, "COMMIT": obs.OpCommit,
}

// writeOps are the calls that run a commit.
var writeOps = map[string]bool{"PUT": true, "DEL": true, "CAS": true, "BATCH": true, "COMMIT": true}

// joined is one client call matched with its server span.
type joined struct {
	ID     string  `json:"id"`
	Op     string  `json:"op"`
	Key    uint64  `json:"key"`
	Client float64 `json:"client_us"`
	Server float64 `json:"server_us"`
	Sim    int64   `json:"server_sim_ns"`
	// Phases and PhasesSim are the commit phases in obs order: latch_wait,
	// log_append, gc_gather, flush_fence, publish.
	Phases    [obs.NumPhases]float64 `json:"phases_us"`
	PhasesSim [obs.NumPhases]int64   `json:"phases_sim_ns"`
	Matched   bool                   `json:"matched"`
}

// join pairs a worker's client spans, in order, with the server spans of
// its connection's flight ring. A client span with no server span of the
// same op and key at the head of the ring stays unmatched.
func join(wk *worker, flight []obs.Span) []joined {
	out := make([]joined, 0, len(wk.spans))
	j := 0
	for i, c := range wk.spans {
		r := joined{ID: fmt.Sprintf("c%d.%d", wk.id, i), Op: c.op, Key: c.key, Client: float64(c.end-c.start) / 1e3}
		if j < len(flight) && flight[j].Op == wireOps[c.op] && flight[j].Key == c.key {
			f := flight[j]
			j++
			r.Matched = true
			r.Server, r.Sim = float64(f.WallNs)/1e3, f.SimNs
			for p := range f.Phases {
				r.Phases[p] = float64(f.Phases[p]) / 1e3
				r.PhasesSim[p] = f.PhasesSim[p]
			}
		}
		out = append(out, r)
	}
	return out
}

// flightOf finds the flight ring whose first span is wk's marker GET and
// returns the spans after it.
func flightOf(s *server.Server, wk *worker) ([]obs.Span, error) {
	for _, fr := range s.Flights() {
		sp := fr.Snapshot()
		if len(sp) > 0 && sp[0].Op == obs.OpGet && sp[0].Key == markerBase+uint64(wk.id) {
			if fr.Total() > int64(len(sp)) {
				return nil, fmt.Errorf("flight ring of connection %d overflowed", wk.id)
			}
			return sp[1:], nil
		}
	}
	return nil, fmt.Errorf("no flight ring for connection %d", wk.id)
}

// kvTimes accumulates replayed kv call times per wire op: whole calls,
// and the calls minus their commit phases (equal for calls that do not
// commit).
type kvTimes struct {
	n, us, selfUs map[string]float64
	replayed      int64
}

func newKVTimes() *kvTimes {
	return &kvTimes{n: map[string]float64{}, us: map[string]float64{}, selfUs: map[string]float64{}}
}

func (t *kvTimes) add(op string, d, phases time.Duration) {
	t.n[op]++
	t.us[op] += float64(d.Nanoseconds()) / 1e3
	t.selfUs[op] += float64((d - phases).Nanoseconds()) / 1e3
}

func (t *kvTimes) mean(op string) float64 { return ratio(t.us[op], t.n[op]) }

func (t *kvTimes) self(op string) float64 { return ratio(t.selfUs[op], t.n[op]) }

// writeSelf is the mean over all committing calls of call minus phases.
func (t *kvTimes) writeSelf() float64 {
	var n, us float64
	for op := range writeOps {
		n += t.n[op]
		us += t.selfUs[op]
	}
	return ratio(us, n)
}

func (t *kvTimes) merge(o *kvTimes) {
	for k, v := range o.n {
		t.n[k] += v
		t.us[k] += o.us[k]
		t.selfUs[k] += o.selfUs[k]
	}
	t.replayed += o.replayed
}

// replayer drives a kv.Store directly with a recorded op stream.
type replayer struct {
	kvs *kv.Store
	o   *obs.Obs
	t   *kvTimes
	buf []byte
	seq uint64
}

func (r *replayer) value(key uint64, size int) []byte {
	r.seq++
	r.buf = makeValue(r.buf, key, r.seq, size)
	return r.buf
}

// timed runs one kv call; a write call is passed a span whose commit
// phases are subtracted for kv.write_self_us.
func (r *replayer) timed(op string, kind obs.OpKind, fn func(span *obs.Span) error) error {
	var span *obs.Span
	if writeOps[op] {
		span = r.o.StartSpan(kind, 0)
	}
	t0 := time.Now()
	err := fn(span)
	d := time.Since(t0)
	var ph int64
	if span != nil {
		for _, p := range span.Phases {
			ph += p
		}
	}
	r.t.add(op, d, time.Duration(ph))
	return err
}

func (r *replayer) replay(o *op) error {
	k := r.kvs
	r.t.replayed++
	switch o.kind {
	case kGet:
		return r.timed("GET", obs.OpGet, func(*obs.Span) error { k.Get(o.key); return nil })
	case kScan:
		return r.timed("SCAN", obs.OpScan, func(*obs.Span) error { k.Scan(o.key, ^uint64(0), scanLen); return nil })
	case kPut:
		v := r.value(o.key, o.size)
		return r.timed("PUT", obs.OpPut, func(sp *obs.Span) error { return k.PutSpan(o.key, v, sp) })
	case kDel:
		return r.timed("DEL", obs.OpDel, func(sp *obs.Span) error { _, err := k.DeleteSpan(o.key, sp); return err })
	case kCas:
		cur, _ := k.Get(o.key)
		v := r.value(o.key, o.size)
		return r.timed("CAS", obs.OpCas, func(sp *obs.Span) error {
			_, err := k.CompareAndSwapSpan(o.key, cur, v, sp)
			return err
		})
	case kBatch:
		ops := make([]kv.Op, len(o.batch))
		for i, b := range o.batch {
			ops[i] = kv.Op{Delete: b.del, Key: b.key}
			if !b.del {
				ops[i].Value = append([]byte(nil), r.value(b.key, b.size)...)
			}
		}
		return r.timed("BATCH", obs.OpBatch, func(sp *obs.Span) error { return k.BatchSpan(ops, sp) })
	case kTxn:
		var t *kv.Txn
		r.timed("BEGIN", obs.OpBegin, func(*obs.Span) error { t = k.BeginTxn(); return nil })
		for _, key := range o.keys {
			if err := r.timed("TGET", obs.OpTxnGet, func(*obs.Span) error { _, _, err := t.GetForUpdate(key); return err }); err != nil {
				return err
			}
		}
		for _, key := range o.keys {
			v := r.value(key, o.size)
			if err := r.timed("TPUT", obs.OpTxnPut, func(*obs.Span) error { return t.Put(key, v) }); err != nil {
				return err
			}
		}
		err := r.timed("COMMIT", obs.OpCommit, func(sp *obs.Span) error { return t.CommitSpan(sp) })
		if errors.Is(err, kv.ErrTxnConflict) {
			return nil
		}
		return err
	}
	return fmt.Errorf("unknown op kind %d", o.kind)
}

// runTraced is the per-layer run: the daemon's stack in-process, an
// untraced and a traced window of the same workload, the traced window's
// op stream replayed straight into kv on a crash copy taken between them.
func runTraced(cfg config) (result, error) {
	var res result
	wl := cfg.wl
	dir := filepath.Join(cfg.workdir, "traced")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return res, err
	}
	backing := filepath.Join(dir, "arena.nvm")
	s, err := openStack(wl, backing, true)
	if err != nil {
		return res, err
	}
	closed := false
	defer func() {
		if !closed {
			s.close()
		}
	}()

	// Set-up as in the daemon run.
	m := newModel()
	if err := preload(s.addr, wl, cfg.seed, m); err != nil {
		return res, err
	}
	s.tickMu.Lock() // a checkpoint already under way does not count
	c0 := s.checkpoints()
	s.tickMu.Unlock()
	for s.checkpoints() == c0 {
		time.Sleep(2 * time.Millisecond)
	}

	half := cfg.seconds / 2
	epoch := time.Now()
	ws := make([]*worker, nWorkers)
	for w := range ws {
		ws[w] = newWorker(1+w, s.addr, wl, wl.newGen(cfg.seed, w), m, epoch)
	}

	// Window A, untraced.
	ckA := s.checkpoints()
	k0 := s.counters()
	winA := measure(ws, half)

	// Crash copy between the windows, with the ticker held.
	s.tickMu.Lock()
	crashCopy := filepath.Join(dir, "crash.nvm")
	err = copySparse(crashCopy, backing)
	s.tickMu.Unlock()
	if err != nil {
		return res, fmt.Errorf("crash copy: %w", err)
	}

	// Window B, traced: the same workers carry on their streams on fresh
	// connections, each opening with a marker GET that names its flight
	// ring.
	for _, wk := range ws {
		wk.cl.Close()
		wk.cl = dial(s.addr)
		wk.id += 10
		wk.trace = true
		marker := markerBase + uint64(wk.id)
		if _, err := wk.cl.Get(marker); !errors.Is(err, client.ErrNotFound) {
			return res, fmt.Errorf("marker GET: %v", err)
		}
	}
	k1 := s.counters()
	winB := measure(ws, half)
	k2 := s.counters()
	arena := s.st.ArenaInfo()
	var joins []joined
	for _, wk := range ws {
		fl, err := flightOf(s.srv, wk)
		if err != nil {
			return res, err
		}
		joins = append(joins, join(wk, fl)...)
		wk.cl.Close()
	}
	ckB := s.checkpoints()
	s.ckptsMu.Lock()
	var maxPause int64
	for _, p := range s.ckpts[ckA:ckB] {
		maxPause = max(maxPause, p)
	}
	s.ckptsMu.Unlock()
	bad, first := m.violations()
	if err := s.close(); err != nil {
		return res, err
	}
	closed = true

	// kv replay on the crash copy: reopening it runs recovery.
	s2, err := openStack(wl, crashCopy, false)
	if err != nil {
		return res, err
	}
	rec := s2.st.Recovery
	times := newKVTimes()
	var wg sync.WaitGroup
	parts := make([]*kvTimes, len(ws))
	errs := make([]error, len(ws))
	for i, wk := range ws {
		parts[i] = newKVTimes()
		wg.Add(1)
		go func(i int, wk *worker) {
			defer wg.Done()
			r := &replayer{kvs: s2.kvs, o: s2.obs, t: parts[i], seq: uint64(wk.id) << 48}
			for j := range wk.ops {
				if err := r.replay(&wk.ops[j]); err != nil {
					errs[i] = err
					return
				}
			}
			if !wl.scans {
				// The scan class has no traffic in this mix: time a probe.
				rng := newRNG(cfg.seed, 200+wk.id)
				for j := 0; j < probeScans; j++ {
					r.replay(&op{kind: kScan, key: rng.Uint64N(uint64(wl.preload))})
				}
			}
		}(i, wk)
	}
	wg.Wait()
	for _, p := range parts {
		times.merge(p)
	}
	if err := s2.close(); err != nil {
		return res, err
	}
	if err := errors.Join(errs...); err != nil {
		return res, fmt.Errorf("kv replay: %w", err)
	}

	// Attribution. A matched request's client span splits into client
	// self time (client minus server span), the commit phases its server
	// span recorded, kv time outside commit (the replayed calls of its op
	// class, minus their own phases) and server self time (the rest). Per
	// class, server self time that comes out negative cannot be placed
	// and counts as unattributed, as do unmatched client spans.
	var clientSelf, clientUs, unattributed, serverSelf, nJoined, nWrites float64
	var phase, phaseSim [obs.NumPhases]float64
	srvNoPhase := map[string]float64{} // per op: sum of server span minus phases
	srvN := map[string]float64{}
	for _, j := range joins {
		clientUs += j.Client
		if !j.Matched {
			unattributed += j.Client
			continue
		}
		nJoined++
		clientSelf += j.Client - j.Server
		rest := j.Server
		for p := range j.Phases {
			rest -= j.Phases[p]
			phase[p] += j.Phases[p]
			phaseSim[p] += float64(j.PhasesSim[p])
		}
		if writeOps[j.Op] {
			nWrites++
		}
		srvNoPhase[j.Op] += rest
		srvN[j.Op]++
	}
	for op, sum := range srvNoPhase {
		self := sum - srvN[op]*times.self(op)
		if self < 0 {
			unattributed -= self
			continue
		}
		serverSelf += self
	}

	if err := writeSpans(cfg, joins); err != nil {
		return res, err
	}

	writes := float64(len(winB.lat[clsWrite]))
	d := func(a, b int64) float64 { return float64(b - a) }
	us := func(v float64) metric { return metric{v, "us"} }
	n := func(v float64) metric { return metric{v, "count"} }
	r := func(v float64) metric { return metric{v, "ratio"} }
	ms := func(ns int64) metric { return metric{float64(ns) / 1e6, "ms"} }
	kA, kB := k1.kv, k2.kv
	res.Metrics = map[string]metric{
		"client.self_us":   us(ratio(clientSelf, nJoined)),
		"client.retries":   n(float64(ws[0].retries + ws[1].retries)),
		"server.self_us":   us(ratio(serverSelf, nJoined)),
		"server.errored":   n(d(k1.errored, k2.errored)),
		"kv.get_us":        us(times.mean("GET")),
		"kv.scan_us":       us(times.mean("SCAN")),
		"kv.put_us":        us(times.mean("PUT")),
		"kv.write_self_us": us(times.writeSelf()),
		"kv.fast_path_ratio": r(ratio(d(kA.OverwriteFastPath, kB.OverwriteFastPath),
			d(kA.Puts, kB.Puts))),
		"kv.read_retry_ratio": r(ratio(d(kA.ReadRetries, kB.ReadRetries),
			d(kA.Gets+kA.Scans, kB.Gets+kB.Scans))),
		"kv.read_fallbacks": n(d(kA.ReadFallbacks, kB.ReadFallbacks)),
		"kv.stripe_fallback_ratio": r(ratio(d(kA.StripeLatchFallbacks, kB.StripeLatchFallbacks),
			d(kA.Puts+kA.Deletes, kB.Puts+kB.Deletes))),
		"kv.txn_conflict_ratio": r(ratio(d(kA.TxnConflicts, kB.TxnConflicts),
			d(kA.TxnConflicts+kA.TxnCommits, kB.TxnConflicts+kB.TxnCommits))),
		"kv.cas_applied_ratio":     r(ratio(d(kA.CasApplied, kB.CasApplied), d(kA.CasAttempts, kB.CasAttempts))),
		"kv.compactions":           n(d(k0.kv.Compactions, kB.Compactions)),
		"kv.compacted_nodes":       n(d(k0.kv.CompactedNodes, kB.CompactedNodes)),
		"kv.reclaimed_bytes":       metric{d(k0.kv.ReclaimedBytes, kB.ReclaimedBytes), "B"},
		"core.commits_per_round":   r(ratio(d(k1.commits, k2.commits), d(k1.rounds, k2.rounds))),
		"core.checkpoints":         n(float64(ckB - ckA)),
		"core.checkpoint_pause_ms": ms(maxPause),
		"recovery.analysis_ms":     ms(rec.AnalysisNs),
		"recovery.redo_ms":         ms(rec.RedoNs),
		"recovery.undo_ms":         ms(rec.UndoNs),
		"recovery.records_scanned": n(float64(rec.RecordsScanned)),
		"rlog.log_bytes_per_write": metric{ratio(d(k1.logB, k2.logB), writes), "B"},
		"nvm.fences_per_write":     r(ratio(d(k1.dev.Fences, k2.dev.Fences), writes)),
		"nvm.flushes_per_write":    r(ratio(d(k1.dev.Flushes, k2.dev.Flushes), writes)),
		"nvm.line_writes_per_write": r(ratio(d(k1.dev.LineWrites, k2.dev.LineWrites),
			writes)),
		"pmem.heap_live_bytes":    metric{float64(arena.HeapLive), "B"},
		"pmem.arena_bytes":        metric{float64(arena.Size), "B"},
		"pmem.grows":              n(float64(arena.Grows)),
		"pmem.disk_bytes":         metric{float64(arena.AllocatedBytes), "B"},
		"trace.overhead_ratio":    r(ratio(float64(winB.completed)/winB.secs, float64(winA.completed)/winA.secs)),
		"trace.unattributed_frac": r(ratio(unattributed, clientUs)),
	}
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		res.Metrics["core."+p.String()+"_us"] = us(ratio(phase[p], nWrites))
		res.Metrics["core."+p.String()+"_sim_ns"] = metric{ratio(phaseSim[p], nWrites), "ns"}
	}
	for _, s := range first {
		fmt.Fprintln(os.Stderr, "e2ebench: violation:", s)
	}
	res.Correct = bad == 0 && rec.CrashDetected
	res.Attempted, res.Failed = winA.attempted+winB.attempted, winA.failed+winB.failed
	fmt.Fprintf(os.Stderr, "e2ebench: traced %s seed %d: untraced %d ops in %.1fs, traced %d ops in %.1fs, %d spans (%d joined), %d kv calls replayed\n",
		wl.name, cfg.seed, winA.completed, winA.secs, winB.completed, winB.secs, len(joins), int(nJoined), times.replayed)
	return res, nil
}

// writeSpans writes the joined spans as JSON lines to the trace directory.
func writeSpans(cfg config, joins []joined) error {
	if cfg.traceDir == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.wl.name, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range joins {
		if err := enc.Encode(&joins[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(os.Stderr, "e2ebench: %d joined spans written to %s\n", len(joins), path)
	return f.Close()
}
