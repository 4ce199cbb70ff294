package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rewind-db/rewind/client"
)

const (
	// instances is how many independent daemons a run sets up and
	// measures; every end-to-end metric is the median over them, so one
	// slow instance does not move it.
	instances = 3
	// nWorkers is the number of closed-loop connections.
	nWorkers = 2
	// probeFor is how long the scan probe times SCANs on workloads without
	// SCAN in their mix, after probeWarm of untimed (but checked) ones:
	// right after set-up the first scans run slower and vary more. Its
	// slices are probeSlice wide.
	// probeScans is the count per goroutine of the traced run's kv-level
	// probe.
	probeWarm  = 500 * time.Millisecond
	probeFor   = 1500 * time.Millisecond
	probeSlice = 500 * time.Millisecond
	probeScans = 600
	// killAfter is how long the load runs again before the SIGKILL.
	killAfter = 250 * time.Millisecond
	// preloadBatch is the BATCH frame size the preload uses, on one
	// connection: two or four loaders contend and take longer.
	preloadBatch = 64
	// preloadWriter numbers the preload's stamps.
	preloadWriter = 100
)

// preloadKeys lists the keys set-up loads.
func preloadKeys(wl *workload) []uint64 {
	keys := make([]uint64, 0, wl.preload+wl.hot)
	for k := 0; k < wl.preload; k++ {
		keys = append(keys, uint64(k))
	}
	for k := 0; k < wl.hot; k++ {
		keys = append(keys, hotBase+uint64(k))
	}
	return keys
}

// preloadSize is the seeded value length of a preloaded key: 100 B, or
// uniform 16–512 B where the workload's own writes are.
func preloadSize(wl *workload, seed, key uint64) int {
	if !wl.deletes {
		return 100
	}
	return 16 + int(fnv64(key^seed*0x9e3779b97f4a7c15)%497)
}

// preload loads the workload's keys through BATCH-64 frames, registering
// every write with m.
func preload(addr string, wl *workload, seed uint64, m *model) error {
	keys := preloadKeys(wl)
	cl := client.Dial(addr, client.Options{Conns: 1})
	defer cl.Close()
	var seq uint64
	for lo := 0; lo < len(keys); lo += preloadBatch {
		hi := min(lo+preloadBatch, len(keys))
		ops := make([]client.Op, 0, hi-lo)
		ws := make([]*write, 0, hi-lo)
		for _, k := range keys[lo:hi] {
			seq++
			st := uint64(preloadWriter)<<48 | seq
			size := preloadSize(wl, seed, k)
			ops = append(ops, client.Op{Key: k, Value: makeValue(nil, k, st, size)})
			ws = append(ws, m.sendPut(k, st, size))
		}
		if err := cl.Batch(ops); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		m.acked(ws...)
	}
	return nil
}

// ckptEvery mirrors rewindd's default -checkpoint interval. Its ticker
// starts when the daemon starts serving, so tick k fires ckptEvery*k after
// the first served request.
const ckptEvery = 5 * time.Second

// ckptState is the checkpoint part of a STATS snapshot. Checkpoints
// counts a checkpoint once its stamp round is done, before it clears the
// log; the last-checkpoint report changes only when it has returned.
type ckptState struct {
	count, pauseNs int64
	chunks         int
}

// waitCheckpoint waits until the first checkpoint that starts after
// loaded (the daemon's ticks run from ready) has returned, log clearing
// included, and returns its tick and the time it was seen done.
func waitCheckpoint(ready, loaded time.Time, poll func() (ckptState, error)) (time.Time, time.Time, error) {
	k := loaded.Sub(ready)/ckptEvery + 1
	tick := ready.Add(k * ckptEvery)
	deadline := tick.Add(60 * time.Second)
	var before ckptState // the last report before checkpoint k counted
	for time.Now().Before(deadline) {
		c, err := poll()
		if err != nil {
			return tick, time.Time{}, err
		}
		if c.count < int64(k) {
			before = c
		} else if c.pauseNs != before.pauseNs || c.chunks != before.chunks {
			return tick, time.Now(), nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return tick, time.Time{}, errors.New("no checkpoint completed within 60s of its tick after the preload")
}

// window is what the timed part of a run measured.
type window struct {
	secs              float64
	attempted, failed int64
	completed         int64
	lat               [nClasses][]float64 // µs, sorted
	// slices holds, per class, the latencies (µs, sorted) of the ops that
	// started in each whole slice of the window; done counts the ops of
	// any class that started in a slice and completed.
	slices [nClasses][][]float64
	done   []float64
}

// sliceLen is the width of a window slice. Tail latencies and throughput
// are taken per slice and reported as the median over all slices of a
// run, so a burst of host noise moves one or two slices and not the
// figure.
const sliceLen = time.Second

// slicer groups latencies by the slice of [t0, t1) their op started in,
// dropping the last, partial slice.
type slicer struct {
	t0, width int64
	s         [][]float64
}

func newSlicer(t0, t1 int64, width time.Duration) *slicer {
	n := (t1 - t0) / int64(width)
	return &slicer{t0: t0, width: int64(width), s: make([][]float64, n)}
}

// index returns the slice start falls in, or -1.
func (sl *slicer) index(start int64) int {
	if start < sl.t0 {
		return -1
	}
	i := (start - sl.t0) / sl.width
	if i >= int64(len(sl.s)) {
		return -1
	}
	return int(i)
}

func (sl *slicer) add(start int64, us float64) {
	if i := sl.index(start); i >= 0 {
		sl.s[i] = append(sl.s[i], us)
	}
}

// sorted returns the slices, each sorted.
func (sl *slicer) sorted() [][]float64 {
	for _, x := range sl.s {
		sort.Float64s(x)
	}
	return sl.s
}

// sliceQuantile is the median over slices of each slice's q-quantile;
// empty slices are skipped.
func sliceQuantile(slices [][]float64, q float64) float64 {
	var qs []float64
	for _, s := range slices {
		if len(s) > 0 {
			qs = append(qs, quantile(s, q))
		}
	}
	return median(qs)
}

// measure runs ws for secs seconds and summarizes the ops that started
// inside the window.
func measure(ws []*worker, secs float64) window {
	var stop atomic.Bool
	done := make(chan struct{})
	t0 := ws[0].now()
	go func() {
		runWorkers(ws, &stop, false)
		close(done)
	}()
	time.Sleep(time.Duration(secs * float64(time.Second)))
	t1 := ws[0].now()
	stop.Store(true)
	<-done
	w := window{secs: float64(t1-t0) / 1e9}
	var sl [nClasses]*slicer
	for c := range sl {
		sl[c] = newSlicer(t0, t1, sliceLen)
	}
	w.done = make([]float64, len(sl[0].s))
	for _, wk := range ws {
		for _, s := range wk.samples {
			if s.start < t0 || s.start >= t1 {
				continue
			}
			w.attempted++
			if s.failed {
				w.failed++
				continue
			}
			if s.end <= t1 {
				w.completed++
			}
			us := float64(s.end-s.start) / 1e3
			w.lat[s.cls] = append(w.lat[s.cls], us)
			sl[s.cls].add(s.start, us)
			if i := sl[0].index(s.start); i >= 0 {
				w.done[i]++
			}
		}
		wk.samples = wk.samples[:0]
	}
	for c := range w.lat {
		sort.Float64s(w.lat[c])
		w.slices[c] = sl[c].sorted()
	}
	return w
}

// scanProbe runs SCAN-100s on each connection with no writers, for
// workloads whose mix has no SCAN, and times those after the warm-up,
// returning their latencies by slice. Each page must equal the model's
// live keys from its start key on.
func scanProbe(addr string, seed uint64, m *model) ([][]float64, error) {
	live := m.liveKeys()
	if len(live) == 0 {
		return nil, errors.New("scan probe: no live keys")
	}
	maxKey := live[len(live)-1]
	epoch := time.Now()
	t0 := probeWarm.Nanoseconds()
	sl := make([]*slicer, nWorkers)
	errs := make([]error, nWorkers)
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		sl[w] = newSlicer(t0, t0+probeFor.Nanoseconds(), probeSlice)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := client.Dial(addr, client.Options{Conns: 1, Retries: -1})
			defer cl.Close()
			rng := newRNG(seed, 200+w)
			for end := epoch.Add(probeWarm + probeFor); time.Now().Before(end); {
				from := rng.Uint64N(maxKey + 1)
				send := m.event()
				t := time.Since(epoch).Nanoseconds()
				pairs, err := cl.Scan(from, ^uint64(0), scanLen)
				if err != nil {
					errs[w] = fmt.Errorf("scan probe: %w", err)
					return
				}
				sl[w].add(t, float64(time.Since(epoch).Nanoseconds()-t)/1e3)
				recv := m.event()
				j := sort.Search(len(live), func(i int) bool { return live[i] >= from })
				want := live[j:min(j+scanLen, len(live))]
				if len(pairs) != len(want) {
					m.fail("SCAN from %d: %d entries, want %d", from, len(pairs), len(want))
					continue
				}
				for i, p := range pairs {
					if p.Key != want[i] {
						m.fail("SCAN from %d: entry %d is key %d, want %d", from, i, p.Key, want[i])
						break
					}
					m.checkValue("SCAN", p.Key, p.Value, send, recv)
				}
			}
		}(w)
	}
	wg.Wait()
	slices := sl[0].s
	for _, x := range sl[1:] {
		for i := range slices {
			slices[i] = append(slices[i], x.s[i]...)
		}
	}
	for _, x := range slices {
		sort.Float64s(x)
	}
	return slices, errors.Join(errs...)
}

// checkDurable reads the whole store back and checks it against m.
func checkDurable(addr string, m *model) error {
	cl := client.Dial(addr, client.Options{Conns: 1})
	defer cl.Close()
	pairs, err := cl.Scan(0, ^uint64(0), 0)
	if err != nil {
		return fmt.Errorf("durability scan: %w", err)
	}
	got := make(map[uint64][]byte, len(pairs))
	for _, p := range pairs {
		got[p.Key] = p.Value
	}
	m.checkFinal(got)
	return nil
}

// daemonSetup starts rewindd on a fresh backing file, preloads it and
// waits for the first checkpoint after the preload. It returns the
// set-up's working time: daemon start to preload end, plus the
// checkpoint's own duration from its tick. The idle wait for the tick is
// left out; it only measures where the preload ended in the 5 s period.
func daemonSetup(cfg config, dir string) (*daemon, *model, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, nil, 0, err
	}
	start := time.Now()
	d, err := startDaemon(cfg.rewindd, addr, filepath.Join(dir, "arena.nvm"), cfg.wl)
	if err != nil {
		return nil, nil, 0, err
	}
	fail := func(err error) (*daemon, *model, time.Duration, error) {
		d.kill()
		return nil, nil, 0, fmt.Errorf("%w\n%s", err, d.log)
	}
	ready, err := d.served(0, 60*time.Second)
	if err != nil {
		return fail(err)
	}
	m := newModel()
	if err := preload(addr, cfg.wl, cfg.seed, m); err != nil {
		return fail(err)
	}
	loaded := time.Now()
	cl := client.Dial(addr, client.Options{Conns: 1})
	defer cl.Close()
	tick, done, err := waitCheckpoint(ready, loaded, func() (ckptState, error) {
		st, err := fetchStats(cl)
		return ckptState{st.Checkpoints, st.LastCheckpointPauseNs, st.LastCheckpointChunks}, err
	})
	if err != nil {
		return fail(err)
	}
	return d, m, loaded.Sub(start) + max(done.Sub(tick), 0), nil
}

// instanceResult is what one daemon instance measured.
type instanceResult struct {
	setup, recovery   float64 // s
	win               window
	scanSlices        [][]float64
	deviceNs          float64 // per completed op
	diskPerLive       float64
	violations        int64
	firstViolations   []string
	attempted, failed int64
}

// runInstance sets up one daemon, runs its timed window, kills it
// mid-load, restarts it and checks it.
func runInstance(cfg config, i int, secs float64) (instanceResult, error) {
	var r instanceResult
	dir := filepath.Join(cfg.workdir, fmt.Sprintf("instance%d", i))
	defer os.RemoveAll(dir)
	d, m, took, err := daemonSetup(cfg, dir)
	if err != nil {
		return r, err
	}
	defer func() { d.kill() }()
	r.setup = took.Seconds()
	backing := filepath.Join(dir, "arena.nvm")

	cl := client.Dial(d.addr, client.Options{Conns: 1})
	defer cl.Close()
	epoch := time.Now()
	ws := make([]*worker, nWorkers)
	for w := range ws {
		ws[w] = newWorker(1+w, d.addr, cfg.wl, cfg.wl.newGen(cfg.seed, i*nWorkers+w), m, epoch)
		defer ws[w].cl.Close()
	}
	// Workloads without SCAN in their mix time SCAN-100 here, on the
	// preloaded and checkpointed store, before any write dirties it.
	if !cfg.wl.scans {
		if r.scanSlices, err = scanProbe(d.addr, cfg.seed+uint64(i), m); err != nil {
			return r, err
		}
	}
	st0, err := fetchStats(cl)
	if err != nil {
		return r, err
	}
	r.win = measure(ws, secs)
	if cfg.wl.scans {
		r.scanSlices = r.win.slices[clsScan]
	}
	st1, err := fetchStats(cl)
	if err != nil {
		return r, err
	}
	disk, err := diskBytes(backing)
	if err != nil {
		return r, err
	}
	r.deviceNs = ratio(float64(st1.DeviceSimNs-st0.DeviceSimNs), float64(r.win.completed))
	r.diskPerLive = ratio(float64(disk), float64(m.live()))

	// Crash: load again, SIGKILL mid-load, restart, time the first served
	// GET, then read everything back from that same restart.
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		runWorkers(ws, &stop, true)
		close(done)
	}()
	time.Sleep(killAfter)
	tKill := time.Now()
	d.kill()
	stop.Store(true)
	<-done
	if d, err = startDaemon(cfg.rewindd, d.addr, backing, cfg.wl); err != nil {
		return r, err
	}
	tServed, err := d.served(0, 120*time.Second)
	if err != nil {
		return r, err
	}
	r.recovery = tServed.Sub(tKill).Seconds()
	if err := checkDurable(d.addr, m); err != nil {
		return r, err
	}
	line, ok := recoveryLine(d.log.String())
	if !ok {
		return r, fmt.Errorf("restarted rewindd did not report a crash recovery:\n%s", d.log)
	}
	fmt.Fprintln(os.Stderr, "e2ebench:", line)

	r.violations, r.firstViolations = m.violations()
	return r, nil
}

// runDaemon is the untraced run: every end-to-end metric comes from here.
// It runs instances independent daemon instances, each for an equal share
// of the measured seconds.
func runDaemon(cfg config) (result, error) {
	var res result
	var rs []instanceResult
	for i := 0; i < instances; i++ {
		r, err := runInstance(cfg, i, cfg.seconds/instances)
		if err != nil {
			return res, err
		}
		rs = append(rs, r)
	}
	res.Correct = true
	med := func(f func(r instanceResult) float64) float64 {
		var xs []float64
		for _, r := range rs {
			xs = append(xs, f(r))
		}
		return median(xs)
	}
	for _, r := range rs {
		for _, s := range r.firstViolations {
			fmt.Fprintln(os.Stderr, "e2ebench: violation:", s)
		}
		res.Correct = res.Correct && r.violations == 0
		res.Attempted += r.win.attempted
		res.Failed += r.win.failed
		fmt.Fprintf(os.Stderr, "e2ebench: %s seed %d: %d ops in %.1fs, p99 µs read %.0f (of %d) write %.0f (of %d) scan %.0f (of %d slices), set-up %.2fs, recovery %.2fs, %d violations\n",
			cfg.wl.name, cfg.seed, r.win.completed, r.win.secs,
			quantile(r.win.lat[clsRead], 0.99), len(r.win.lat[clsRead]),
			quantile(r.win.lat[clsWrite], 0.99), len(r.win.lat[clsWrite]),
			sliceQuantile(r.scanSlices, 0.99), len(r.scanSlices), r.setup, r.recovery, r.violations)
	}
	// Latency quantiles and throughput are medians over the slices of all
	// instances together.
	var slices [nClasses][][]float64
	var rates []float64
	for _, r := range rs {
		for c := range slices {
			if c == int(clsScan) {
				slices[c] = append(slices[c], r.scanSlices...)
			} else {
				slices[c] = append(slices[c], r.win.slices[c]...)
			}
		}
		for _, n := range r.win.done {
			rates = append(rates, n/sliceLen.Seconds())
		}
	}
	lat := func(c class, q float64) metric { return metric{sliceQuantile(slices[c], q), "us"} }
	res.Metrics = map[string]metric{
		"throughput_ops_s":         {median(rates), "1/s"},
		"read_p50_us":              lat(clsRead, 0.5),
		"read_p90_us":              lat(clsRead, 0.9),
		"write_p50_us":             lat(clsWrite, 0.5),
		"write_p99_us":             lat(clsWrite, 0.99),
		"scan_p50_us":              lat(clsScan, 0.5),
		"scan_p90_us":              lat(clsScan, 0.9),
		"ok_ops_frac":              {1 - ratio(float64(res.Failed), float64(res.Attempted)), "ratio"},
		"setup_s":                  {med(func(r instanceResult) float64 { return r.setup }), "s"},
		"recovery_s":               {med(func(r instanceResult) float64 { return r.recovery }), "s"},
		"device_ns_per_op":         {med(func(r instanceResult) float64 { return r.deviceNs }), "ns"},
		"disk_bytes_per_live_byte": {med(func(r instanceResult) float64 { return r.diskPerLive }), "ratio"},
	}
	return res, nil
}
