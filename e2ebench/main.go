// Command e2ebench is rewindd's end-to-end benchmark: it builds and starts
// the daemon on a fresh backing file, drives it from two closed-loop
// connections with a seeded workload, checks every answer, and ends each
// run by SIGKILLing the daemon mid-load, restarting it, and checking that
// every acknowledged write survived. With -trace 1 it instead builds the
// same stack in-process and attributes request time to its layers. See
// README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	wl      *workload
	seed    uint64
	seconds float64
	rewindd string // daemon binary
	workdir string // scratch space for backing files
	// traceDir receives the traced run's joined spans.
	traceDir string
}

func main() {
	name := flag.String("workload", "", "point-update, read-scan or churn")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1: in-process traced run printing per-layer metrics")
	rewindd := flag.String("rewindd", "", "rewindd binary (built from this checkout)")
	workdir := flag.String("workdir", "", "directory for backing files (removed at exit)")
	traceDir := flag.String("trace-dir", "", "directory the traced run writes its joined spans to")
	flag.Parse()

	wl := workloads[*name]
	if wl == nil || *workdir == "" || (*trace == 0 && *rewindd == "") {
		fmt.Fprintln(os.Stderr, "e2ebench: need -workload (point-update, read-scan, churn), -workdir and, without -trace 1, -rewindd")
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	cfg := config{wl: wl, seed: *seed, seconds: *seconds, rewindd: *rewindd, workdir: *workdir, traceDir: *traceDir}
	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(cfg)
	} else {
		res, err = runDaemon(cfg)
	}
	os.RemoveAll(*workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// quantile is the nearest-rank q-quantile of sorted xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
