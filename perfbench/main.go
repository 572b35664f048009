// Command perfbench is hierpart's end-to-end benchmark. It starts a
// real hgpd (built from the tree under test) on loopback with -canon,
// drives one workload from a seeded, fully pre-marshalled request
// sequence, certifies every answer against the client's copy of the
// graph, and prints every metric by name and unit. The last line of
// its output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// same daemon run supplies counts and an in-process replay of the same
// sequence supplies per-layer times. See README.md for the workloads
// and every metric's definition.
//
// Usage (from the repository root, after building hgpd):
//
//	perfbench -hgpd <hgpd binary> -workload cold_place -seed 1 -seconds 20 -trace 0
//
// run.sh builds both binaries and runs this command.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times a -trace 0 run sets up (fresh daemon and
// workload set-up each time); setup_s is their median.
const setupReps = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		hgpd     = flag.String("hgpd", "", "path of the hgpd binary to benchmark")
		name     = flag.String("workload", "", "cold_place, resubmit or session_drift")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed sends the same requests")
		seconds  = flag.Int("seconds", 10, "run length: the op count is the workload's nominal rate × seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from counts and a traced in-process replay")
		spansDir = flag.String("spans-dir", ".bench_build", "where -trace 1 writes its spans")
	)
	flag.Parse()
	if *hgpd == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -hgpd, -seconds ≥ 1 and -trace 0|1")
		os.Exit(2)
	}
	w, err := generate(*name, *seed, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	var res *result
	if *trace == 0 {
		res, err = runEndToEnd(*hgpd, w)
	} else {
		res, err = runTraced(*hgpd, w, filepath.Join(*spansDir, fmt.Sprintf("spans-%s-%d.json", w.name, *seed)))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// clientCPU is this process's user+system CPU time so far.
func clientCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// daemonRun is one timed daemon run: the records and the run's
// outcome.
type daemonRun struct {
	recs []record
	oc   *outcome
}

// measure drives the timed loop, block by block, against a set-up
// daemon and analyzes it. The daemon keeps running; the caller stops
// it.
func measure(sr *setupResult, w *workload) (*daemonRun, error) {
	d := sr.d
	before, err := d.stats()
	if err != nil {
		return nil, err
	}
	recs := make([]record, len(w.ops))
	var walls, cpus []time.Duration
	cl0 := clientCPU()
	for b := 0; b < blocks; b++ {
		lo, hi := b*w.blockLen, (b+1)*w.blockLen
		cpu0, err := d.cpu()
		if err != nil {
			return nil, err
		}
		walls = append(walls, drive(d, w, w.ops[lo:hi], recs[lo:hi]))
		cpu1, err := d.cpu()
		if err != nil {
			return nil, err
		}
		cpus = append(cpus, cpu1-cpu0)
	}
	cl1 := clientCPU()
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	after, err := d.stats()
	if err != nil {
		return nil, err
	}
	oc := analyze(w, recs, sr.answers, before, after)
	oc.blockWall, oc.blockCPU, oc.clientCPU, oc.rssMB = walls, cpus, cl1-cl0, rss
	for _, wl := range walls {
		oc.wall += wl
	}
	printOutcome(w, oc)
	return &daemonRun{recs: recs, oc: oc}, nil
}

// printOutcome logs the run's shape, its failures, and the race and
// outcome counts every run reports.
func printOutcome(w *workload, oc *outcome) {
	fmt.Printf("workload %s: %d ops in %d blocks on %d connection(s) in %.3f s, %d ok\n",
		w.name, oc.attempted, blocks, w.conns, oc.wall.Seconds(), oc.ok)
	for _, f := range oc.failures {
		fmt.Printf("  FAILED %s\n", f)
	}
	v, pct, beyond := tail(oc.blockLatencies(w))
	fmt.Printf("tail: p%v = %.3f ms (median of %d blocks; %d of %d samples beyond over the run)\n",
		pct, ms(v), blocks, beyond, len(oc.latencies))
	fmt.Printf("races: (a) polish_skipped=%d answer_flips=%d; (b) capped_partial_wins=%d; full_completed_but_lost=%d\n",
		oc.polishSkipped, oc.answerFlips, oc.cappedPartialWins, oc.fullLostCompleted)
	fmt.Printf("tier wins:")
	for _, t := range []string{"full_dp", "capped_dp", "baseline"} {
		fmt.Printf(" %s=%d", t, oc.tierWins[t])
	}
	fmt.Printf(" (of %d ladder answers)\n", oc.ladderOps)
	fmt.Printf("caches after set-up: result hits=%d misses=%d, decomp hits=%d misses=%d\n",
		oc.resultHits, oc.resultMisses, oc.decompHits, oc.decompMisses)
	if w.name == "session_drift" {
		fmt.Printf("session solves: incremental=%d cold=%d stored=%d\n", oc.incremental, oc.cold, oc.stored)
	}
	fmt.Printf("stats deltas:")
	for _, c := range statsCounters {
		fmt.Printf(" %s=%d", c, oc.statsDelta[c])
	}
	fmt.Println()
}

// runEndToEnd sets up setupReps times (reporting the median set-up),
// then measures the timed loop on the last daemon.
func runEndToEnd(bin string, w *workload) (*result, error) {
	var setups []float64
	var sr *setupResult
	for k := 0; k < setupReps; k++ {
		if sr != nil {
			sr.d.stop()
		}
		var err error
		if sr, err = setUp(bin, w); err != nil {
			return nil, err
		}
		setups = append(setups, sr.elapsed.Seconds())
	}
	defer sr.d.stop()
	fmt.Printf("set-up: %v s\n", setups)
	run, err := measure(sr, w)
	if err != nil {
		return nil, err
	}
	oc := run.oc
	v, _, _ := tail(oc.blockLatencies(w))
	// Per block: the median latency, the rate and the CPU per op; each
	// is reported as its median over the blocks.
	var p50s, rates, cpus []float64
	for b := 0; b < blocks; b++ {
		lo, hi := b*w.blockLen, (b+1)*w.blockLen
		ok := 0
		for _, a := range oc.answers[lo:hi] {
			if a != nil {
				ok++
			}
		}
		p50s = append(p50s, ms(percentile(oc.latencies[lo:hi], 50)))
		rates = append(rates, float64(ok)/oc.blockWall[b].Seconds())
		cpus = append(cpus, perOp(ms(oc.blockCPU[b]), ok))
	}
	fmt.Printf("blocks: p50_ms %.4g, ops_per_s %.4g, cpu_ms_per_op %.4g\n", p50s, rates, cpus)
	m := map[string]metric{
		"p50_ms":        {medianFloat(p50s), "ms"},
		"tail_ms":       {ms(v), "ms"},
		"ops_per_s":     {medianFloat(rates), "1/s"},
		"cpu_ms_per_op": {medianFloat(cpus), "ms"},
		"ok_frac":       {float64(oc.ok) / float64(oc.attempted), "frac"},
		"cost_norm":     {oc.costNorm, "frac"},
		"rss_mb":        {oc.rssMB, "MiB"},
		"setup_s":       {medianFloat(setups), "s"},
	}
	return &result{Correct: oc.ok == oc.attempted, Attempted: oc.attempted, Failed: oc.attempted - oc.ok, Metrics: m}, nil
}

func perOp(total float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return total / float64(ops)
}
