// Command perfbench is the repository benchmark. It runs one workload, a
// fixed list of cells built from -seed, pass after pass for -seconds of
// host time, checks every cell's outputs, and prints one JSON object as
// the last line of standard output: the end-to-end metrics, or with
// -trace 1 the per-layer metrics of a traced run. See README.md.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload pmbench --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

type options struct {
	workload string
	seed     uint64
	budget   time.Duration
	trace    bool
	// outDir receives the where-did-the-time-go table and its JSON
	// sidecar; workDir holds chronod's state while it runs.
	outDir, workDir string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var o options
	var secs float64
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: pmbench | oscillation | redis-chronod")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every cell's inputs are built from")
	flag.Float64Var(&secs, "seconds", 20, "host seconds to measure for")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	flag.StringVar(&o.outDir, "out", "perfbench/out", "directory for the where-did-the-time-go table and sidecar")
	flag.StringVar(&o.workDir, "workdir", ".bench_build/perfbench-work", "scratch directory for chronod state")
	flag.Parse()
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || secs <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	o.budget = time.Duration(secs * float64(time.Second))
	o.trace = trace == 1
	cells, err := cellsFor(o.workload, o.seed, 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(o, cells)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run measures cells for the option's budget and returns the result.
// Cell failures are counted in the result; an error means the benchmark
// itself could not run.
func run(o options, cells []cell) (result, error) {
	b := &bench{o: o, cells: cells}
	if o.trace {
		return b.traced()
	}
	return b.untraced()
}

// bench is one benchmark run: its cells and the operations counted so far.
type bench struct {
	o         options
	cells     []cell
	attempted int
	failed    int
	// sims holds each cell's simulated metrics from its first clean run;
	// every later run of the cell must reproduce them byte for byte.
	sims map[int]string
}

// fail counts a failed operation and reports why on standard error.
func (b *bench) fail(c cell, err error) {
	b.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s cell %s failed: %v\n", b.o.workload, c.policy, err)
}

// deterministic checks that a clean run of cell i reproduced the
// simulated metrics of its first clean run.
func (b *bench) deterministic(i int, s simMetrics) error {
	if b.sims == nil {
		b.sims = map[int]string{}
	}
	enc := s.encode()
	if prev, ok := b.sims[i]; ok && prev != enc {
		return fmt.Errorf("simulated metrics changed between runs of the same seed:\n  %s\n  %s", prev, enc)
	}
	b.sims[i] = enc
	return nil
}

// repeat runs pass until the budget would be exceeded by one more pass of
// the same length, and at least once.
func (b *bench) repeat(pass func() error) error {
	start := time.Now()
	for {
		t := time.Now()
		if err := pass(); err != nil {
			return err
		}
		if time.Since(start)+time.Since(t) > b.o.budget {
			return nil
		}
	}
}

// e2ePass is one untraced pass over the workload's cells.
type e2ePass struct {
	wallNS, runNS int64
	// setupS holds the pass's set-up times: one sum over the cells, or
	// every daemon start.
	setupS []float64
	events float64
	turnNS []int64
	sims   []simMetrics
	peakMB float64
}

func (b *bench) untraced() (result, error) {
	var passes []e2ePass
	isChronod := b.cells[0].spec != nil
	err := b.repeat(func() error {
		var p e2ePass
		var err error
		resetPeakRSS()
		if isChronod {
			p, err = b.chronodPass()
		} else {
			p = b.simPass()
		}
		p.peakMB = peakRSSMB()
		passes = append(passes, p)
		fmt.Fprintf(os.Stderr, "perfbench: pass %d: wall %.3fs setup %.4fs run %.3fs events %.0f peak %.1fMB\n",
			len(passes), float64(p.wallNS)/1e9, median(p.setupS), float64(p.runNS)/1e9, p.events, p.peakMB)
		return err
	})
	if err != nil {
		return result{}, err
	}
	var wall, setup, eps, turn, peak []float64
	for _, p := range passes {
		wall = append(wall, float64(p.wallNS)/1e9)
		peak = append(peak, p.peakMB)
		setup = append(setup, p.setupS...)
		if p.runNS > 0 {
			eps = append(eps, p.events/(float64(p.runNS)/1e9))
		}
		if len(p.turnNS) > 0 {
			turn = append(turn, meanNS(p.turnNS)/1e9)
		}
	}
	var fmar, mops []float64
	for _, s := range passes[0].sims {
		fmar = append(fmar, s.FMARPct)
		mops = append(mops, s.Mops)
	}
	return b.result(map[string]float64{
		"wall_s":       median(wall),
		"setup_s":      median(setup),
		"events_per_s": median(eps),
		"turnaround_s": median(turn),
		"peak_rss_mb":  median(peak),
		"sim_fmar_pct": mean(fmar),
		"sim_mops":     mean(mops),
	}, endToEnd), nil
}

// simPass runs every cell once, untraced. A cell's turnaround is its host
// time from engine construction to checked result.
func (b *bench) simPass() e2ePass {
	var p e2ePass
	var setupNS int64
	t0 := time.Now()
	for i, c := range b.cells {
		runtime.GC()
		b.attempted++
		r := runCell(c, nil)
		if r.err == nil {
			r.err = b.deterministic(i, r.sim)
		}
		if r.err != nil {
			b.fail(c, r.err)
			continue
		}
		setupNS += r.setupNS
		p.runNS += r.runNS
		p.events += r.events
		p.turnNS = append(p.turnNS, r.totalNS)
		p.sims = append(p.sims, r.sim)
	}
	p.wallNS = int64(time.Since(t0))
	p.setupS = []float64{float64(setupNS) / 1e9}
	return p
}

// daemonStarts is how many times a redis-chronod pass starts the daemon
// to time its set-up.
const daemonStarts = 50

// daemonSession starts chronod n times, keeping the last start, pushes
// every cell through it as a supervised run with one pause and resume,
// and stops it. runs[i] is nil when cell i's run failed, which counts as
// a failed operation. wallNS is the session from the median start to the
// end of shutdown.
func (b *bench) daemonSession(n int) (runs []*daemonRun, starts []float64, wallNS int64, err error) {
	d, starts, err := startChronodTimed(b.o.workDir, n)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("start chronod: %w", err)
	}
	t0 := time.Now()
	runs = make([]*daemonRun, len(b.cells))
	for i, c := range b.cells {
		dr, err := d.run(c.spec)
		if err != nil {
			b.attempted++
			b.fail(c, err)
			continue
		}
		runs[i] = &dr
	}
	if err := d.stop(); err != nil {
		return nil, nil, 0, fmt.Errorf("stop chronod: %w", err)
	}
	return runs, starts, int64(median(starts)*1e9) + int64(time.Since(t0)), nil
}

// chronodPass runs a daemon session: its wall time is the pass's, and
// its daemon starts are the set-up samples. Each cell then runs directly
// as well, untraced, for events_per_s and to check that chronod reported
// the same simulation.
func (b *bench) chronodPass() (e2ePass, error) {
	var p e2ePass
	runs, starts, wallNS, err := b.daemonSession(daemonStarts)
	if err != nil {
		return p, err
	}
	p.setupS, p.wallNS = starts, wallNS
	for _, dr := range runs {
		if dr != nil {
			p.turnNS = append(p.turnNS, dr.turnaroundNS)
		}
	}
	for i, c := range b.cells {
		if runs[i] == nil {
			continue
		}
		runtime.GC()
		b.attempted++
		r := runCell(c, nil)
		if r.err == nil {
			r.err = b.deterministic(i, r.sim)
		}
		if r.err == nil {
			r.err = checkDaemonTable(runs[i].table, r.sim)
		}
		if r.err != nil {
			b.fail(c, r.err)
			continue
		}
		p.runNS += r.runNS
		p.events += r.events
		p.sims = append(p.sims, r.sim)
	}
	return p, nil
}

// result assembles the printed object over the named metrics.
func (b *bench) result(vals map[string]float64, defs []metricDef) result {
	res := result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return res
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func meanNS(xs []int64) float64 {
	var t float64
	for _, x := range xs {
		t += float64(x)
	}
	return t / float64(len(xs))
}
