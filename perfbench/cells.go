package main

// The workloads and their cells. A cell is one simulation: an engine
// configuration, a workload generator and a policy, all fixed by the
// benchmark seed. runCell executes one cell, untraced or traced, and
// checks its outputs; a cell that errors, panics or fails a check is a
// failed operation, never a crashed benchmark.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"chrono/internal/daemon"
	"chrono/internal/engine"
	"chrono/internal/experiments"
	"chrono/internal/mem"
	"chrono/internal/rng"
	"chrono/internal/simclock"
	"chrono/internal/units"
	"chrono/internal/vm"
	"chrono/internal/workload"
)

// Virtual run lengths at scale 1. They keep one pass over a workload's
// cells to a few host seconds, so a run repeats the pass several times.
const (
	pmbenchSecs     = 120
	oscillationSecs = 60
	redisSecs       = 90
	pagesPerGBHigh  = 4096
)

// cell is one simulation of a workload.
type cell struct {
	policy string
	cfg    engine.Config
	mk     func() workload.Workload
	dur    simclock.Duration
	// spec is the equivalent chronod submission (redis-chronod only). It
	// must build exactly the engine that cfg and mk build, which the
	// benchmark checks by comparing the daemon's table with a direct run.
	spec *daemon.RunSpec
}

// workloadNames lists the workloads in the order the doc presents them.
var workloadNames = []string{"pmbench", "oscillation", "redis-chronod"}

// cellSeed derives the engine seed of every cell from the benchmark seed.
// It is never 0, because chronod reads a zero seed as "default".
func cellSeed(seed uint64) uint64 {
	if s := rng.Hash(seed, 0xbe4c, 1); s != 0 {
		return s
	}
	return 1
}

// cellsFor returns the cells of a workload. scale multiplies every
// virtual run length (1 for measurement, small for the smoke test).
func cellsFor(name string, seed uint64, scale float64) ([]cell, error) {
	s := cellSeed(seed)
	dur := func(secs float64) simclock.Duration { return simclock.FromSeconds(secs * scale) }
	switch name {
	case "pmbench":
		// Fig 6a traffic: 50 processes × 5 GB, 70:30 R:W, stride 2.
		var cs []cell
		for _, pol := range []string{"Chrono", "TPP"} {
			cs = append(cs, cell{
				policy: pol,
				cfg:    engine.Config{Seed: s, PagesPerGB: pagesPerGBHigh},
				mk: func() workload.Workload {
					return &workload.Pmbench{Processes: 50, WorkingSetGB: 5, ReadPct: 70, Stride: 2, Mode: engine.BasePages}
				},
				dur: dur(pmbenchSecs),
			})
		}
		return cs, nil
	case "oscillation":
		var cs []cell
		for _, pol := range experiments.AdversarialPolicies {
			cs = append(cs, cell{
				policy: pol,
				cfg:    engine.Config{Seed: s},
				mk:     func() workload.Workload { return &workload.Oscillation{} },
				dur:    dur(oscillationSecs),
			})
		}
		return cs, nil
	case "redis-chronod":
		// Redis with a 1:1 SET:GET mix, as chronod's kvstore spec builds it.
		var cs []cell
		for _, pol := range []string{"Chrono", "Nomad"} {
			spec := &daemon.RunSpec{
				Policy: pol, Workload: "kvstore", Flavor: "redis", SetGet: "1:1",
				Seed: s, DurationS: redisSecs * scale, PagesPerGB: pagesPerGBHigh,
				FastGB: 64, SlowGB: 192,
			}
			cs = append(cs, cell{
				policy: pol,
				cfg:    engine.Config{Seed: s, PagesPerGB: pagesPerGBHigh, FastGB: units.GB(spec.FastGB), SlowGB: units.GB(spec.SlowGB)},
				mk: func() workload.Workload {
					return &workload.KVStore{Flavor: workload.Redis, StoreGB: 160, SetRatio: 1, GetRatio: 1, Mode: engine.BasePages}
				},
				dur:  simclock.FromSeconds(spec.DurationS),
				spec: spec,
			})
		}
		return cs, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// simMetrics are a cell's simulated results. They depend only on the
// seed, so the traced and untraced runs of a cell must encode to the same
// bytes.
type simMetrics struct {
	FMARPct          float64 `json:"fmar_pct"`
	Mops             float64 `json:"mops"`
	Accesses         float64 `json:"accesses"`
	FastAccesses     float64 `json:"fast_accesses"`
	Faults           float64 `json:"faults"`
	Promotions       int64   `json:"promotions"`
	Demotions        int64   `json:"demotions"`
	FailedPromotions int64   `json:"failed_promotions"`
	FailedDemotions  int64   `json:"failed_demotions"`
	NomadAborts      int64   `json:"nomad_aborts"`
	ShadowDemotions  int64   `json:"shadow_demotions"`
	MigratedBytes    float64 `json:"migrated_bytes"`
	KernelNS         float64 `json:"kernel_ns"`
	LatMeanNS        float64 `json:"lat_mean_ns"`
	LatP99NS         float64 `json:"lat_p99_ns"`
}

func simOf(m *engine.Metrics) simMetrics {
	return simMetrics{
		FMARPct: m.FMAR() * 100, Mops: m.Throughput(),
		Accesses: m.Accesses, FastAccesses: m.FastAccesses, Faults: m.Faults,
		Promotions: m.Promotions, Demotions: m.Demotions,
		FailedPromotions: m.FailedPromotions, FailedDemotions: m.FailedDemotions,
		NomadAborts: m.NomadAborts, ShadowDemotions: m.ShadowDemotions,
		MigratedBytes: m.MigratedBytes, KernelNS: m.KernelNS,
		LatMeanNS: m.Lat.Mean(), LatP99NS: m.Lat.Percentile(0.99),
	}
}

func (s simMetrics) encode() string {
	b, err := json.Marshal(s)
	if err != nil {
		return fmt.Sprintf("unencodable: %v", err)
	}
	return string(b)
}

// cellResult is one execution of a cell.
type cellResult struct {
	setupNS int64 // engine.New + workload Build + policy construction and Attach
	runNS   int64 // engine.Run
	totalNS int64 // setup + run
	events  float64
	sim     simMetrics
	err     error

	// Go runtime deltas over the cell.
	allocBytes, gcCycles, gcPauseNS uint64

	// Traced runs only.
	tr                        *tracer
	newNS, buildNS, clockEvts int64
}

// runCell executes c, traced when tr is non-nil, and checks its outputs.
func runCell(c cell, tr *tracer) (res cellResult) {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	defer func() {
		if r := recover(); r != nil {
			res.err = fmt.Errorf("panic: %v", r)
		}
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		res.allocBytes = after.TotalAlloc - before.TotalAlloc
		res.gcCycles = uint64(after.NumGC - before.NumGC)
		res.gcPauseNS = after.PauseTotalNs - before.PauseTotalNs
	}()

	t0 := time.Now()
	e := engine.New(c.cfg)
	t1 := time.Now()
	w := c.mk()
	if err := w.Build(e); err != nil {
		res.err = fmt.Errorf("build %s: %w", w.Name(), err)
		return res
	}
	t2 := time.Now()
	if tr != nil {
		tr.open()
	}
	pol, err := experiments.NewPolicy(c.policy)
	if err != nil {
		res.err = err
		return res
	}
	if tr != nil {
		pol = &tracedPolicy{inner: pol, t: tr}
	}
	e.AttachPolicy(pol)
	if tr != nil {
		tr.exit(lPolicyAttach)
		e.Clock().SetAfterStep(tr.afterStep)
		tr.startRun()
	}
	fired := e.Clock().Fired()
	t3 := time.Now()
	m := e.Run(c.dur)
	t4 := time.Now()
	if tr != nil {
		e.Clock().SetAfterStep(nil)
		res.newNS, res.buildNS = int64(t1.Sub(t0)), int64(t2.Sub(t1))
		res.clockEvts = int64(e.Clock().Fired() - fired)
		res.tr = tr
	}
	res.setupNS = int64(t3.Sub(t0))
	res.runNS = int64(t4.Sub(t3))
	res.totalNS = int64(t4.Sub(t0))
	res.events = float64(e.Clock().Fired()-fired) + m.Faults
	res.sim = simOf(m)
	res.err = checkCell(e, m)
	return res
}

// checkCell validates a finished simulation: FMAR is a finite share, and
// the per-process tier residency the engine maintains incrementally
// matches a recount of the page table.
func checkCell(e *engine.Engine, m *engine.Metrics) error {
	f := m.FMAR() * 100
	if math.IsNaN(f) || math.IsInf(f, 0) || f < 0 || f > 100 {
		return fmt.Errorf("FMAR %v%% outside [0, 100]", f)
	}
	if m.Accesses <= 0 {
		return errors.New("simulation made no accesses")
	}
	var fast, slow int64
	for _, p := range e.Processes() {
		fast += e.ResidentFast(p)
		slow += e.ResidentSlow(p)
	}
	var mapped, mappedFast int64
	for _, pg := range e.Pages() {
		if pg == nil || pg.Flags.Has(vm.FlagSwapped) {
			continue
		}
		mapped += int64(pg.Size)
		if pg.Tier == mem.FastTier {
			mappedFast += int64(pg.Size)
		}
	}
	if fast+slow != mapped || fast != mappedFast {
		return fmt.Errorf("residency fast %d + slow %d != %d mapped pages (%d fast)", fast, slow, mapped, mappedFast)
	}
	return nil
}
