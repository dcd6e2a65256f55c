package experiments

import (
	"chrono/internal/engine"
	"chrono/internal/parallel"
	"chrono/internal/report"
	"chrono/internal/simclock"
	"chrono/internal/stats"
	"chrono/internal/workload"
)

// This file implements the extension experiments beyond the paper's
// figures: the full Table 1 policy comparison (adding HeMem, FlexMem and
// Telescope, which the paper characterizes but does not evaluate) and the
// drifting-hotspot adaptivity study that exercises the "adapts to
// changing workload patterns" claim of §3.2.2 directly.

// RunExtendedComparison runs every Table 1 system on the headline pmbench
// workload and reports throughput, FMAR and identification quality.
func RunExtendedComparison(o RunOpts) (*report.Table, error) {
	t := report.NewTable(
		"Extension: all Table 1 systems on the Figure 6a workload (R/W=70:30)",
		"Policy", "Thr (Mop/s)", "vs Linux-NB", "FMAR (%)", "F1", "PPR", "Kernel (%)")
	type row struct {
		thr, fmar, f1, ppr, kernel float64
	}
	jobs := make([]func() (row, error), len(ExtendedPolicies))
	for i, pol := range ExtendedPolicies {
		pol := pol
		jobs[i] = func() (row, error) {
			w := &workload.Pmbench{
				Processes: 50, WorkingSetGB: 5, ReadPct: 70, Stride: 2,
				Mode: DefaultModeFor(pol),
			}
			res, err := Run(pol, w, o)
			if err != nil {
				return row{}, err
			}
			_, f1, ppr := Score(res)
			m := res.Metrics
			res.Compact()
			return row{thr: m.Throughput(), fmar: m.FMAR() * 100, f1: f1,
				ppr: ppr, kernel: m.KernelTimeFrac() * 100}, nil
		}
	}
	rows, err := parallel.MapCtx(o.ctx(), o.Workers, jobs)
	if err != nil {
		return nil, err
	}
	var base float64
	for i, pol := range ExtendedPolicies {
		if pol == "Linux-NB" {
			base = rows[i].thr
		}
		t.AddRow(pol, rows[i].thr, rows[i].thr/base,
			rows[i].fmar, rows[i].f1, rows[i].ppr, rows[i].kernel)
	}
	t.Note = "Telescope/HeMem/FlexMem are extensions beyond the paper's evaluation; this workload's per-real-page " +
		"rates (~1-6 access/s) sit inside Telescope's 0~5/s resolution band (Table 1), so its streak profiler ranks it well here"
	return t, nil
}

// DriftResult captures one policy's behaviour under a moving hotspot.
type DriftResult struct {
	Policy string
	// FMARSeries samples FMAR-equivalent placement quality over time
	// (instantaneous hot-mass residency, so dips after each shift and
	// recovery speed are visible).
	FMARSeries stats.Series
	Metrics    *engine.Metrics
}

// RunDrift runs the drifting-hotspot scenario: the Gaussian centre jumps
// a quarter of the address space every shiftEvery seconds, and placement
// quality is sampled every 10 s.
func RunDrift(policies []string, shiftEveryS float64, o RunOpts) ([]*DriftResult, error) {
	o = o.withDefaults()
	jobs := make([]func() (*DriftResult, error), len(policies))
	for i, pol := range policies {
		pol := pol
		jobs[i] = func() (*DriftResult, error) {
			w := &workload.Pmbench{
				Processes: 16, WorkingSetGB: 15, ReadPct: 70, Stride: 2,
				DriftPeriodS: shiftEveryS,
				Mode:         DefaultModeFor(pol),
			}
			e, err := Build(pol, w, o)
			if err != nil {
				return nil, err
			}
			dr := &DriftResult{Policy: pol}
			e.Clock().Every(10*simclock.Second, func(now simclock.Time) {
				cls := classifySnapshot(e, w)
				dr.FMARSeries.Append(now.Seconds(), cls.Recall())
			})
			dr.Metrics = e.Run(o.Duration)
			return dr, nil
		}
	}
	return parallel.MapCtx(o.ctx(), o.Workers, jobs)
}

// DriftTable renders the adaptivity study.
func DriftTable(results []*DriftResult) *report.Table {
	t := report.NewTable(
		"Extension: drifting hotspot (centre jumps 25% of the space periodically)",
		"Policy", "Thr (Mop/s)", "Mean hot residency", "Min after shifts", "Residency history")
	for _, r := range results {
		minV := 1.0
		// Skip the warm-up third when looking for post-shift dips.
		start := len(r.FMARSeries.V) / 3
		for _, v := range r.FMARSeries.V[start:] {
			if v < minV {
				minV = v
			}
		}
		t.AddRow(r.Policy, r.Metrics.Throughput(),
			stats.Mean(r.FMARSeries.V), minV,
			report.Sparkline(report.Downsample(r.FMARSeries.V, 36)))
	}
	t.Note = "hot residency = recall of the live hot set; sawtooth dips mark hotspot shifts, slope after each dip is adaptation speed"
	return t
}
