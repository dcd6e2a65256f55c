package experiments

import (
	"chrono/internal/core"
	"chrono/internal/engine"
	"chrono/internal/report"
)

// This file renders the paper's static tables and the per-run metrics
// table, and provides the shared engine constructor.

// newEngine builds an engine from RunOpts (already defaulted).
func newEngine(o RunOpts) *engine.Engine {
	return engine.New(engine.Config{
		Seed:         o.Seed,
		PagesPerGB:   o.PagesPerGB,
		FastGB:       o.FastGB,
		SlowGB:       o.SlowGB,
		Faults:       o.Faults,
		DebugChecks:  o.DebugChecks,
		Shards:       o.Shards,
		ShardWorkers: o.ShardWorkers,
	})
}

// MetricsTable renders one run in the metrics layout shared by
// chronosim's output, chronod's final table.txt and its live dump: the
// counter and rate rows, then — unless live — the hot-page scores and a
// Chrono policy's tuning state. Row labels are a stable interface; tools
// parse them.
func MetricsTable(title string, res *Result, live bool) *report.Table {
	m := res.Metrics
	t := report.NewTable(title, "Metric", "Value")
	t.AddRow("Throughput (Mop/s)", m.Throughput())
	t.AddRow("FMAR (%)", m.FMAR()*100)
	t.AddRow("Avg latency (ns)", m.Lat.Mean())
	t.AddRow("P50 latency (ns)", m.Lat.Percentile(0.5))
	t.AddRow("P99 latency (ns)", m.Lat.Percentile(0.99))
	t.AddRow("Kernel time (%)", m.KernelTimeFrac()*100)
	t.AddRow("Context switches (/s)", m.ContextSwitchRate())
	t.AddRow("Hint faults", m.Faults)
	t.AddRow("Promotions (pages)", m.Promotions)
	t.AddRow("Demotions (pages)", m.Demotions)
	t.AddRow("Migrated (GB)", m.MigratedBytes/1e9)
	if live {
		return t
	}
	cls, f1, ppr := Score(res)
	t.AddRow("F1-score", f1)
	t.AddRow("Precision", cls.Precision())
	t.AddRow("Recall", cls.Recall())
	t.AddRow("PPR", ppr)
	if c, ok := res.Engine.Policy().(*core.Chrono); ok {
		t.AddRow("CIT threshold (ms)", c.ThresholdMS())
		t.AddRow("Rate limit (MB/s)", c.RateLimitMBps())
		t.AddRow("Thrash events", c.ThrashTotal)
		t.AddRow("DCSC samples", c.DCSCSamples)
	}
	return t
}

// Table1 renders the solution-characteristics comparison (paper Table 1).
func Table1() *report.Table {
	t := report.NewTable("Table 1: characteristics of recent tiered memory systems",
		"Solution", "Type", "Migration Criterion", "Effective Frequency Scale", "Default Page Size")
	t.AddRow("Auto-Tiering", "System-wide", "Page-fault counters", "0~1 access/min", "Base page")
	t.AddRow("Multi-Clock", "System-wide", "Multi-level LRU lists", "0~1 access/min", "Base page")
	t.AddRow("Telescope", "System-wide", "Tree-structured PTE bits", "0~5 access/sec", "Base page")
	t.AddRow("TPP", "System-wide", "Page-fault + LRU lists", "0~2 access/min", "Base page")
	t.AddRow("Memtis", "Process level", "PEBS stats + Ratio config", "0~10 access/sec", "Huge page")
	t.AddRow("FlexMem", "Process level", "PEBS stats + Page fault", "0~10 access/sec", "Huge page")
	t.AddRow("Chrono [Ours]", "System-wide", "Dynamic CIT stats", "0~1000 access/sec", "Base page")
	return t
}

// Table2 renders Chrono's parameter defaults (paper Table 2), pulled from
// the live Options defaults so the table cannot drift from the code.
func Table2() *report.Table {
	opt := core.New(core.Options{}).Options()
	t := report.NewTable("Table 2: Chrono parameter defaults",
		"Name", "Default", "Description")
	t.AddRow("Scan step", "256 MB", "marked page set size of a Ticking-scan event (scaled at sim resolution)")
	t.AddRow("Scan period", "60 sec", "period for Ticking-scan to loop over the address space")
	t.AddRow("P-victim", opt.PVictim, "ratio of pages sampled in the DCSC scheme (paper: 0.003% at 256 GB; see DESIGN.md)")
	t.AddRow("B-bucket", opt.BBuckets, "number of CIT levels in DCSC stats")
	t.AddRow("delta-step", opt.DeltaStep, "adaption step for CIT threshold adjustment")
	t.AddRow("CIT threshold", opt.CITThresholdMS, "initial value in ms; auto-tuned")
	t.AddRow("Rate limit", opt.RateLimitMBps, "initial value in MB/s; auto-tuned")
	return t
}
