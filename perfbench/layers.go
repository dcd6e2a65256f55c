package main

// The traced run: per-layer metrics, and the where-did-the-time-go table
// with its JSON sidecar.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"chrono/internal/experiments"
	"chrono/internal/report"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"events_per_s", "1/s"},
	{"turnaround_s", "s"},
	{"peak_rss_mb", "MB"},
	{"sim_fmar_pct", "%"},
	{"sim_mops", "Mop/s"},
}

// cyclePolicies are the policies with a policy.cycle.self_s.<name>
// metric: every policy any workload runs.
var cyclePolicies = experiments.AdversarialPolicies

// cycleMetric names a policy's cycle metric; "+" is not allowed in
// metric names.
func cycleMetric(pol string) string {
	return "policy.cycle.self_s." + strings.ReplaceAll(pol, "+", "-")
}

// perLayer are the metrics of a traced run. Each is emitted on every
// workload, as 0 where its layer does not run.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"policy.fault.calls", "count"},
		{"policy.fault.self_s", "s"},
		{"policy.migrated.self_s", "s"},
		{"policy.cycle.count", "count"},
		{"policy.cycle.self_s", "s"},
	}
	for _, p := range cyclePolicies {
		defs = append(defs, metricDef{cycleMetric(p), "s"})
	}
	return append(defs, []metricDef{
		{"kernel.migrate.calls", "count"},
		{"kernel.migrate.ok_ratio", "ratio"},
		{"kernel.migrate.self_s", "s"},
		{"kernel.scan.calls", "count"},
		{"kernel.scan.self_s", "s"},
		{"kernel.lru.calls", "count"},
		{"kernel.lru.self_s", "s"},
		{"pebs.sample.calls", "count"},
		{"pebs.sample.self_s", "s"},
		{"pebs.samples", "count"},
		{"engine.replay.faults", "count"},
		{"engine.replay.self_s", "s"},
		{"engine.tick.count", "count"},
		{"engine.tick.self_s", "s"},
		{"engine.other_s", "s"},
		{"simclock.events", "count"},
		{"workload.build_s", "s"},
		{"engine.new_s", "s"},
		{"policy.attach_s", "s"},
		{"runtime.alloc_mb", "MB"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_pause_s", "s"},
		{"daemon.submit_ms", "ms"},
		{"daemon.pause_ms", "ms"},
		{"daemon.resume_ms", "ms"},
		{"checkpoint.bytes", "bytes"},
		{"daemon.overhead_s", "s"},
		{"trace.overhead_pct", "%"},
	}...)
}()

// whereLayers are the rows of the where-did-the-time-go table, in the
// order of a cell's life. Their self times sum to the cell's time.
var whereLayers = []string{
	"engine.new", "workload.build", "policy.attach",
	"engine.replay", "policy.fault", "policy.migrated", "policy.cycle",
	"kernel.migrate", "kernel.scan", "kernel.lru", "pebs.sample",
	"engine.tick", "engine.other",
}

// selfTimes returns a traced cell's self seconds per where-table layer,
// in whereLayers order. engine.other is the unattributed remainder, so
// the values sum to the cell's time.
func selfTimes(r cellResult) []float64 {
	t := r.tr
	ns := []int64{
		r.newNS,
		r.buildNS,
		t.stats[lPolicyAttach].selfNS,
		t.replayNS,
		t.stats[lPolicyFault].selfNS,
		t.stats[lPolicyMigrated].selfNS,
		t.cycleNS,
		t.stats[lKernelMigrate].selfNS,
		t.stats[lKernelScan].selfNS,
		t.stats[lKernelLRU].selfNS,
		t.stats[lPEBSSample].selfNS,
		t.tickNS,
	}
	other := r.totalNS
	for _, v := range ns {
		other -= v
	}
	ns = append(ns, other)
	s := make([]float64, len(ns))
	for i, v := range ns {
		s[i] = float64(v) / 1e9
	}
	return s
}

// selfMetric names the per-layer metric that reports a where-table
// layer's self time.
func selfMetric(l string) string {
	switch l {
	case "workload.build", "engine.new", "policy.attach", "engine.other":
		return l + "_s"
	}
	return l + ".self_s"
}

// tracedPass is one traced pass: per-layer metrics summed over cells, and
// each cell's self times for the where table.
type tracedPass struct {
	metrics map[string]float64
	self    [][]float64 // by cell index, in whereLayers order; nil for a failed cell
}

// traced runs passes in which every cell executes untraced and then
// traced, and reports the median of each per-layer metric over passes.
func (b *bench) traced() (result, error) {
	var passes []tracedPass
	err := b.repeat(func() error {
		p, err := b.tracedPass()
		passes = append(passes, p)
		return err
	})
	if err != nil {
		return result{}, err
	}
	vals := map[string]float64{}
	for _, d := range perLayer {
		var xs []float64
		for _, p := range passes {
			xs = append(xs, p.metrics[d.name])
		}
		vals[d.name] = median(xs)
	}
	if err := b.writeWhere(passes); err != nil {
		return result{}, err
	}
	return b.result(vals, perLayer), nil
}

func (b *bench) tracedPass() (tracedPass, error) {
	p := tracedPass{metrics: map[string]float64{}, self: make([][]float64, len(b.cells))}
	m := p.metrics
	var runs []*daemonRun
	if b.cells[0].spec != nil {
		var err error
		if runs, _, _, err = b.daemonSession(1); err != nil {
			return p, err
		}
		var submit, pause, resume []float64
		for _, dr := range runs {
			if dr == nil {
				continue
			}
			submit = append(submit, float64(dr.submitNS)/1e6)
			pause = append(pause, float64(dr.pauseNS)/1e6)
			resume = append(resume, float64(dr.resumeNS)/1e6)
			m["checkpoint.bytes"] += float64(dr.ckptBytes)
		}
		m["daemon.submit_ms"] = median(submit)
		m["daemon.pause_ms"] = median(pause)
		m["daemon.resume_ms"] = median(resume)
	}
	var plainNS, tracedNS, overheadNS, okCalls, okMoves float64
	var nOverhead int
	for i, c := range b.cells {
		if runs != nil && runs[i] == nil {
			continue
		}
		b.attempted++
		runtime.GC()
		plain := runCell(c, nil)
		runtime.GC()
		// The tracer reaches the engine only inside the policy wrapper, which
		// is not Checkpointable; the check below holds traced and untraced
		// simulations byte-identical.
		r := runCell(c, newTracer()) //chrono:wallclock host-side span timing
		err := plain.err
		if err == nil {
			err = r.err
		}
		if err == nil && plain.sim.encode() != r.sim.encode() {
			err = fmt.Errorf("tracing changed the simulation:\n  untraced %s\n  traced   %s", plain.sim.encode(), r.sim.encode())
		}
		if err == nil {
			err = b.deterministic(i, r.sim)
		}
		if err == nil && float64(r.tr.stats[lPolicyFault].calls) != r.sim.Faults {
			err = fmt.Errorf("policy saw %d faults, engine replayed %v", r.tr.stats[lPolicyFault].calls, r.sim.Faults)
		}
		if err == nil && runs != nil {
			err = checkDaemonTable(runs[i].table, plain.sim)
		}
		if err != nil {
			b.fail(c, err)
			continue
		}
		if runs != nil {
			overheadNS += float64(runs[i].turnaroundNS - plain.totalNS)
			nOverhead++
		}
		plainNS += float64(plain.totalNS)
		tracedNS += float64(r.totalNS)
		m["runtime.alloc_mb"] += float64(plain.allocBytes) / 1e6
		m["runtime.gc_cycles"] += float64(plain.gcCycles)
		m["runtime.gc_pause_s"] += float64(plain.gcPauseNS) / 1e9

		t := r.tr
		st := func(l layer) layerStat { return t.stats[l] }
		m["policy.fault.calls"] += float64(st(lPolicyFault).calls)
		m["policy.cycle.count"] += float64(t.cycleCount)
		m[cycleMetric(c.policy)] += float64(t.cycleNS) / 1e9
		m["kernel.migrate.calls"] += float64(st(lKernelMigrate).calls)
		m["kernel.scan.calls"] += float64(st(lKernelScan).calls)
		m["kernel.lru.calls"] += float64(st(lKernelLRU).calls)
		m["pebs.sample.calls"] += float64(st(lPEBSSample).calls)
		m["pebs.samples"] += float64(t.samples)
		m["engine.replay.faults"] += r.sim.Faults
		m["engine.tick.count"] += float64(t.tickCount)
		m["simclock.events"] += float64(r.clockEvts)
		okCalls += float64(st(lKernelMigrate).calls)
		okMoves += float64(t.migrateOK)

		p.self[i] = selfTimes(r)
		for li, l := range whereLayers {
			m[selfMetric(l)] += p.self[i][li]
		}
	}
	if okCalls > 0 {
		m["kernel.migrate.ok_ratio"] = okMoves / okCalls
	}
	if plainNS > 0 {
		m["trace.overhead_pct"] = (tracedNS/plainNS - 1) * 100
	}
	if nOverhead > 0 {
		m["daemon.overhead_s"] = overheadNS / float64(nOverhead) / 1e9
	}
	return p, nil
}

// whereCell is one column of the where table: self seconds per layer,
// in whereLayers order, and their shares of the column's total.
type whereCell struct {
	Policy   string    `json:"policy"`
	TotalS   float64   `json:"total_s"`
	SelfS    []float64 `json:"self_s"`
	SharePct []float64 `json:"share_pct"`
}

type whereSidecar struct {
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Passes   int         `json:"passes"`
	Layers   []string    `json:"layers"`
	Cells    []whereCell `json:"cells"`
	All      whereCell   `json:"all"`
}

// writeWhere writes the where-did-the-time-go table (mean self seconds
// per traced pass, as shares of cell time) to standard error and to
// where_<workload>.txt, and its JSON sidecar to where_<workload>.json.
func (b *bench) writeWhere(passes []tracedPass) error {
	sc := whereSidecar{Workload: b.o.workload, Seed: b.o.seed, Passes: len(passes), Layers: whereLayers}
	all := make([]float64, len(whereLayers))
	for i, c := range b.cells {
		self := make([]float64, len(whereLayers))
		n := 0
		for _, p := range passes {
			if p.self[i] == nil {
				continue
			}
			n++
			for li, v := range p.self[i] {
				self[li] += v
			}
		}
		if n == 0 {
			continue
		}
		for li := range self {
			self[li] /= float64(n)
			all[li] += self[li]
		}
		sc.Cells = append(sc.Cells, shareOf(c.policy, self))
	}
	sc.All = shareOf("all", all)

	headers := []string{"Layer"}
	for _, wc := range sc.Cells {
		headers = append(headers, wc.Policy+" (%)")
	}
	headers = append(headers, "All (s)", "All (%)")
	t := report.NewTable(fmt.Sprintf("Where did the time go: %s, seed %d, traced, mean of %d passes",
		b.o.workload, b.o.seed, len(passes)), headers...)
	for li, l := range whereLayers {
		row := []any{l}
		for _, wc := range sc.Cells {
			row = append(row, wc.SharePct[li])
		}
		row = append(row, sc.All.SelfS[li], sc.All.SharePct[li])
		t.AddRow(row...)
	}
	row := []any{"cell total (s)"}
	for _, wc := range sc.Cells {
		row = append(row, wc.TotalS)
	}
	t.AddRow(append(row, sc.All.TotalS, 100.0)...)
	t.Note = "self time per layer as a share of cell time; engine.other is the unattributed remainder (run-loop glue, the trace hook, GC outside any span)"
	table := t.String()
	fmt.Fprint(os.Stderr, table)

	if err := os.MkdirAll(b.o.outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(b.o.outDir, "where_"+b.o.workload)
	if err := os.WriteFile(base+".txt", []byte(table), 0o644); err != nil {
		return err
	}
	js, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".json", append(js, '\n'), 0o644)
}

func shareOf(name string, self []float64) whereCell {
	wc := whereCell{Policy: name, SelfS: self, SharePct: make([]float64, len(self))}
	for _, v := range self {
		wc.TotalS += v
	}
	for i, v := range self {
		if wc.TotalS > 0 {
			wc.SharePct[i] = 100 * v / wc.TotalS
		}
	}
	return wc
}

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// peak-RSS count, so the next peakRSSMB covers one pass. On kernels
// without the reset the count runs from process start.
func resetPeakRSS() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: peak RSS not reset, reporting it since start:", err)
	}
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}
