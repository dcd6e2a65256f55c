// Package flexmem implements the FlexMem baseline (Xu et al., ATC '24):
// Memtis-style PEBS histogram classification combined with the software
// page-fault channel for *timely* migration decisions (paper §2.3:
// "FlexMem integrates the PEBS-based method with the software page fault
// method to provide a synthetic classification criterion, which enhances
// Memtis with timely migration decisions").
//
// The PEBS side builds per-process counter histograms and a capacity-
// derived hot threshold exactly like Memtis; the fault side poisons
// slow-tier pages NUMA-balancing style, and a hint fault on a page whose
// counter already clears (a relaxed version of) the hot threshold
// promotes it immediately instead of waiting for the next background
// cycle.
package flexmem

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"chrono/internal/mem"
	"chrono/internal/pebs"
	"chrono/internal/policy"
	"chrono/internal/policy/scan"
	"chrono/internal/simclock"
	"chrono/internal/units"
	"chrono/internal/vm"
)

// FlexMem's published settings.
const (
	// samplePeriod is the DS-area drain interval.
	samplePeriod = simclock.Second
	// coolingPeriods is the sample periods between counter halvings.
	coolingPeriods = 8
	// migratePeriod is the background cycle.
	migratePeriod = 2 * simclock.Second
	// nBins is the histogram depth.
	nBins = 16
	// timelySlack relaxes the fault-path threshold: a faulting page in
	// bin >= hotBin-timelySlack promotes immediately.
	timelySlack = 1
)

// Config holds FlexMem's tunables.
type Config struct {
	// SampleRate is the PEBS budget (0 = policy.PEBSBudget).
	SampleRate units.Hz
}

// Policy is the FlexMem baseline.
//
//chrono:statesync checkpointState
type Policy struct {
	policy.Base               //chrono:rebuilt stateless method set
	cfg         Config        //chrono:rebuilt configuration, finalized in Attach
	k           policy.Kernel //chrono:rebuilt kernel handle, re-bound by Attach
	sampler     *pebs.Sampler //chrono:state Sampler
	scan        *scan.Set     //chrono:state Scan
	periods     int           //chrono:state Periods
	// hotBin is the live capacity-derived threshold bin per process.
	hotBin map[*vm.Process]int //chrono:state HotPIDs,HotBins
	// cycles counts background invocations; it rotates the per-process
	// service order so the shared migration budget is shared fairly
	// without depending on map iteration order.
	cycles int //chrono:state Cycles
	// TimelyPromotions counts fault-path promotions (vs background).
	TimelyPromotions int64 //chrono:state TimelyPromotions
	// TransientSkips counts hot pages skipped in a background batch
	// after repeated transient migration aborts (retried next cycle).
	TransientSkips int64 //chrono:state TransientSkips

	scratch scratch          //chrono:rebuilt per-cycle scratch, refilled by every background pass
	work    policy.CycleWork //chrono:rebuilt test instrumentation, never read by a decision
}

// scratch is the background pass's reusable per-cycle storage: a
// steady-state cycle allocates nothing.
type scratch struct {
	groups            policy.ProcGroups
	hist              pebs.Histogram
	binSize           []int64
	hotSlow, coldFast []*vm.Page
}

// New returns a FlexMem policy.
func New(cfg Config) *Policy {
	return &Policy{cfg: cfg, hotBin: make(map[*vm.Process]int), scratch: scratch{
		hist:    pebs.Histogram{Bins: make([]int64, nBins)},
		binSize: make([]int64, nBins),
	}}
}

// Name implements policy.Policy.
func (p *Policy) Name() string { return "FlexMem" }

// Attach implements policy.Policy.
func (p *Policy) Attach(k policy.Kernel) {
	p.k = k
	if p.cfg.SampleRate == 0 {
		p.cfg.SampleRate = policy.PEBSBudget(k)
	}
	p.sampler = pebs.NewSampler(k.RNG(), p.cfg.SampleRate)
	p.sampler.Grow(len(k.Pages()))

	// PEBS sampling + cooling.
	k.Clock().EveryKey("flexmem/sample", samplePeriod, func(now simclock.Time) {
		k.SamplePEBS(p.sampler, units.SecondsOf(samplePeriod))
		p.periods++
		if p.periods%coolingPeriods == 0 {
			p.sampler.Cool()
		}
	})
	// Background classification + migration.
	k.Clock().EveryKey("flexmem/background", migratePeriod, func(now simclock.Time) {
		p.background()
	})
	// Fault channel: poison slow-tier pages for timely decisions.
	p.scan = scan.Start(k, scan.Config{}, func(pg *vm.Page, now simclock.Time) {
		if pg.Tier == mem.SlowTier {
			k.Protect(pg)
		}
	})
}

// checkpointState is FlexMem's serializable dynamic state. The hotBin
// map serializes as (PID, bin) pairs sorted by PID so identical state
// always produces identical bytes.
type checkpointState struct {
	Sampler          pebs.SamplerState `json:"sampler"`
	Periods          int               `json:"periods"`
	Cycles           int               `json:"cycles"`
	HotPIDs          []int             `json:"hot_pids,omitempty"`
	HotBins          []int             `json:"hot_bins,omitempty"`
	TimelyPromotions int64             `json:"timely_promotions"`
	TransientSkips   int64             `json:"transient_skips"`
	Scan             scan.SetState     `json:"scan"`
}

// CheckpointState implements policy.Checkpointable.
func (p *Policy) CheckpointState() (any, error) {
	st := checkpointState{
		Sampler:          p.sampler.State(),
		Periods:          p.periods,
		Cycles:           p.cycles,
		TimelyPromotions: p.TimelyPromotions,
		TransientSkips:   p.TransientSkips,
		Scan:             p.scan.State(),
	}
	//chrono:ordered-irrelevant keys are sorted immediately below
	for proc := range p.hotBin {
		st.HotPIDs = append(st.HotPIDs, proc.PID)
	}
	sort.Ints(st.HotPIDs)
	for _, pid := range st.HotPIDs {
		st.HotBins = append(st.HotBins, p.hotBin[p.procByPID(pid)])
	}
	return st, nil
}

// RestoreCheckpoint implements policy.Checkpointable.
func (p *Policy) RestoreCheckpoint(data []byte) error {
	var st checkpointState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	if len(st.HotPIDs) != len(st.HotBins) {
		return fmt.Errorf("flexmem: restore: %d hot PIDs, %d bins", len(st.HotPIDs), len(st.HotBins))
	}
	p.sampler.SetState(st.Sampler)
	p.periods = st.Periods
	p.cycles = st.Cycles
	p.TimelyPromotions = st.TimelyPromotions
	p.TransientSkips = st.TransientSkips
	p.hotBin = make(map[*vm.Process]int, len(st.HotPIDs))
	for i, pid := range st.HotPIDs {
		proc := p.procByPID(pid)
		if proc == nil {
			return fmt.Errorf("flexmem: restore: no process with PID %d", pid)
		}
		p.hotBin[proc] = st.HotBins[i]
	}
	return p.scan.SetState(st.Scan)
}

// procByPID resolves a PID against the kernel's process list.
func (p *Policy) procByPID(pid int) *vm.Process {
	for _, proc := range p.k.Processes() {
		if proc.PID == pid {
			return proc
		}
	}
	return nil
}

// OnPageFreed implements policy.Policy.
func (p *Policy) OnPageFreed(pg *vm.Page) { p.sampler.Clear(pg.ID) }

// OnFault implements policy.Policy: the timely path — a faulting page
// whose sampled hotness is already near the threshold promotes now.
func (p *Policy) OnFault(pg *vm.Page, now simclock.Time) {
	if pg.Tier != mem.SlowTier {
		return
	}
	hot, ok := p.hotBin[pg.Proc]
	if !ok {
		return // no classification yet; wait for the background cycle
	}
	bin := pebs.BinOf(p.sampler.Counter(pg.ID))
	if bin >= hot-timelySlack && bin >= 1 {
		if policy.RetryPromote(p.k, pg, 2) == policy.MigrateOK {
			p.TimelyPromotions++
		}
	}
}

// background recomputes per-process histograms/thresholds and migrates
// like Memtis's kmigrated.
func (p *Policy) background() {
	sc := &p.scratch
	totalResident := sc.groups.Group(p.k.Pages())
	if totalResident == 0 {
		return
	}
	fastCap := p.k.Node().Capacity(mem.FastTier)
	budget := policy.CycleBatch(p.k)
	p.cycles++
	p.work.Cycles++

	for _, grp := range sc.groups.Order(p.cycles) {
		pages := grp.Pages
		clear(sc.hist.Bins)
		clear(sc.binSize)
		var resident int64
		for _, pg := range pages {
			c := p.sampler.Counter(pg.ID)
			b := pebs.BinOf(c)
			if b >= nBins {
				b = nBins - 1
			}
			sc.hist.Add(c)
			sc.binSize[b] += int64(pg.Size)
			resident += int64(pg.Size)
		}
		share := fastCap * resident / totalResident
		hotBin := sc.hist.HotThresholdBin(share, func(b int) int64 { return sc.binSize[b] })
		p.hotBin[grp.Proc] = hotBin

		sc.hotSlow, sc.coldFast = sc.hotSlow[:0], sc.coldFast[:0]
		for _, pg := range pages {
			b := pebs.BinOf(p.sampler.Counter(pg.ID))
			switch {
			case pg.Tier == mem.SlowTier && b >= hotBin:
				sc.hotSlow = append(sc.hotSlow, pg)
			case pg.Tier == mem.FastTier && b < hotBin:
				sc.coldFast = append(sc.coldFast, pg)
			}
		}
		p.work.ColdBuilds++
		p.work.MaxBuilds = max(p.work.MaxBuilds, 1)
		p.work.Visited += int64(len(pages))
		// No tie-break: equal counters keep pdqsort's order, which
		// FlexMem's published results depend on.
		slices.SortFunc(sc.hotSlow, func(a, b *vm.Page) int {
			return cmp.Compare(p.sampler.Counter(b.ID), p.sampler.Counter(a.ID))
		})
		slices.SortFunc(sc.coldFast, func(a, b *vm.Page) int {
			return cmp.Compare(p.sampler.Counter(a.ID), p.sampler.Counter(b.ID))
		})
		node := p.k.Node()
		di := 0
		for _, pg := range sc.hotSlow {
			if budget < int(pg.Size) {
				break
			}
			for node.Free(mem.FastTier) < node.Watermarks(mem.FastTier).High+int64(pg.Size) && di < len(sc.coldFast) {
				policy.RetryDemote(p.k, sc.coldFast[di], 2)
				di++
			}
			switch policy.RetryPromote(p.k, pg, 2) {
			case policy.MigrateOK:
				budget -= int(pg.Size)
			case policy.MigrateTransient:
				// Skip the busy page; the next background cycle
				// reclassifies and retries it.
				p.TransientSkips++
			}
		}
		p.work.Visited += int64(di)
	}
}
