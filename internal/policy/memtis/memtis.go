// Package memtis implements the Memtis baseline (Lee et al., SOSP '23):
// PEBS-driven memory tiering with a global histogram of per-page sample
// counters, a hot-set threshold derived from the fast:slow capacity ratio,
// periodic counter cooling, and conservative huge-page splitting.
//
// Memtis is a process-level solution (paper Table 1): each process's
// histogram is classified against its proportional share of the fast
// tier, so it cannot rank hotness *across* processes — the behaviour
// Figure 9 exposes. Its PEBS sample budget is capped (§2.3), which makes
// base-page counters tiny and classification unstable (Figure 2b); the
// same code path runs in both page modes here, and the instability
// emerges from the sampling model rather than from any special-casing.
package memtis

import (
	"cmp"
	"encoding/json"
	"slices"

	"chrono/internal/mem"
	"chrono/internal/pebs"
	"chrono/internal/policy"
	"chrono/internal/simclock"
	"chrono/internal/units"
	"chrono/internal/vm"
)

// Memtis's published settings.
const (
	// samplePeriod is the DS-area drain interval.
	samplePeriod = simclock.Second
	// coolingPeriods is the number of sample periods between counter
	// cooling events.
	coolingPeriods = 8
	// migratePeriod is the kmigrated cycle.
	migratePeriod = 2 * simclock.Second
	// splitBudget is the max huge-page splits per cycle — Memtis's
	// deliberately conservative splitting.
	splitBudget = 2
	// nBins is the histogram depth.
	nBins = 16
)

// Config holds Memtis's tunables.
type Config struct {
	// SampleRate is the PEBS budget in samples/second. When zero it
	// defaults to policy.PEBSBudget: the real 100k/s kernel cap divided
	// by the simulator's capacity scale, preserving the expected
	// per-page counter value.
	SampleRate units.Hz
}

// Policy is the Memtis baseline.
//
//chrono:statesync checkpointState
type Policy struct {
	policy.Base               //chrono:rebuilt stateless method set
	cfg         Config        //chrono:rebuilt configuration, finalized in Attach
	k           policy.Kernel //chrono:rebuilt kernel handle, re-bound by Attach
	sampler     *pebs.Sampler //chrono:state Sampler
	periods     int           //chrono:state Periods
	// cycles counts kmigrated invocations; it rotates the per-process
	// service order so the shared migration budget is shared fairly
	// without depending on map iteration order.
	cycles int //chrono:state Cycles

	// TransientSkips counts hot pages skipped in a kmigrated batch after
	// repeated transient migration aborts (retried next cycle).
	TransientSkips int64 //chrono:state TransientSkips

	scratch scratch          //chrono:rebuilt per-cycle scratch, refilled by every kmigrated
	work    policy.CycleWork //chrono:rebuilt test instrumentation, never read by a decision
}

// scratch is kmigrated's reusable per-cycle storage: a steady-state
// cycle allocates nothing.
type scratch struct {
	groups  policy.ProcGroups
	hist    pebs.Histogram
	binSize []int64
	hotSlow []*vm.Page
	huge    []*vm.Page
	cold    coldList
}

// New returns a Memtis policy.
func New(cfg Config) *Policy {
	return &Policy{cfg: cfg, scratch: scratch{
		hist:    pebs.Histogram{Bins: make([]int64, nBins)},
		binSize: make([]int64, nBins),
	}}
}

// Name implements policy.Policy.
func (p *Policy) Name() string { return "Memtis" }

// Sampler exposes the PEBS sampler (for the Figure 2b harness).
func (p *Policy) Sampler() *pebs.Sampler { return p.sampler }

// Attach implements policy.Policy.
func (p *Policy) Attach(k policy.Kernel) {
	p.k = k
	if p.cfg.SampleRate == 0 {
		p.cfg.SampleRate = policy.PEBSBudget(k)
	}
	p.sampler = pebs.NewSampler(k.RNG(), p.cfg.SampleRate)
	p.sampler.Grow(len(k.Pages()))
	k.Clock().EveryKey("memtis/sample", samplePeriod, func(now simclock.Time) {
		k.SamplePEBS(p.sampler, units.SecondsOf(samplePeriod))
		p.periods++
		if p.periods%coolingPeriods == 0 {
			p.sampler.Cool()
		}
	})
	k.Clock().EveryKey("memtis/migrate", migratePeriod, func(now simclock.Time) {
		p.kmigrated()
	})
}

// checkpointState is Memtis's serializable dynamic state.
type checkpointState struct {
	Sampler        pebs.SamplerState `json:"sampler"`
	Periods        int               `json:"periods"`
	Cycles         int               `json:"cycles"`
	TransientSkips int64             `json:"transient_skips"`
}

// CheckpointState implements policy.Checkpointable.
func (p *Policy) CheckpointState() (any, error) {
	return checkpointState{
		Sampler:        p.sampler.State(),
		Periods:        p.periods,
		Cycles:         p.cycles,
		TransientSkips: p.TransientSkips,
	}, nil
}

// RestoreCheckpoint implements policy.Checkpointable.
func (p *Policy) RestoreCheckpoint(data []byte) error {
	var st checkpointState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	p.sampler.SetState(st.Sampler)
	p.periods = st.Periods
	p.cycles = st.Cycles
	p.TransientSkips = st.TransientSkips
	return nil
}

// OnPageFreed implements policy.Policy (splits retire the huge page).
func (p *Policy) OnPageFreed(pg *vm.Page) { p.sampler.Clear(pg.ID) }

// kmigrated is the background classification + migration cycle.
func (p *Policy) kmigrated() {
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
		// Per-process histogram of counter bins weighted by page size.
		clear(sc.hist.Bins)
		clear(sc.binSize)
		var resident int64
		for _, pg := range pages {
			b := pebs.BinOf(p.sampler.Counter(pg.ID))
			if b >= nBins {
				b = nBins - 1
			}
			sc.hist.Add(p.sampler.Counter(pg.ID))
			sc.binSize[b] += int64(pg.Size)
			resident += int64(pg.Size)
		}
		// The process's DRAM entitlement is its proportional share.
		share := fastCap * resident / totalResident
		hotBin := sc.hist.HotThresholdBin(share, func(b int) int64 { return sc.binSize[b] })

		// Promote hot slow-tier pages, hottest first.
		sc.hotSlow = sc.hotSlow[:0]
		for _, pg := range pages {
			if pg.Tier == mem.SlowTier && pebs.BinOf(p.sampler.Counter(pg.ID)) >= hotBin {
				sc.hotSlow = append(sc.hotSlow, pg)
			}
		}
		slices.SortFunc(sc.hotSlow, func(a, b *vm.Page) int {
			return cmp.Compare(p.sampler.Counter(b.ID), p.sampler.Counter(a.ID))
		})
		sc.cold.built = false
		builds := p.work.ColdBuilds
		for _, pg := range sc.hotSlow {
			if budget < int(pg.Size) {
				break
			}
			p.demoteForSpace(pages, hotBin, int64(pg.Size))
			switch policy.RetryPromote(p.k, pg, 2) {
			case policy.MigrateOK:
				budget -= int(pg.Size)
			case policy.MigrateTransient:
				// Busy page even after the bounded retry: skip it and
				// keep migrating the rest of the batch; the next
				// kmigrated cycle reclassifies and retries it.
				p.TransientSkips++
			}
		}
		p.work.MaxBuilds = max(p.work.MaxBuilds, p.work.ColdBuilds-builds)

		// Conservative splitting of the hottest fast-tier huge pages.
		p.splitHot(pages, hotBin)
	}
}

// demoteForSpace demotes warm/cold fast-tier pages of the process,
// coldest first, when the fast tier lacks headroom for an incoming
// promotion. The process's cold list is built on the first call of the
// cycle that needs space and walked on from there by later calls.
func (p *Policy) demoteForSpace(pages []*vm.Page, hotBin int, need int64) {
	node := p.k.Node()
	if node.Free(mem.FastTier) >= node.Watermarks(mem.FastTier).High+need {
		return
	}
	cold := &p.scratch.cold
	if !cold.built {
		cold.build(pages, p.sampler, hotBin)
		p.work.ColdBuilds++
		p.work.Visited += int64(len(pages))
	}
	p.work.Visited += int64(cold.demote(p.k, need))
}

// coldList is one process's cold fast-tier pages for the current
// kmigrated cycle, coldest first, walked by a cursor across the cycle's
// promotions. Counters do not change within a cycle and promoted pages
// are hot, so one sort serves every promotion of the cycle: a fresh sort
// at any later call would yield exactly the pages still listed here, in
// this order. pages[:kept] are earlier failed demotions, retried first;
// pages[next:] have not been tried yet.
type coldList struct {
	pages      []*vm.Page
	kept, next int
	built      bool
}

// build lists the fast-tier pages below hotBin, ordered by counter
// ascending with ties broken by page ID, so the order is a total one
// that does not depend on the sort algorithm.
func (c *coldList) build(pages []*vm.Page, s *pebs.Sampler, hotBin int) {
	c.pages = c.pages[:0]
	for _, pg := range pages {
		if pg.Tier == mem.FastTier && pebs.BinOf(s.Counter(pg.ID)) < hotBin {
			c.pages = append(c.pages, pg)
		}
	}
	slices.SortFunc(c.pages, func(a, b *vm.Page) int {
		return cmp.Or(cmp.Compare(s.Counter(a.ID), s.Counter(b.ID)), cmp.Compare(a.ID, b.ID))
	})
	c.kept, c.next, c.built = 0, 0, true
}

// demote demotes listed pages in order until need base pages are freed
// or the list runs out, and returns the number of entries visited. Pages
// that left the fast tier since the build are dropped; pages whose
// demotion fails stay listed, ahead of the untried ones, so the next
// call retries them first.
func (c *coldList) demote(k policy.Migrator, need int64) (visited int) {
	var freed int64
	w, r := 0, 0 // w: failed pages kept so far; r: next entry to read
	for freed < need {
		if r == c.kept && r < c.next {
			r = c.next // earlier failures done; continue with untried pages
		}
		if r == len(c.pages) {
			break
		}
		pg := c.pages[r]
		r++
		visited++
		switch {
		case pg.Tier != mem.FastTier:
			// Already demoted (by kernel reclaim): drop it.
		case policy.RetryDemote(k, pg, 2) == policy.MigrateOK:
			freed += int64(pg.Size)
		default:
			c.pages[w] = pg
			w++
		}
	}
	if r <= c.kept {
		// Stopped among earlier failures: close the gap behind them.
		w += copy(c.pages[w:], c.pages[r:c.kept])
		c.kept = w
	} else {
		c.kept, c.next = w, r
	}
	return visited
}

// splitHot splits up to splitBudget of the process's hottest
// *under-utilized* huge pages — the ones whose PEBS address samples show
// accesses concentrated in a fraction of the region — letting subsequent
// sampling separate their hot and cold base regions.
func (p *Policy) splitHot(pages []*vm.Page, hotBin int) {
	huge := p.scratch.huge[:0]
	for _, pg := range pages {
		if pg.IsHuge() && pebs.BinOf(p.sampler.Counter(pg.ID)) >= hotBin+2 &&
			p.k.HugeUtilization(pg) < 0.6 {
			huge = append(huge, pg)
		}
	}
	p.scratch.huge = huge
	slices.SortFunc(huge, func(a, b *vm.Page) int {
		return cmp.Compare(p.sampler.Counter(b.ID), p.sampler.Counter(a.ID))
	})
	for i := 0; i < len(huge) && i < splitBudget; i++ {
		pg := huge[i]
		// Redistribute the region counter over the fragments so the
		// freshly split pages keep their aggregate hotness estimate
		// until per-fragment samples accumulate.
		per := p.sampler.Counter(pg.ID) / uint32(pg.Size)
		for _, np := range p.k.SplitHuge(pg) {
			if per > 0 {
				p.sampler.Grow(int(np.ID) + 1)
				p.sampler.AddDirect(np.ID, per)
			}
		}
	}
}

// OnFault implements policy.Policy. Memtis does not poison pages.
func (p *Policy) OnFault(pg *vm.Page, now simclock.Time) {}
