// Package hemem implements the HeMem baseline (Raybuck et al., SOSP '21):
// PEBS-driven tiering with *fixed* classification thresholds, the design
// the paper contrasts with Memtis's histogram and Chrono's dynamic CIT
// statistics (§2.3: "HeMem utilizes PEBS counters to represent the memory
// access frequency and classify hot and cold pages based on fixed
// thresholds").
//
// A page whose sample counter reaches HotThreshold is promoted; fast-tier
// pages whose counter stays at or below coldThreshold are demotion
// candidates under watermark pressure. Counters cool periodically. Because the
// thresholds never adapt, the classification quality depends entirely on
// how well the constants happen to match the workload — HeMem's known
// limitation.
package hemem

import (
	"sort"

	"chrono/internal/mem"
	"chrono/internal/pebs"
	"chrono/internal/policy"
	"chrono/internal/simclock"
	"chrono/internal/units"
	"chrono/internal/vm"
)

// HeMem's published settings.
const (
	// samplePeriod is the DS-area drain interval.
	samplePeriod = simclock.Second
	// coldThreshold is the count at or below which a fast page is a
	// demotion candidate.
	coldThreshold uint32 = 1
	// coolingPeriods is the sample periods between counter halvings.
	coolingPeriods = 8
	// migratePeriod is the background migration cycle.
	migratePeriod = 2 * simclock.Second
)

// Config holds HeMem's tunables.
type Config struct {
	// HotThreshold is the fixed sample count above which a page is hot
	// (HeMem's default is in the 2^5..2^15 band the paper cites; 8 at
	// the simulator's scaled budget).
	HotThreshold uint32
}

// Policy is the HeMem baseline.
type Policy struct {
	policy.Base
	cfg     Config
	k       policy.Kernel
	sampler *pebs.Sampler
	periods int
}

// New returns a HeMem policy.
func New(cfg Config) *Policy {
	if cfg.HotThreshold == 0 {
		cfg.HotThreshold = 8
	}
	return &Policy{cfg: cfg}
}

// Name implements policy.Policy.
func (p *Policy) Name() string { return "HeMem" }

// Sampler exposes the PEBS sampler for tests.
func (p *Policy) Sampler() *pebs.Sampler { return p.sampler }

// Attach implements policy.Policy.
func (p *Policy) Attach(k policy.Kernel) {
	p.k = k
	p.sampler = pebs.NewSampler(k.RNG(), policy.PEBSBudget(k))
	p.sampler.Grow(len(k.Pages()))
	k.Clock().Every(samplePeriod, func(now simclock.Time) {
		k.SamplePEBS(p.sampler, units.SecondsOf(samplePeriod))
		p.periods++
		if p.periods%coolingPeriods == 0 {
			p.sampler.Cool()
		}
	})
	k.Clock().Every(migratePeriod, func(now simclock.Time) {
		p.migrate()
	})
}

// OnPageFreed implements policy.Policy.
func (p *Policy) OnPageFreed(pg *vm.Page) { p.sampler.Clear(pg.ID) }

// migrate applies the fixed-threshold classification.
func (p *Policy) migrate() {
	var hotSlow, coldFast []*vm.Page
	for _, pg := range p.k.Pages() {
		if pg == nil {
			continue
		}
		c := p.sampler.Counter(pg.ID)
		switch {
		case pg.Tier == mem.SlowTier && c >= p.cfg.HotThreshold:
			hotSlow = append(hotSlow, pg)
		case pg.Tier == mem.FastTier && c <= coldThreshold:
			coldFast = append(coldFast, pg)
		}
	}
	sort.Slice(hotSlow, func(i, j int) bool {
		return p.sampler.Counter(hotSlow[i].ID) > p.sampler.Counter(hotSlow[j].ID)
	})
	sort.Slice(coldFast, func(i, j int) bool {
		return p.sampler.Counter(coldFast[i].ID) < p.sampler.Counter(coldFast[j].ID)
	})

	node := p.k.Node()
	budget := policy.CycleBatch(p.k)
	demoteIdx := 0
	for _, pg := range hotSlow {
		if budget < int(pg.Size) {
			break
		}
		// Make room from the cold list before promoting.
		for node.Free(mem.FastTier) < node.Watermarks(mem.FastTier).High+int64(pg.Size) &&
			demoteIdx < len(coldFast) {
			p.k.Demote(coldFast[demoteIdx])
			demoteIdx++
		}
		if p.k.Promote(pg) {
			budget -= int(pg.Size)
		}
	}
	// Watermark maintenance: drain remaining cold pages under pressure.
	for node.BelowHigh(mem.FastTier) && demoteIdx < len(coldFast) {
		p.k.Demote(coldFast[demoteIdx])
		demoteIdx++
	}
}

// OnFault implements policy.Policy. HeMem does not poison pages.
func (p *Policy) OnFault(pg *vm.Page, now simclock.Time) {}
