package memtis_test

import (
	"cmp"
	"slices"
	"testing"

	"chrono/internal/engine"
	"chrono/internal/mem"
	"chrono/internal/pebs"
	"chrono/internal/policy"
	"chrono/internal/policy/memtis"
	"chrono/internal/policy/policytest"
	"chrono/internal/rng"
	"chrono/internal/simclock"
	"chrono/internal/units"
	"chrono/internal/vm"
)

// TestSamplingDrivesPromotion: with huge pages (its default deployment)
// Memtis identifies and promotes the hot region from PEBS counters alone
// — no hint faults.
func TestSamplingDrivesPromotion(t *testing.T) {
	w := policytest.Build(t, memtis.New(memtis.Config{}), 3072, 512, engine.HugePages)
	m := w.Run(600 * simclock.Second)
	if m.Faults != 0 {
		t.Fatalf("%v hint faults under Memtis", m.Faults)
	}
	if m.Promotions == 0 {
		t.Fatal("no promotions from PEBS classification")
	}
	if res := w.HotResidency(); res < 0.4 {
		t.Fatalf("hot residency %.2f", res)
	}
	pol := w.Engine.Policy().(*memtis.Policy)
	if pol.Sampler().TotalSamples() == 0 {
		t.Fatal("sampler collected nothing")
	}
}

// TestBasePageInstability: at base-page granularity the same sample
// budget spreads over HugeFactor× more pages, so per-page counters
// collapse (Figure 2b) and placement quality degrades.
func TestBasePageInstability(t *testing.T) {
	huge := policytest.Build(t, memtis.New(memtis.Config{}), 3072, 512, engine.HugePages)
	base := policytest.Build(t, memtis.New(memtis.Config{}), 3072, 512, engine.BasePages)
	huge.Run(600 * simclock.Second)
	base.Run(600 * simclock.Second)
	hp := huge.Engine.Policy().(*memtis.Policy)
	bp := base.Engine.Policy().(*memtis.Policy)
	// The share of resident pages whose counter clears the stable-
	// classification bar (count >= 8, bin#4 of Figure 2b) must be far
	// larger under huge pages.
	stableShare := func(w interface{}, pol *memtis.Policy, pages []*struct{}) float64 { return 0 }
	_ = stableShare
	share := func(e *engine.Engine, pol *memtis.Policy) float64 {
		var stable, total float64
		for _, pg := range e.Pages() {
			if pg == nil {
				continue
			}
			total++
			if pol.Sampler().Counter(pg.ID) >= 8 {
				stable++
			}
		}
		if total == 0 {
			return 0
		}
		return stable / total
	}
	hs := share(huge.Engine, hp)
	bs := share(base.Engine, bp)
	if hs < bs*4 || hs == 0 {
		t.Fatalf("stable-counter share: huge %.3f vs base %.3f", hs, bs)
	}
}

// TestSplittingIsConservative: splits happen, but only a handful per
// cycle.
func TestSplittingIsConservative(t *testing.T) {
	w := policytest.Build(t, memtis.New(memtis.Config{}), 3072, 512, engine.HugePages)
	before := len(w.Engine.Pages())
	w.Run(600 * simclock.Second)
	after := len(w.Engine.Pages())
	grew := after - before
	// 600s = 300 kmigrated cycles × split budget 2 × HugeFactor new
	// pages max; conservative splitting stays well under a full unfold.
	if grew > 0 && grew >= 3072 {
		t.Fatalf("splitting unfolded everything: %d new pages", grew)
	}
}

// flakyDemoter is a fake kernel: TryDemote logs every attempt and fails
// transiently while a page has failures left, else moves it slow.
type flakyDemoter struct {
	fails map[int64]int
	log   []int64
}

func (k *flakyDemoter) TryPromote(pg *vm.Page) policy.MigrateResult { return policy.MigrateOK }

func (k *flakyDemoter) TryDemote(pg *vm.Page) policy.MigrateResult {
	k.log = append(k.log, pg.ID)
	if k.fails[pg.ID] > 0 {
		k.fails[pg.ID]--
		return policy.MigrateTransient
	}
	pg.Tier = mem.SlowTier
	return policy.MigrateOK
}

// referenceDemote rebuilds the cold list on every call: it lists the
// cold fast-tier pages afresh, stable-sorts them by (counter, ID) and
// walks them until need base pages are freed.
func referenceDemote(k *flakyDemoter, pages []*vm.Page, s *pebs.Sampler, hotBin int, need int64) {
	var cold []*vm.Page
	for _, pg := range pages {
		if pg.Tier == mem.FastTier && pebs.BinOf(s.Counter(pg.ID)) < hotBin {
			cold = append(cold, pg)
		}
	}
	slices.SortStableFunc(cold, func(a, b *vm.Page) int {
		return cmp.Or(cmp.Compare(s.Counter(a.ID), s.Counter(b.ID)), cmp.Compare(a.ID, b.ID))
	})
	var freed int64
	for _, pg := range cold {
		if freed >= need {
			return
		}
		if policy.RetryDemote(k, pg, 2) == policy.MigrateOK {
			freed += int64(pg.Size)
		}
	}
}

// TestColdCursorMatchesRebuild: one sort plus a cursor demotes the same
// pages in the same order as rebuilding and re-sorting the cold list on
// every promotion — including pages that fail transiently (retried by
// the next call, never skipped) and pages the kernel reclaims between
// calls.
func TestColdCursorMatchesRebuild(t *testing.T) {
	const n, hotBin = 400, 4
	r := rng.New(9)
	type world struct {
		pages []*vm.Page
		k     *flakyDemoter
	}
	mk := func() world {
		w := world{k: &flakyDemoter{fails: map[int64]int{}}}
		tr := rng.New(3) // identical tables and failure scripts
		for id := int64(0); id < n; id++ {
			pg := &vm.Page{ID: id, Size: 1, Tier: mem.FastTier}
			switch x := tr.Intn(10); {
			case x == 0:
				pg.Tier = mem.SlowTier
			case x == 1:
				pg.Size = 4
			}
			if tr.Intn(6) == 0 {
				w.k.fails[id] = 1 + tr.Intn(5) // RetryDemote spends 2 per call
			}
			w.pages = append(w.pages, pg)
		}
		return w
	}
	s := pebs.NewSampler(rng.New(1), 100)
	s.Grow(n)
	for id := int64(0); id < n; id++ {
		// Few distinct counters, so most comparisons are ties; some
		// pages are hot (bin >= hotBin) and never listed.
		if c := uint32(r.Intn(12)); c > 0 {
			s.AddDirect(id, c)
		}
	}
	ref, cur := mk(), mk()
	var cl memtis.ColdList
	cl.Build(cur.pages, s, hotBin)
	for call := 0; call < 120; call++ {
		need := int64(1 + r.Intn(6))
		if call%7 == 3 {
			// Kernel reclaim demotes a page behind the policy's back.
			id := r.Intn(n)
			ref.pages[id].Tier, cur.pages[id].Tier = mem.SlowTier, mem.SlowTier
		}
		referenceDemote(ref.k, ref.pages, s, hotBin, need)
		cl.Demote(cur.k, need)
		if !slices.Equal(ref.k.log, cur.k.log) {
			t.Fatalf("call %d: demotion attempts diverge\nrebuild %v\ncursor  %v", call, ref.k.log, cur.k.log)
		}
	}
	if len(cur.k.log) < n/2 {
		t.Fatalf("only %d demotion attempts: the script exercised too little", len(cur.k.log))
	}
}

// TestColdCursorRetriesFailedPage: a page whose demotion fails stays at
// the head of the list, so the next promotion retries it first.
func TestColdCursorRetriesFailedPage(t *testing.T) {
	s := pebs.NewSampler(rng.New(1), 100)
	s.Grow(3)
	s.AddDirect(1, 1)
	s.AddDirect(2, 2)
	pages := []*vm.Page{
		{ID: 0, Size: 1, Tier: mem.FastTier},
		{ID: 1, Size: 1, Tier: mem.FastTier},
		{ID: 2, Size: 1, Tier: mem.FastTier},
	}
	k := &flakyDemoter{fails: map[int64]int{0: 2}} // page 0 fails one RetryDemote
	var cl memtis.ColdList
	cl.Build(pages, s, 4)
	cl.Demote(k, 1) // 0 fails twice, 1 demotes
	cl.Demote(k, 1) // 0 retried first, demotes
	cl.Demote(k, 1) // 2
	if want := []int64{0, 0, 1, 0, 2}; !slices.Equal(k.log, want) {
		t.Fatalf("demotion attempts %v, want %v", k.log, want)
	}
}

// pressured is a policytest.Pressured world; the PEBS budget scales with
// the table so per-page counters, and so the hot set, scale with it too.
func pressured(t *testing.T, scale int) (*policytest.World, *memtis.Policy) {
	pol := memtis.New(memtis.Config{SampleRate: units.Hz(800 * scale)})
	return policytest.Pressured(t, pol, scale), pol
}

// TestCycleWorkLinear is the complexity fence: the cold list is built at
// most once per process per cycle, and doubling the table at most about
// doubles the candidates a cycle visits (a per-promotion rebuild
// quadruples them: twice the promotions, each over twice the pages).
func TestCycleWorkLinear(t *testing.T) {
	perCycle := func(scale int) float64 {
		w, pol := pressured(t, scale)
		w.Run(120 * simclock.Second)
		work := pol.Work()
		if work.ColdBuilds == 0 || work.Cycles == 0 {
			t.Fatalf("scale %d: no demotion pressure (%+v)", scale, work)
		}
		if work.MaxBuilds > 1 {
			t.Fatalf("scale %d: cold list built %d times in one process-cycle", scale, work.MaxBuilds)
		}
		return float64(work.Visited) / float64(work.Cycles)
	}
	// Scale 2 is the smallest table whose batch (fast/32) clears the
	// one-huge-page floor, so the batch doubles with the table from there.
	n, n2 := perCycle(2), perCycle(4)
	t.Logf("candidates visited per cycle: %.0f at N, %.0f at 2N", n, n2)
	if n2 > 2.2*n {
		t.Fatalf("candidates visited per cycle grew %.2fx for 2x pages (%.0f -> %.0f)", n2/n, n, n2)
	}
}

// TestCycleAllocsFlat: a steady-state kmigrated cycle reuses its scratch,
// so its allocations do not grow with the page count.
func TestCycleAllocsFlat(t *testing.T) {
	allocs := func(scale int) float64 {
		w, pol := pressured(t, scale)
		w.Run(60 * simclock.Second)
		return testing.AllocsPerRun(5, pol.Cycle)
	}
	n, n2 := allocs(2), allocs(4)
	t.Logf("allocs per cycle: %.0f at N, %.0f at 2N", n, n2)
	if n2 > n {
		t.Fatalf("allocs per cycle grew with the table: %.0f at N, %.0f at 2N", n, n2)
	}
}
