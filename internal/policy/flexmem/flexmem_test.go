package flexmem_test

import (
	"testing"

	"chrono/internal/engine"
	"chrono/internal/policy/flexmem"
	"chrono/internal/policy/policytest"
	"chrono/internal/simclock"
	"chrono/internal/units"
)

// TestHybridChannels: FlexMem uses both PEBS and hint faults — faults
// occur (unlike Memtis) and some promotions take the timely fault path.
func TestHybridChannels(t *testing.T) {
	pol := flexmem.New(flexmem.Config{})
	w := policytest.Build(t, pol, 3072, 512, engine.HugePages)
	m := w.Run(600 * simclock.Second)
	if m.Faults == 0 {
		t.Fatal("no hint faults: the fault channel is dead")
	}
	if m.Promotions == 0 {
		t.Fatal("no promotions")
	}
	if res := w.HotResidency(); res < 0.3 {
		t.Fatalf("hot residency %.2f", res)
	}
}

// TestTimelyPathFiresAfterClassification: the fault path promotes only
// once a background classification exists, then accounts its promotions.
func TestTimelyPathFiresAfterClassification(t *testing.T) {
	pol := flexmem.New(flexmem.Config{})
	w := policytest.Build(t, pol, 3072, 512, engine.HugePages)
	w.Run(600 * simclock.Second)
	if pol.TimelyPromotions == 0 {
		t.Fatal("no timely (fault-path) promotions in 10 minutes")
	}
}

// TestFlexMemBeatsPureBackgroundOnDrift: after a sudden hotspot move, the
// timely path reacts within a scan pass.
func TestReactsToHotspotMove(t *testing.T) {
	pol := flexmem.New(flexmem.Config{})
	w := policytest.Build(t, pol, 3072, 512, engine.HugePages)
	w.Run(400 * simclock.Second)
	before := pol.TimelyPromotions
	// Move the hotspot: swap hot/cold weights.
	p := w.Proc
	start := p.VMAs()[0].Start
	for i := uint64(0); i < 3072; i++ {
		wgt := 50.0
		if i >= 3072-512 {
			wgt = 1.0
		} else if i >= 512 {
			wgt = 1.0
		}
		p.SetPattern(start+i, wgt, 0.7)
	}
	w.Engine.FlushPattern(p)
	w.Run(400 * simclock.Second)
	if pol.TimelyPromotions <= before {
		t.Fatal("no timely promotions after the hotspot moved")
	}
}

// pressured is a policytest.Pressured world; the PEBS budget scales with
// the table so per-page counters, and so the hot set, scale with it too.
func pressured(t *testing.T, scale int) (*policytest.World, *flexmem.Policy) {
	pol := flexmem.New(flexmem.Config{SampleRate: units.Hz(800 * scale)})
	return policytest.Pressured(t, pol, scale), pol
}

// TestCycleWorkLinear is the complexity fence: one candidate-list build
// per process per cycle, and doubling the table at most about doubles
// the candidates a cycle visits.
func TestCycleWorkLinear(t *testing.T) {
	perCycle := func(scale int) float64 {
		w, pol := pressured(t, scale)
		w.Run(120 * simclock.Second)
		work := pol.Work()
		if work.Cycles == 0 {
			t.Fatalf("scale %d: no background cycles", scale)
		}
		if work.MaxBuilds > 1 {
			t.Fatalf("scale %d: cold list built %d times in one process-cycle", scale, work.MaxBuilds)
		}
		return float64(work.Visited) / float64(work.Cycles)
	}
	n, n2 := perCycle(2), perCycle(4)
	t.Logf("candidates visited per cycle: %.0f at N, %.0f at 2N", n, n2)
	if n2 > 2.2*n {
		t.Fatalf("candidates visited per cycle grew %.2fx for 2x pages (%.0f -> %.0f)", n2/n, n, n2)
	}
}

// TestCycleAllocsFlat: a steady-state background cycle reuses its
// scratch, so its allocations do not grow with the page count.
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
