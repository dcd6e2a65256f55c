package autotiering_test

import (
	"testing"

	"chrono/internal/engine"
	"chrono/internal/policy/autotiering"
	"chrono/internal/policy/policytest"
	"chrono/internal/simclock"
)

// TestLAPGatedPromotion: a page needs promoteThreshold bits of fault
// history before opportunistic promotion, so the first pass promotes
// nothing.
func TestLAPGatedPromotion(t *testing.T) {
	w := policytest.Build(t, autotiering.New(autotiering.Config{}), 3000, 500, engine.BasePages)
	m := w.Run(65 * simclock.Second)
	if m.Promotions != 0 {
		t.Fatalf("%d promotions within the first scan pass (LAP should gate)", m.Promotions)
	}
	m = w.Run(300 * simclock.Second)
	if m.Promotions == 0 {
		t.Fatal("no promotions once LAP history accumulated")
	}
	if res := w.HotResidency(); res < 0.5 {
		t.Fatalf("hot residency %.2f", res)
	}
}

// TestHighKernelOverhead: maintaining the LAP vectors across all pages
// costs significant kernel time — the 14.1% characteristic of Figure 8.
func TestHighKernelOverhead(t *testing.T) {
	at := policytest.Build(t, autotiering.New(autotiering.Config{}), 3000, 500, engine.BasePages)
	mAT := at.Run(300 * simclock.Second)
	if mAT.KernelNS == 0 {
		t.Fatal("no kernel time charged")
	}
	// The background LAP pass alone must charge more kernel time than
	// the fault path: compare against a run with a huge LAP cost zeroed
	// out via config.
	cheap := policytest.Build(t, autotiering.New(autotiering.Config{LAPMaintainNS: 0.001}), 3000, 500, engine.BasePages)
	mCheap := cheap.Run(300 * simclock.Second)
	if mAT.KernelTimeFrac() <= mCheap.KernelTimeFrac() {
		t.Fatalf("LAP maintenance cost invisible: %v vs %v",
			mAT.KernelTimeFrac(), mCheap.KernelTimeFrac())
	}
}

// TestBackgroundDemotionUnderPressure: pages with empty LAP vectors are
// demoted when the fast tier is short.
func TestBackgroundDemotion(t *testing.T) {
	w := policytest.Build(t, autotiering.New(autotiering.Config{}), 3500, 600, engine.BasePages)
	m := w.Run(400 * simclock.Second)
	if m.Demotions == 0 {
		t.Fatal("no demotions despite fast-tier pressure")
	}
}
