// Package policytest provides the shared scaffolding for baseline-policy
// integration tests: a small deterministic engine with a known two-level
// access pattern (a clearly hot head and a cold tail) plus helpers to
// evaluate placement quality.
package policytest

import (
	"testing"

	"chrono/internal/engine"
	"chrono/internal/mem"
	"chrono/internal/policy"
	"chrono/internal/simclock"
	"chrono/internal/units"
	"chrono/internal/vm"
)

// World is a ready-to-run test system.
type World struct {
	Engine *engine.Engine
	Proc   *vm.Process
	// HotPages is the number of leading pages that carry HotWeight each;
	// the rest carry 1.
	HotPages  uint64
	HotWeight float64
}

// Build creates a world: 4 GB fast + 12 GB slow (1024 + 3072 pages at
// scale 256), one process with `total` pages of which the first `hot`
// carry weight 50. The hot head does not fit in the initially-fast
// region, so a correct policy must migrate.
func Build(t *testing.T, pol policy.Policy, total, hot uint64, mode engine.PageSizeMode) *World {
	t.Helper()
	return BuildScaled(t, pol, 1, total, hot, mode)
}

// BuildScaled is Build with both tiers and the migration bandwidth
// scaled by factor scale (scale×4 GB fast + scale×12 GB slow), for tests
// that compare a policy's work across table sizes.
func BuildScaled(t testing.TB, pol policy.Policy, scale int, total, hot uint64, mode engine.PageSizeMode) *World {
	t.Helper()
	e := engine.New(engine.Config{
		Seed:             77,
		FastGB:           units.GB(4 * scale),
		SlowGB:           units.GB(12 * scale),
		MigrationBWBytes: units.BytesPerSec(scale) * engine.DefaultMigrationBW,
	})
	p := vm.NewProcess(1, "wl", total)
	start := p.VMAs()[0].Start
	for i := uint64(0); i < total; i++ {
		w := 1.0
		// The hot region sits at the END of the address space, so the
		// initial fast-tier fill (front of the space) holds cold pages.
		if i >= total-hot {
			w = 50
		}
		p.SetPattern(start+i, w, 0.7)
	}
	e.AddProcess(p, 2)
	if err := e.MapAll(mode); err != nil {
		t.Fatal(err)
	}
	e.AttachPolicy(pol)
	return &World{Engine: e, Proc: p, HotPages: hot, HotWeight: 50}
}

// Pressured builds a base-page world at the given scale whose footprint
// is twice the fast tier, with the hot quarter starting in the slow tier:
// every promotion needs a demotion first. Tests of how a policy's cycle
// cost grows with the table compare Pressured worlds at two scales.
func Pressured(t testing.TB, pol policy.Policy, scale int) *World {
	t.Helper()
	return BuildScaled(t, pol, scale, uint64(2048*scale), uint64(512*scale), engine.BasePages)
}

// Run advances virtual time.
func (w *World) Run(d simclock.Duration) *engine.Metrics {
	return w.Engine.Run(d)
}

// HotResidency reports the fraction of hot pages resident in the fast
// tier.
func (w *World) HotResidency() float64 {
	start := w.Proc.VMAs()[0].Start
	total := w.Proc.VMAs()[0].Len
	var fast, all float64
	for i := total - w.HotPages; i < total; i++ {
		pg := w.Proc.PageAt(start + i)
		if pg == nil {
			continue
		}
		all++
		if pg.Tier == mem.FastTier {
			fast++
		}
	}
	if all == 0 {
		return 0
	}
	return fast / all
}
