package core

import (
	"testing"

	"chrono/internal/mem"
	"chrono/internal/simclock"
	"chrono/internal/vm"
)

// TestFaultPathAndDrainAllocateNothing fences the candidate filter and
// the promotion queue at zero allocations in steady state: candidate
// state lives in dense per-page columns and a capacity-refused head
// stays in place.
func TestFaultPathAndDrainAllocateNothing(t *testing.T) {
	c, k := attach(t, quietOptions())
	pg := k.addPage(mem.SlowTier, 1)
	c.grow()
	c.queue = make([]int64, 0, 8)
	id := pg.ID
	// fault delivers one Ticking-scan fault with the given CIT.
	fault := func(cit simclock.Duration) {
		now := k.clock.Now()
		pg.ProtTS = now - cit
		c.OnFault(pg, now)
	}
	hot, cold := 3*simclock.Millisecond, 5*simclock.Second

	for _, tc := range []struct {
		name  string
		run   func()
		check func() bool
	}{
		{"first-round pass", func() { c.passes[id] = 0; fault(hot) },
			func() bool { return c.passes[id] == 1 && pg.Flags.Has(vm.FlagCandidate) }},
		{"failed round", func() { c.passes[id] = 1; fault(cold) },
			func() bool { return c.passes[id] == 0 && c.FilteredOut > 0 }},
		{"second-round submission", func() { c.passes[id] = 1; c.queue = c.queue[:0]; fault(hot) },
			func() bool { return c.passes[id] == 0 && len(c.queue) == 1 && c.queue[0] == id }},
		{"drain hits no capacity", func() {
			k.promoteOK = func(*vm.Page) bool { return false }
			c.queue = append(c.queue[:0], id)
			c.drainQueue(k.clock.Now())
		}, func() bool { return len(c.queue) == 1 && c.queue[0] == id && len(k.promotes) == 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if n := testing.AllocsPerRun(100, tc.run); n != 0 {
				t.Fatalf("%v allocs per call, want 0", n)
			}
			if !tc.check() {
				t.Fatal("the call did not take the intended path")
			}
		})
	}
}
