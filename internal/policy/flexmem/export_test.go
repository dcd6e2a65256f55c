package flexmem

import "chrono/internal/policy"

// Work returns the policy's background-cycle work counters.
func (p *Policy) Work() policy.CycleWork { return p.work }

// Cycle runs one background cycle now.
func (p *Policy) Cycle() { p.background() }
