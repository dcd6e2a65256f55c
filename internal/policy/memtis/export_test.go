package memtis

import (
	"chrono/internal/pebs"
	"chrono/internal/policy"
	"chrono/internal/vm"
)

// Work returns the policy's background-cycle work counters.
func (p *Policy) Work() policy.CycleWork { return p.work }

// Cycle runs one kmigrated cycle now.
func (p *Policy) Cycle() { p.kmigrated() }

// ColdList exposes the cold-list cursor.
type ColdList struct{ c coldList }

// Build lists pages' cold fast-tier pages, coldest first.
func (l *ColdList) Build(pages []*vm.Page, s *pebs.Sampler, hotBin int) { l.c.build(pages, s, hotBin) }

// Demote walks the list until need base pages are freed.
func (l *ColdList) Demote(k policy.Migrator, need int64) int { return l.c.demote(k, need) }
