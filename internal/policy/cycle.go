package policy

import (
	"cmp"
	"slices"

	"chrono/internal/mem"
	"chrono/internal/units"
	"chrono/internal/vm"
)

// PEBSBudget is the PEBS sample budget of the PEBS-family baselines
// (Memtis, FlexMem, HeMem) on k: the real 100k/s hardware cap scaled so
// the expected counter of one simulated *huge* page equals the real
// per-huge-page counter, rate = 100k × 512 / (HugeFactor × CostScale),
// floored at 10/s. This preserves the paper's §2.3 regime at any
// simulator scale — huge-page counters are large and stable, base-page
// counters collapse toward zero (Figure 2b), because the base:huge
// counter ratio is the fold factor in both worlds.
func PEBSBudget(k Kernel) units.Hz {
	return max(units.Hz(100000*512/(float64(k.HugeFactor())*k.CostScale())), 10)
}

// CycleBatch is the per-cycle migration cap, in base pages, of the
// background-cycle baselines (Memtis, FlexMem, HeMem, Telescope) on k:
// 1/32 of the fast tier, but at least one huge page, or huge-page
// promotion starves on small tiers.
func CycleBatch(k Kernel) int {
	return max(int(k.Node().Capacity(mem.FastTier)/32), k.HugeFactor())
}

// ProcPages is one process's resident pages, in page-table (ID) order.
type ProcPages struct {
	Proc  *vm.Process
	Pages []*vm.Page
}

// ProcGroups groups the resident page table by process for a policy's
// background cycle (Memtis kmigrated, FlexMem's background pass). Its
// map and slices persist across cycles, so a steady-state cycle regroups
// without allocating. The zero value is ready to use.
type ProcGroups struct {
	slot  map[*vm.Process]int // process -> index into all
	all   []ProcPages         // every process seen so far; Pages refilled per cycle
	order []ProcPages         // the current cycle's service order
}

// Group regroups pages (a dense page table, nil for freed IDs) by process
// and returns the total resident size in base pages.
func (g *ProcGroups) Group(pages []*vm.Page) (resident int64) {
	if g.slot == nil {
		g.slot = make(map[*vm.Process]int)
	}
	for i := range g.all {
		g.all[i].Pages = g.all[i].Pages[:0]
	}
	// A process's pages are mostly contiguous in the table, so the last
	// slot spares most map lookups.
	var last *vm.Process
	cur := -1
	for _, pg := range pages {
		if pg == nil {
			continue
		}
		if pg.Proc != last {
			i, ok := g.slot[pg.Proc]
			if !ok {
				i = len(g.all)
				g.slot[pg.Proc] = i
				g.all = append(g.all, ProcPages{Proc: pg.Proc})
			}
			last, cur = pg.Proc, i
		}
		g.all[cur].Pages = append(g.all[cur].Pages, pg)
		resident += int64(pg.Size)
	}
	return resident
}

// Order returns the processes with resident pages in service order: by
// PID, rotated to start at index rotation mod n. A shared migration
// budget is consumed in this order, so it must not depend on map
// iteration, and rotating the start each cycle keeps any one process from
// being systematically first in line (kernel cgroup walks resume
// round-robin the same way; unrotated, the lowest PID would hoard the
// budget). The slice is reused by the next call.
func (g *ProcGroups) Order(rotation int) []ProcPages {
	g.order = g.order[:0]
	for _, pp := range g.all {
		if len(pp.Pages) > 0 {
			g.order = append(g.order, pp)
		}
	}
	n := len(g.order)
	if n == 0 {
		return g.order
	}
	slices.SortFunc(g.order, func(a, b ProcPages) int { return cmp.Compare(a.Proc.PID, b.Proc.PID) })
	// Rotate left by start with three reversals.
	start := rotation % n
	slices.Reverse(g.order[:start])
	slices.Reverse(g.order[start:])
	slices.Reverse(g.order)
	return g.order
}

// CycleWork counts the candidate work of a policy's background cycles.
// It is instrumentation for complexity tests: policies never checkpoint
// it and no decision reads it.
type CycleWork struct {
	// Cycles counts background cycles that found resident pages.
	Cycles int64
	// ColdBuilds counts builds of a process's cold fast-tier list.
	ColdBuilds int64
	// MaxBuilds is the most cold-list builds for one process in one cycle.
	MaxBuilds int64
	// Visited counts candidate pages examined: pages filtered while
	// building candidate lists plus list entries walked.
	Visited int64
}
