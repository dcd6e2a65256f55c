package policy

import (
	"slices"
	"testing"

	"chrono/internal/vm"
)

// TestProcGroupsOrder: groups keep page-table order within a process,
// skip processes with nothing resident, and serve processes by PID
// rotated by the cycle count — the order the budget is shared in.
func TestProcGroupsOrder(t *testing.T) {
	procs := []*vm.Process{{PID: 30}, {PID: 10}, {PID: 20}, {PID: 40}}
	var pages []*vm.Page
	for id, pi := range []int{0, 1, 0, 2, 1, 0, 2} {
		pages = append(pages, &vm.Page{ID: int64(id), Proc: procs[pi], Size: 1})
	}
	pages = append(pages, nil)
	var g ProcGroups
	if got := g.Group(pages); got != 7 {
		t.Fatalf("resident %d, want 7", got)
	}
	pids := func(order []ProcPages) (out []int) {
		for _, pp := range order {
			out = append(out, pp.Proc.PID)
		}
		return out
	}
	for rot, want := range [][]int{{10, 20, 30}, {20, 30, 10}, {30, 10, 20}, {10, 20, 30}} {
		if got := pids(g.Order(rot)); !slices.Equal(got, want) {
			t.Fatalf("rotation %d: order %v, want %v", rot, got, want)
		}
	}
	for _, pp := range g.Order(0) {
		if pp.Proc.PID == 30 {
			var ids []int64
			for _, pg := range pp.Pages {
				ids = append(ids, pg.ID)
			}
			if want := []int64{0, 2, 5}; !slices.Equal(ids, want) {
				t.Fatalf("PID 30 pages %v, want %v", ids, want)
			}
		}
	}
	// A process whose pages all left drops out of the next cycle.
	g.Group(pages[:3])
	if got := pids(g.Order(0)); !slices.Equal(got, []int{10, 30}) {
		t.Fatalf("after regroup: order %v, want [10 30]", got)
	}
	if n := testing.AllocsPerRun(10, func() { g.Group(pages); g.Order(1) }); n != 0 {
		t.Fatalf("steady-state regroup allocates %.0f times", n)
	}
	var empty ProcGroups
	if empty.Group(nil) != 0 || len(empty.Order(3)) != 0 {
		t.Fatal("empty page table: want no groups")
	}
}
