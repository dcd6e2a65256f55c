package core

import (
	"encoding/json"
	"strings"
	"testing"

	"chrono/internal/mem"
	"chrono/internal/simclock"
	"chrono/internal/vm"
)

// ckptFixture builds a Chrono on the fake kernel holding two candidates,
// one of them on a huge page later freed by a split, and one queued page
// with a transient-abort retry count. Its CheckpointState is pinned by
// ckptGolden.
func ckptFixture(t *testing.T) (*Chrono, *fakeKernel) {
	t.Helper()
	c, k := attach(t, quietOptions())
	a := k.addPage(mem.SlowTier, 1)
	huge := k.addPage(mem.SlowTier, 64)
	busy := k.addPage(mem.SlowTier, 1)
	// Qualify the higher ID first: the checkpoint lists candidates in
	// page-ID order, not insertion order.
	for _, pg := range []*vm.Page{huge, a} {
		k.Protect(pg)
		k.advance(3 * simclock.Millisecond)
		k.fault(c, pg)
	}
	k.pages[huge.ID] = nil // split away; the candidate waits for expiry
	c.queue = append(c.queue, busy.ID)
	k.transient = func(*vm.Page) bool { return true }
	c.drainQueue(k.clock.Now())
	k.transient = nil
	return c, k
}

// ckptGolden pins ckptFixture's checkpoint bytes: engine.ckpt files embed
// this layout, candidates and retry counts in page-ID order.
const ckptGolden = `{"threshold_ms":1000,"rate_limit_bps":100000000,"delta_step":0.5,"p_victim":0.002,"thrash_threshold":0.2,` +
	`"cands":[{"id":1,"passes":1,"last_cit":3000000,"stamp":6000000},{"id":2,"passes":1,"last_cit":3000000,"stamp":3000000}],` +
	`"queue":[3],"enqueued_bytes":0,"enqueue_rate_ema":0,"promoted_pages":0,"thrash_events":0,"retries":[{"id":3,"n":1}],` +
	`"heat":[[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]],` +
	`"samples":[0,0],"threshold_hist":{"t":[0],"v":[1000]},"rate_limit_hist":{"t":[0],"v":[100]},` +
	`"enqueued":0,"promoted":0,"demoted":0,"thrash_total":0,"dcsc_samples":0,"filtered_out":0,"queue_dropped":0,"retry_dropped":0,` +
	`"scan":{"period":1125899906842624,"walkers":[{"vma":0,"next":4096,"passes":0}]}}`

func ckptBytes(t *testing.T, c *Chrono) string {
	t.Helper()
	st, err := c.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// ckptTarget is a freshly attached Chrono over ckptFixture's page table.
func ckptTarget(t *testing.T) *Chrono {
	t.Helper()
	c, k := attach(t, quietOptions())
	k.addPage(mem.SlowTier, 1)
	huge := k.addPage(mem.SlowTier, 64)
	k.addPage(mem.SlowTier, 1)
	k.pages[huge.ID] = nil
	return c
}

func TestCheckpointGoldenAndRoundTrip(t *testing.T) {
	c, _ := ckptFixture(t)
	got := ckptBytes(t, c)
	if got != ckptGolden {
		t.Fatalf("checkpoint bytes changed:\n got %s\nwant %s", got, ckptGolden)
	}
	r := ckptTarget(t)
	if err := r.RestoreCheckpoint([]byte(got)); err != nil {
		t.Fatal(err)
	}
	if again := ckptBytes(t, r); again != got {
		t.Fatalf("restore+checkpoint is not exact:\n got %s\nwant %s", again, got)
	}
	if r.Candidates() != 2 {
		t.Fatalf("restored %d candidates, want 2", r.Candidates())
	}
}

func TestRestoreRejectsOutOfRangeEntries(t *testing.T) {
	const npages = 4 // ckptTarget's page table
	for _, tc := range []struct {
		name, from, to string
	}{
		{"negative candidate", `"cands":[{"id":1,`, `"cands":[{"id":-1,`},
		{"candidate past the page table", `"cands":[{"id":1,`, `"cands":[{"id":4,`},
		{"candidate far past the page table", `"cands":[{"id":1,`, `"cands":[{"id":1099511627776,`},
		{"zero passes", `"id":1,"passes":1`, `"id":1,"passes":0`},
		{"negative passes", `"id":1,"passes":1`, `"id":1,"passes":-2`},
		{"passes a submission would have cleared", `"id":1,"passes":1`, `"id":1,"passes":2`},
		{"negative retry", `"retries":[{"id":3,`, `"retries":[{"id":-3,`},
		{"retry past the page table", `"retries":[{"id":3,`, `"retries":[{"id":4,`},
		{"zero retry count", `"retries":[{"id":3,"n":1`, `"retries":[{"id":3,"n":0`},
		{"retry count at the drop limit", `"retries":[{"id":3,"n":1`, `"retries":[{"id":3,"n":3`},
		{"queued page past the page table", `"queue":[3]`, `"queue":[4]`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := strings.Replace(ckptGolden, tc.from, tc.to, 1)
			if bad == ckptGolden {
				t.Fatalf("mutation %q not applied", tc.from)
			}
			r := ckptTarget(t)
			if len(r.k.Pages()) != npages {
				t.Fatalf("target has %d pages, want %d", len(r.k.Pages()), npages)
			}
			if err := r.RestoreCheckpoint([]byte(bad)); err == nil {
				t.Fatal("restore accepted an out-of-range entry")
			}
		})
	}
}
