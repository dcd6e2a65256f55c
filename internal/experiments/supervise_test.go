package experiments

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"chrono/internal/checkpoint"
	"chrono/internal/engine"
	"chrono/internal/faultinject"
	"chrono/internal/simclock"
)

// TestSuperviseDegradesWithoutSnapshot: an armed unkeyed ticker makes
// the engine unsnapshottable. Under a checkpoint cadence that asks for a
// save after every event, the first Save fails and Supervise stops
// trying: the run finishes with metrics identical to a plain e.Run and
// leaves no snapshot behind.
func TestSuperviseDegradesWithoutSnapshot(t *testing.T) {
	o := durableOpts("")
	build := func() *engine.Engine {
		e, err := Build("TPP", mkDurableWorkload(), o)
		if err != nil {
			t.Fatal(err)
		}
		e.Clock().Every(5*simclock.Second, func(simclock.Time) {})
		return e
	}
	want := metricsJSON(t, &Result{Metrics: build().Run(o.Duration)})

	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	e := build()
	saves := 0
	sv := Supervise(e, Supervision{
		Name:     "degrade",
		Duration: o.Duration,
		Interval: time.Nanosecond,
		Save: func() error {
			saves++
			st, err := e.Snapshot()
			if err != nil {
				return err
			}
			return checkpoint.Save(ckpt, st)
		},
	})
	if sv.Outcome != Finished {
		t.Fatalf("outcome %v (%s), want Finished", sv.Outcome, sv.Reason)
	}
	if got := metricsJSON(t, &Result{Metrics: sv.Metrics}); got != want {
		t.Fatal("supervised metrics diverge from a plain run")
	}
	if saves != 1 {
		t.Fatalf("Save called %d times, want exactly one failed attempt", saves)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Fatalf("unsnapshottable run left a checkpoint (stat err %v)", err)
	}
}

// TestCellKeyGolden pins the on-disk identity of a durable cell: the
// key is a hash of CellSpec's JSON, so renaming a field tag or changing
// the encoding orphans every checkpoint directory in existence.
func TestCellKeyGolden(t *testing.T) {
	spec := CellSpec{
		Experiment: "pmbench/64GB/rw=50:50", Policy: "Chrono", Workload: "pmbench",
		Detail: "&{Processes:2 WorkingSetGB:1}", Seed: 42, DurationS: 600,
		FastGB: 64, SlowGB: 192, Faults: faultinject.Aggressive(),
	}
	if got, want := cellKey(spec), "beeaf127ec9bf16a"; got != want {
		t.Fatalf("cellKey = %s, want %s: the durable-cell identity changed", got, want)
	}
}
