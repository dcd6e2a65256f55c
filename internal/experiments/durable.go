package experiments

// Durable sweep cells: the experiments-layer half of checkpoint/restore.
//
// A sweep cell (one ResilientRun of a (policy, workload) pair) becomes
// durable when RunOpts.Checkpoint names a directory. The cell then runs
// under Supervise (supervise.go), whose saves write the engine snapshot —
// atomically, through internal/checkpoint's envelope — to
// <dir>/cells/<key>.ckpt, where <key> is a hash of the cell's canonical
// CellSpec. When the cell finishes, its metrics land in <key>.done and the
// snapshot is deleted. A later invocation with Resume set short-circuits
// finished cells from their .done record and continues interrupted cells
// from their .ckpt via engine.Restore — bit-identical to a run that was
// never interrupted (the fence in engine/checkpoint_test.go and the
// kill-and-resume CI job both enforce that).
//
// Supervise's outcomes map onto the failure manifest: a drained cell
// (cancelled RunOpts.Ctx) is Interrupted, a frozen one Stalled — with
// AbandonedGoroutine after a hard stall — and both carry a resume
// pointer; ResilientRun retries neither.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"chrono/internal/checkpoint"
	"chrono/internal/engine"
	"chrono/internal/workload"
)

// CheckpointOpts configure durable sweep cells (RunOpts.Checkpoint).
type CheckpointOpts struct {
	// Dir is the checkpoint directory; cell state lives under Dir/cells.
	// Empty disables checkpointing entirely.
	Dir string
	// Resume makes cells consult Dir before running: finished cells are
	// short-circuited from their .done record, interrupted cells continue
	// from their snapshot. Without Resume the directory is write-only.
	Resume bool
	// Interval is the wall-clock cadence of periodic snapshots
	// (default 30s).
	Interval time.Duration
	// StallTimeout is how long a cell may make no sim-time progress
	// before the watchdog checkpoints and aborts it (0 disables the
	// watchdog).
	StallTimeout time.Duration
}

// errStaleCheckpoint marks a cell snapshot that exists but cannot be
// restored (corrupt envelope, incompatible version, or state that no
// longer overlays the freshly built engine). ResilientRun reacts by
// discarding it and replaying the cell from scratch.
var errStaleCheckpoint = errors.New("experiments: cell checkpoint not restorable")

// cellCheckpoint is the .ckpt payload: the spec pins what the snapshot
// belongs to, the state is the full engine capture.
type cellCheckpoint struct {
	Spec  CellSpec            `json:"spec"`
	State *engine.EngineState `json:"state"`
}

// cellDone is the .done payload for a finished cell.
type cellDone struct {
	Spec    CellSpec            `json:"spec"`
	Metrics engine.MetricsState `json:"metrics"`
}

// specFor builds the canonical identity of a sweep cell. It must be
// computed from the *fresh* (pre-Build) workload so the key is identical
// across processes and attempts. Execution-strategy knobs (Workers,
// Shards, ShardWorkers) are deliberately absent: they never affect
// results, so a sweep checkpointed under one shard count resumes cleanly
// under another.
func specFor(experiment, polName string, w workload.Workload, o RunOpts) CellSpec {
	return CellSpec{
		Experiment: experiment,
		Policy:     polName,
		Workload:   w.Name(),
		Detail:     fmt.Sprintf("%+v", w),
		Seed:       o.Seed,
		DurationS:  o.Duration.Seconds(),
		FastGB:     o.FastGB,
		SlowGB:     o.SlowGB,
		Faults:     o.Faults,
	}
}

// cellKey is the file-name identity of a cell: a short hash of the
// canonical spec JSON. Any change to seed, duration, tier sizes, fault
// plan, workload parameters, or policy changes the key, so stale state
// is never silently reused for a different configuration.
func cellKey(spec CellSpec) string {
	raw, err := json.Marshal(spec)
	if err != nil {
		// CellSpec is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("experiments: marshal CellSpec: %v", err))
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:8])
}

// durableCell is the per-attempt checkpointing state of one sweep cell.
type durableCell struct {
	spec CellSpec
	opts CheckpointOpts
	key  string

	// saved reports that at least one snapshot write (or resume load)
	// succeeded, so ckptPath is a usable resume pointer. Atomic because
	// the hard-stall path reads it while the run goroutine may still be
	// writing snapshots.
	saved atomic.Bool
}

// newDurableCell returns nil when checkpointing is disabled.
func newDurableCell(spec CellSpec, o RunOpts) *durableCell {
	if o.Checkpoint == nil || o.Checkpoint.Dir == "" {
		return nil
	}
	return &durableCell{spec: spec, opts: *o.Checkpoint, key: cellKey(spec)}
}

func (dc *durableCell) cellDir() string  { return filepath.Join(dc.opts.Dir, "cells") }
func (dc *durableCell) ckptPath() string { return filepath.Join(dc.cellDir(), dc.key+".ckpt") }
func (dc *durableCell) donePath() string { return filepath.Join(dc.cellDir(), dc.key+".done") }

// finished short-circuits a cell whose .done record exists: the returned
// Result carries the recorded metrics and no engine (as after Compact).
func (dc *durableCell) finished(w workload.Workload) (*Result, bool, error) {
	if !dc.opts.Resume {
		return nil, false, nil
	}
	var done cellDone
	err := checkpoint.Load(dc.donePath(), &done)
	switch {
	case err == nil:
	case os.IsNotExist(err):
		return nil, false, nil
	case errors.Is(err, checkpoint.ErrCorrupt) || errors.Is(err, checkpoint.ErrVersion):
		// Unreadable record: drop it and re-run the cell.
		_ = os.Remove(dc.donePath())
		return nil, false, nil
	default:
		return nil, false, err
	}
	if err := dc.checkSpec(done.Spec, dc.donePath()); err != nil {
		return nil, false, err
	}
	m, err := done.Metrics.Materialize()
	if err != nil {
		_ = os.Remove(dc.donePath())
		return nil, false, nil
	}
	return &Result{Policy: dc.spec.Policy, Metrics: m, Workload: w}, true, nil
}

// checkSpec guards against key collisions and hand-edited state: a file
// recorded for a different configuration is an error, never a resume.
func (dc *durableCell) checkSpec(got CellSpec, path string) error {
	want, _ := json.Marshal(dc.spec)
	have, _ := json.Marshal(got)
	if string(want) != string(have) {
		return fmt.Errorf("experiments: %s was recorded for a different run configuration (recorded %s, want %s); "+
			"remove the checkpoint directory or rerun with the original flags", path, have, want)
	}
	return nil
}

// tryResume overlays the cell's snapshot, if one exists, onto the freshly
// built engine. It reports whether the engine now continues mid-run.
// A snapshot that cannot be restored is deleted and surfaces as
// errStaleCheckpoint: the engine is in an undefined half-overlaid state,
// so the caller must rebuild and replay from scratch.
func (dc *durableCell) tryResume(e *engine.Engine) (bool, error) {
	if !dc.opts.Resume {
		return false, nil
	}
	var ck cellCheckpoint
	err := checkpoint.Load(dc.ckptPath(), &ck)
	switch {
	case err == nil:
	case os.IsNotExist(err):
		return false, nil
	case errors.Is(err, checkpoint.ErrCorrupt) || errors.Is(err, checkpoint.ErrVersion):
		_ = os.Remove(dc.ckptPath())
		return false, fmt.Errorf("%w: %v", errStaleCheckpoint, err)
	default:
		return false, err
	}
	if err := dc.checkSpec(ck.Spec, dc.ckptPath()); err != nil {
		return false, err
	}
	if ck.State == nil {
		_ = os.Remove(dc.ckptPath())
		return false, fmt.Errorf("%w: empty snapshot", errStaleCheckpoint)
	}
	if err := e.Restore(ck.State); err != nil {
		_ = os.Remove(dc.ckptPath())
		return false, fmt.Errorf("%w: %v", errStaleCheckpoint, err)
	}
	dc.saved.Store(true)
	return true, nil
}

// resumePtr is the manifest's resume pointer: the snapshot path when one
// exists, empty otherwise.
func (dc *durableCell) resumePtr() string {
	if dc.saved.Load() {
		return dc.ckptPath()
	}
	return ""
}

// save snapshots the engine and writes the cell's .ckpt atomically.
func (dc *durableCell) save(e *engine.Engine) error {
	st, err := e.Snapshot()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dc.cellDir(), 0o755); err != nil {
		return err
	}
	if err := checkpoint.Save(dc.ckptPath(), cellCheckpoint{Spec: dc.spec, State: st}); err != nil {
		return err
	}
	dc.saved.Store(true)
	return nil
}

// markDone records the finished cell's metrics and drops its snapshot.
// Best-effort: a write failure costs a future short-circuit, not the
// already-computed result.
func (dc *durableCell) markDone(m *engine.Metrics) {
	if err := os.MkdirAll(dc.cellDir(), 0o755); err != nil {
		return
	}
	done := cellDone{Spec: dc.spec, Metrics: m.State()}
	if err := checkpoint.Save(dc.donePath(), done); err != nil {
		return
	}
	_ = os.Remove(dc.ckptPath())
}

// run drives one durable attempt: resume if a snapshot exists, execute
// under Supervise with the cell's .ckpt as the save target, and map the
// outcome. Exactly one of the three returns is meaningful.
func (dc *durableCell) run(e *engine.Engine, o RunOpts) (*engine.Metrics, *FailedRun, error) {
	resumed, err := dc.tryResume(e)
	if err != nil {
		return nil, nil, err
	}
	sv := Supervise(e, Supervision{
		Name: fmt.Sprintf("cell %s policy=%s workload=%s seed=%d",
			dc.spec.Experiment, dc.spec.Policy, dc.spec.Workload, dc.spec.Seed),
		Ctx:          o.ctx(),
		Resumed:      resumed,
		Duration:     o.Duration,
		Interval:     dc.opts.Interval,
		StallTimeout: dc.opts.StallTimeout,
		Save:         func() error { return dc.save(e) },
	})
	if sv.Outcome == Finished {
		return sv.Metrics, nil, nil
	}
	f := &FailedRun{
		Spec:        dc.spec,
		PanicValue:  sv.Reason,
		EventsFired: sv.Fired,
		Stalled:     sv.Outcome == Stalled || sv.Outcome == StalledHard,
		Interrupted: sv.Outcome == Interrupted,
		ResumeCkpt:  dc.resumePtr(),
		// The goroutine of a hard-stalled cell leaks until process exit.
		AbandonedGoroutine: sv.Outcome == StalledHard,
	}
	if sv.Outcome == Panicked {
		f.PanicValue, f.Stack = fmt.Sprint(sv.Panic), string(sv.Stack)
	}
	return nil, f, nil
}
