package daemon

// Per-run execution. Each admitted run gets a driver goroutine that
// executes the simulation in *segments*: a segment is one engine build
// (plus optional restore) followed by Run/ResumeRun until the horizon,
// a control event, or a failure ends it. Live reconfiguration ends a
// segment at the next epoch boundary with an in-memory snapshot; the
// next segment restores that snapshot into the new policy
// (engine.RestoreSwap) or rolls back to the old one when validation
// fails — the run itself survives either way.
//
// Every segment runs under experiments.Supervise, the same driver as
// durable sweep cells: panic confinement, the stall watchdog with
// hard-stall abandonment, periodic checkpoints and the drain save all
// live there, so kill -9 at any moment loses at most one checkpoint
// interval. What is the daemon's own is the Step callback: control
// servicing (dump, pause, reconfigure-at-epoch) on the engine's
// goroutine, and the mapping of the outcome onto the run's lifecycle.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"

	"chrono/internal/checkpoint"
	"chrono/internal/engine"
	"chrono/internal/experiments"
	"chrono/internal/simclock"
	"chrono/internal/workload"
)

// Test seams. testBuildHook runs after every engine build and before
// any restore — tests install keyed pacing tickers there so a run stays
// in flight long enough to poke at. testStartGate, when non-nil, holds
// every driver before its first segment so admission tests can fill the
// queue deterministically.
var (
	testBuildHook func(e *engine.Engine)
	testStartGate chan struct{}
)

// ctrlMsg travels from the API surface into the AfterStep hook.
type ctrlMsg struct {
	op     string // OpPause | OpReconfigure | OpDump
	policy string
	set    map[string]string
	reply  chan ctrlReply
}

type ctrlReply struct {
	err     error
	table   string
	dropped int
}

// swapReq is a reconfiguration whose epoch boundary was reached: the
// request and the snapshot taken there.
type swapReq struct {
	msg  *ctrlMsg
	snap *engine.EngineState
}

// drive owns one run from scheduling to a terminal state.
func (d *Daemon) drive(r *run) {
	// Release any control caller still waiting once the run settles.
	// Only THIS driver's context is cancelled — the pause path swaps in
	// a fresh one (under the same lock that publishes the paused state,
	// so a racing Resume can never pick up a doomed context), and
	// cancelling the old one must only wake waiters, never poison the
	// next segment.
	r.mu.Lock()
	myCancel := r.cancel
	r.mu.Unlock()
	defer myCancel()
	defer r.persist()
	defer d.drainCtrl(r)

	if g := testStartGate; g != nil {
		select {
		case <-g:
		case <-r.context().Done():
			d.settleInterrupt(r)
			return
		}
	}

	r.mu.Lock()
	pol := r.policy
	resume := r.resume
	r.mu.Unlock()

	e, w, _, err := d.prepare(r, pol, nil, false)
	if errors.Is(err, errStaleSnapshot) {
		// The on-disk snapshot does not overlay a fresh build (version
		// drift, hand-edited state). Replay from scratch: determinism
		// means the replay reaches the same end state.
		d.logf("chronod: run %s snapshot not restorable; replaying from start", r.id)
		resume = false
		r.mu.Lock()
		r.resume = false
		r.mu.Unlock()
		e, w, _, err = d.prepare(r, pol, nil, false)
	}
	if err != nil {
		d.settleFail(r, err.Error(), false)
		return
	}

	for {
		sv, swap := d.execute(r, e, w, resume)
		switch sv.Outcome {
		case experiments.Finished:
			d.settleDone(r, e, w, sv.Metrics)
			return
		case experiments.Panicked:
			d.settleFail(r, fmt.Sprintf("panic: %v\n%s", sv.Panic, sv.Stack), false)
			return
		case experiments.Stalled, experiments.StalledHard:
			d.settleFail(r, sv.Reason, sv.Outcome == experiments.StalledHard)
			return
		case experiments.Interrupted: // user cancel or daemon drain
			d.settleInterrupt(r)
			return
		}
		if swap == nil {
			// Stopped by a pause. Fresh context and paused state become
			// visible atomically: a Resume that sees "paused" is
			// guaranteed the new context.
			r.mu.Lock()
			r.ctx, r.cancel = context.WithCancel(d.ctx)
			r.state = StatePaused
			r.mu.Unlock()
			d.logf("chronod: run %s paused at %.1fs virtual", r.id, simclock.Duration(r.simNow.Load()).Seconds())
			return
		}
		e, w = d.applySwap(r, swap)
		if e == nil {
			// Rollback itself failed; the run is unrecoverable.
			return
		}
		resume = true
	}
}

// errStaleSnapshot marks an on-disk snapshot that exists but cannot be
// restored onto a fresh build; the driver replays from scratch.
var errStaleSnapshot = errors.New("daemon: snapshot not restorable")

// prepare builds the run's engine under polName and overlays state:
// from snap when given (live reconfiguration; swap selects RestoreSwap
// vs Restore), else from the on-disk checkpoint when the run resumes.
// dropped reports clock events a cross-policy restore could not carry
// over; the caller charges it to the run only once the whole swap
// (including its sysctl stage) has succeeded.
func (d *Daemon) prepare(r *run, polName string, snap *engine.EngineState, swap bool) (_ *engine.Engine, _ workload.Workload, dropped int, _ error) {
	e, w, err := r.spec.Build(polName)
	if err != nil {
		return nil, nil, 0, err
	}
	if h := testBuildHook; h != nil {
		h(e)
	}
	switch {
	case snap != nil && swap:
		dropped, err = e.RestoreSwap(snap)
		if err != nil {
			return nil, nil, 0, err
		}
	case snap != nil:
		if err := e.Restore(snap); err != nil {
			return nil, nil, 0, err
		}
	default:
		r.mu.Lock()
		resume := r.resume
		r.mu.Unlock()
		if !resume {
			return e, w, 0, nil
		}
		var ck runCheckpoint
		if err := checkpoint.Load(r.ckptPath(), &ck); err != nil || ck.State == nil {
			_ = os.Remove(r.ckptPath())
			return nil, nil, 0, fmt.Errorf("%w: %v", errStaleSnapshot, err)
		}
		if ck.Policy != polName {
			// The snapshot was taken under a later policy (live swap
			// before the crash); rebuild under that policy instead.
			return d.prepare(r, ck.Policy, nil, false)
		}
		if err := e.Restore(ck.State); err != nil {
			_ = os.Remove(r.ckptPath())
			return nil, nil, 0, fmt.Errorf("%w: %v", errStaleSnapshot, err)
		}
		r.mu.Lock()
		r.policy = ck.Policy
		r.mu.Unlock()
	}
	return e, w, 0, nil
}

// saveCkpt snapshots the engine to the run's on-disk checkpoint.
func (d *Daemon) saveCkpt(r *run, e *engine.Engine, polName string) error {
	st, err := e.Snapshot()
	if err != nil {
		return err
	}
	if err := checkpoint.Save(r.ckptPath(), runCheckpoint{Spec: r.spec, Policy: polName, State: st}); err != nil {
		return err
	}
	r.mu.Lock()
	r.resume = true
	r.mu.Unlock()
	return nil
}

// nextEpoch is the first multiple of epoch strictly after now — where a
// live reconfiguration takes effect.
func nextEpoch(now simclock.Time, epoch simclock.Duration) simclock.Time {
	return simclock.Time((int64(now)/int64(epoch) + 1) * int64(epoch))
}

// execute runs one segment to its end under experiments.Supervise, with
// the run's control servicing as the Step callback. A segment Stopped by
// Step was paused, or reached a reconfiguration (swap non-nil).
func (d *Daemon) execute(r *run, e *engine.Engine, w workload.Workload, resumed bool) (experiments.Supervised, *swapReq) {
	cfg := d.Config()
	epoch := e.Config().EpochNS

	r.mu.Lock()
	polName := r.policy
	r.mu.Unlock()

	var (
		paused  bool
		swapMsg *ctrlMsg
		swapAt  simclock.Time
		swap    *swapReq // set when a swap stops the segment
	)
	r.simNow.Store(int64(e.Clock().Now()))
	step := func(now simclock.Time) bool {
		r.simNow.Store(int64(now))
		// Service control requests. One swap may be pending at a time;
		// everything else answers immediately.
		for more := true; more; {
			select {
			case msg := <-r.ctrl:
				switch msg.op {
				case OpDump:
					msg.reply <- ctrlReply{table: renderLiveTable(r, polName, w, e, now)}
				case OpPause:
					if err := d.saveCkpt(r, e, polName); err != nil {
						msg.reply <- ctrlReply{err: fmt.Errorf("daemon: cannot pause: %w", err)}
						break
					}
					paused = true
					msg.reply <- ctrlReply{}
				case OpReconfigure:
					if err := validateSwap(e, polName, msg); err != nil {
						msg.reply <- ctrlReply{err: err}
						break
					}
					if swapMsg != nil {
						msg.reply <- ctrlReply{err: fmt.Errorf("daemon: a reconfiguration is already pending")}
						break
					}
					swapMsg = msg
					swapAt = nextEpoch(now, epoch)
					// The reply waits until the swap applies or rolls back.
				default:
					msg.reply <- ctrlReply{err: fmt.Errorf("daemon: unknown control op %q", msg.op)}
				}
			default:
				more = false
			}
		}

		if swapMsg != nil && now >= swapAt {
			st, err := e.Snapshot()
			if err != nil {
				swapMsg.reply <- ctrlReply{err: fmt.Errorf("daemon: cannot reconfigure: %w", err)}
				swapMsg = nil
			} else {
				swap = &swapReq{msg: swapMsg, snap: st}
				return true
			}
		}
		return paused
	}

	sv := experiments.Supervise(e, experiments.Supervision{
		Name: fmt.Sprintf("daemon run %s policy=%s workload=%s seed=%d",
			r.id, polName, r.spec.Workload, r.spec.Seed),
		Ctx:          r.context(),
		Resumed:      resumed,
		Duration:     r.spec.Duration(),
		Interval:     cfg.checkpointInterval(),
		StallTimeout: cfg.stallTimeout(),
		Save:         func() error { return d.saveCkpt(r, e, polName) },
		Step:         step,
	})
	if sv.Outcome != experiments.Stopped {
		// Not read otherwise: an abandoned run goroutine may still be
		// executing the step closure.
		return sv, nil
	}
	return sv, swap
}

// validateSwap pre-flights a reconfiguration before anything stops: the
// policy must exist and be instantiable, and — for a knob-only swap —
// every sysctl key must be known, so a typo costs an error reply with
// the table's "did you mean" list, not a run interruption. Keys of a
// cross-policy swap can only be checked against the *new* policy's
// table, so they validate after the restore; a failure there rolls the
// whole swap back.
func validateSwap(e *engine.Engine, current string, msg *ctrlMsg) error {
	pol := msg.policy
	if pol == "" {
		pol = current
	}
	if _, err := experiments.NewPolicy(pol); err != nil {
		return err
	}
	if pol == current {
		for _, k := range sortedKeys(msg.set) {
			if _, err := e.Sysctl().Get(k); err != nil {
				return err
			}
		}
	}
	return nil
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// applySwap performs the restore-into-new-policy handoff:
// snapshot (already taken at the epoch boundary) → build a fresh engine
// under the new policy → RestoreSwap (or Restore for a knob-only swap)
// → apply the sysctl assignments. Any failure rolls back: the old
// policy is rebuilt from the same snapshot and the run continues as if
// the request never happened. The reply to the waiting client is sent
// from here either way.
func (d *Daemon) applySwap(r *run, swap *swapReq) (*engine.Engine, workload.Workload) {
	msg, snap := swap.msg, swap.snap
	r.mu.Lock()
	oldPol := r.policy
	r.mu.Unlock()
	newPol := msg.policy
	if newPol == "" {
		newPol = oldPol
	}
	cross := newPol != oldPol

	e, w, dropped, err := d.prepare(r, newPol, snap, cross)
	if err == nil {
		err = applySets(e, msg.set)
	}
	if err != nil {
		// Roll back onto the old policy from the same snapshot. The
		// snapshot was taken under oldPol, so a plain Restore applies.
		re, rw, _, rerr := d.prepare(r, oldPol, snap, false)
		if rerr != nil {
			msg.reply <- ctrlReply{err: fmt.Errorf("daemon: swap failed (%v) and rollback failed (%v)", err, rerr)}
			d.settleFail(r, fmt.Sprintf("reconfiguration rollback failed: %v", rerr), false)
			return nil, nil
		}
		msg.reply <- ctrlReply{err: fmt.Errorf("daemon: reconfiguration rejected, run continues under %s: %w", oldPol, err)}
		d.logf("chronod: run %s reconfiguration rejected (%v); rolled back to %s", r.id, err, oldPol)
		return re, rw
	}

	r.mu.Lock()
	r.policy = newPol
	r.swaps++
	r.dropped += dropped
	r.mu.Unlock()
	r.persist()
	// Checkpoint immediately so a crash right after the swap resumes
	// into the new configuration, not the old one.
	if err := d.saveCkpt(r, e, newPol); err != nil {
		d.logf("chronod: run %s post-swap checkpoint failed: %v", r.id, err)
	}
	msg.reply <- ctrlReply{dropped: dropped}
	d.logf("chronod: run %s reconfigured %s -> %s at %.1fs virtual (%d events dropped)",
		r.id, oldPol, newPol, simclock.Duration(r.simNow.Load()).Seconds(), dropped)
	return e, w
}

// applySets applies sysctl assignments in sorted key order —
// deterministic, and validation errors (range checks) surface the first
// offending key.
func applySets(e *engine.Engine, set map[string]string) error {
	for _, k := range sortedKeys(set) {
		if err := e.Sysctl().Set(k, set[k]); err != nil {
			return err
		}
	}
	return nil
}

// drainCtrl answers any control requests that raced with the run's end.
func (d *Daemon) drainCtrl(r *run) {
	for {
		select {
		case msg := <-r.ctrl:
			msg.reply <- ctrlReply{err: fmt.Errorf("daemon: run %s is no longer running", r.id)}
		default:
			return
		}
	}
}

// Terminal-state settlement. Each persists the record; settleDone also
// renders the final metrics table and clears the snapshot.

func (d *Daemon) settleDone(r *run, e *engine.Engine, w workload.Workload, m *engine.Metrics) {
	r.mu.Lock()
	pol := r.policy
	r.mu.Unlock()
	// The table lands on disk before the state flips: a Status that sees
	// "done" is guaranteed to find the final table.
	title := fmt.Sprintf("%s on %s (%.0fs virtual)", pol, w.Name(), r.spec.DurationS)
	res := &experiments.Result{Policy: pol, Metrics: m, Engine: e, Workload: w}
	table := experiments.MetricsTable(title, res, false).String()
	_ = checkpoint.WriteFileAtomic(r.tablePath(), []byte(table))
	_ = os.Remove(r.ckptPath())
	r.setState(StateDone)
	r.persist()
	d.logf("chronod: run %s done (%s on %s)", r.id, pol, r.spec.Workload)
}

func (d *Daemon) settleFail(r *run, errMsg string, abandoned bool) {
	r.mu.Lock()
	r.state = StateFailed
	r.errMsg = errMsg
	r.abandonedG = abandoned
	r.mu.Unlock()
	r.persist()
	first, _, _ := strings.Cut(errMsg, "\n")
	d.logf("chronod: run %s failed: %s", r.id, first)
}

func (d *Daemon) settleInterrupt(r *run) {
	r.mu.Lock()
	cancelled := r.userCancel
	if cancelled {
		r.state = StateCancelled
	} else {
		r.state = StateInterrupted
	}
	r.mu.Unlock()
	r.persist()
	if cancelled {
		d.logf("chronod: run %s cancelled", r.id)
	} else {
		d.logf("chronod: run %s interrupted; will auto-resume on restart", r.id)
	}
}

// renderLiveTable is the memtierd-style mid-run dump: the same counters
// over the virtual time elapsed so far. It runs inside the AfterStep
// hook — the only context where reading the engine mid-run is safe.
func renderLiveTable(r *run, polName string, w workload.Workload, e *engine.Engine, now simclock.Time) string {
	st := e.M.State()
	m, err := st.Materialize()
	if err != nil {
		return fmt.Sprintf("daemon: metrics unavailable: %v\n", err)
	}
	if m.Duration == 0 {
		m.Duration = now // rates are "so far", not end-of-run
	}
	title := fmt.Sprintf("%s: %s on %s at %.1fs virtual (live)",
		r.id, polName, w.Name(), simclock.Duration(now).Seconds())
	return experiments.MetricsTable(title, &experiments.Result{Metrics: m}, true).String()
}
