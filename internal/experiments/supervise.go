package experiments

// Supervise is the one supervised run driver: durable sweep cells
// (durable.go) and chronod's hosted runs (internal/daemon) both execute
// their engines through it. Everything it does rides one AfterStep hook
// on the engine's own goroutine plus one watchdog:
//
//   - Periodic checkpoint: every Interval of wall time the hook calls
//     Save. A run that cannot snapshot (an unkeyed clock event is armed:
//     workload drift, RunScored's sampling hook) fails Save once and then
//     simply runs on without periodic saves — graceful degradation,
//     never corruption.
//
//   - Graceful drain: when Ctx is cancelled the hook saves at the next
//     event boundary and stops the clock (Interrupted).
//
//   - Stall watchdog (internal/watchdog): the hook publishes a sim-time
//     watermark. If it stops advancing for StallTimeout of wall time,
//     the hook is asked to save and stop (Stalled). A run stuck *inside*
//     one event can't run the hook — after a second timeout the run
//     goroutine is abandoned (it leaks, by design: there is no safe way
//     to preempt it), counted and logged through watchdog.NoteAbandoned,
//     and the run reports StalledHard.
//
//   - Step: an optional per-event callback for the caller's own mid-run
//     work (chronod's pause, live dump and epoch-boundary
//     reconfiguration). It runs on the engine's goroutine, the only
//     place reading the engine mid-run is safe; returning true stops the
//     clock (Stopped).
//
// Wall-clock time appears here on purpose: checkpoint cadence and stall
// detection are properties of the *host* execution, never of simulation
// state. Every use is annotated for the detclock linter.

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"chrono/internal/engine"
	"chrono/internal/simclock"
	"chrono/internal/watchdog"
)

// Outcome is how a supervised run ended.
type Outcome int

const (
	Finished    Outcome = iota // ran to its horizon
	Panicked                   // the run panicked; see Supervised.Panic
	Interrupted                // Ctx was cancelled; saved and stopped
	Stalled                    // sim time froze for StallTimeout; saved and stopped
	StalledHard                // frozen for 2×StallTimeout inside one event; abandoned
	Stopped                    // Step stopped the clock
)

// Supervision configures one Supervise call.
type Supervision struct {
	// Name identifies the run in the hard-stall abandonment log line.
	Name string
	// Ctx drains the run when cancelled (nil never cancels).
	Ctx context.Context
	// Resumed continues a restored engine (ResumeRun); otherwise the run
	// starts fresh for Duration of virtual time.
	Resumed  bool
	Duration simclock.Duration
	// Interval is the wall-clock cadence of periodic saves (0 disables).
	Interval time.Duration
	// StallTimeout arms the stall watchdog (0 disables).
	StallTimeout time.Duration
	// Save checkpoints the engine; drain and stall saves are best-effort.
	Save func() error
	// Step, when non-nil, runs after every event with the virtual time;
	// returning true stops the clock.
	Step func(now simclock.Time) (stop bool)
}

// Supervised is the result of one supervised run.
type Supervised struct {
	Outcome Outcome
	// Metrics is set for Finished.
	Metrics *engine.Metrics
	// Fired is the event watermark: clock events dispatched by the last
	// completed hook call.
	Fired uint64
	// Reason describes an Interrupted, Stalled or StalledHard run.
	Reason string
	// Panic and Stack are set for Panicked.
	Panic any
	Stack []byte
}

// stallTestHook, when non-nil, substitutes the sim-time progress value
// the watchdog observes. Tests freeze it to exercise the stall path
// without building a genuinely wedged simulation.
var stallTestHook func(simclock.Time) simclock.Time

// Supervise runs e under s until it finishes, panics, drains, stalls or
// Step stops it.
func Supervise(e *engine.Engine, s Supervision) Supervised {
	clock := e.Clock()
	ctx := s.Ctx
	if ctx == nil {
		ctx = context.Background()
	}

	var (
		snapBroken bool // Save failed once; the run is not checkpointable
		ended      = Finished
	)
	var progress atomic.Int64 // sim-time watermark the watchdog reads
	var fired atomic.Uint64   // event watermark, race-free for the driver
	var stallReq atomic.Bool  // watchdog → hook: save and stop now
	// abandoned is set when the watchdog gives up on a hard-stuck run;
	// the hook of the leaked run goroutine stops the clock (and stops
	// saving) as soon as it runs again.
	var abandoned atomic.Bool
	progress.Store(int64(clock.Now()))
	lastSave := time.Now() //chrono:wallclock checkpoint cadence is host-side
	clock.SetAfterStep(func() {
		if abandoned.Load() {
			clock.Stop()
			return
		}
		now := clock.Now()
		fired.Store(clock.Fired())
		mark := now
		if h := stallTestHook; h != nil {
			mark = h(now)
		}
		progress.Store(int64(mark))
		if s.Step != nil && s.Step(now) {
			ended = Stopped
			clock.Stop()
			return
		}
		switch {
		case ctx.Err() != nil:
			_ = s.Save() // best-effort resume point
			ended = Interrupted
			clock.Stop()
		case stallReq.Load():
			_ = s.Save()
			ended = Stalled
			clock.Stop()
		case !snapBroken && s.Interval > 0:
			//chrono:wallclock checkpoint cadence is host-side
			if time.Since(lastSave) >= s.Interval {
				if err := s.Save(); err != nil {
					snapBroken = true
				}
				lastSave = time.Now() //chrono:wallclock checkpoint cadence is host-side
			}
		}
	})
	// The hook is cleared only on the normal completion path below. An
	// abandoned run keeps it installed — the hook is the mechanism that
	// parks the leaked goroutine — and its engine is discarded.

	stopWatch := make(chan struct{})
	defer close(stopWatch)
	var hardStall chan struct{}
	if s.StallTimeout > 0 {
		hardStall = make(chan struct{})
		go watchdog.Watch(s.StallTimeout, &progress, &stallReq, hardStall, stopWatch)
	}

	// The run goroutine leaves its result in out — buffered, so an
	// abandoned goroutine can still deliver and exit — then closes done.
	// Only the arm taken depends on scheduling; the result never does.
	out := make(chan Supervised, 1)
	done := make(chan struct{})
	//chrono:allow goroscope deliberately abandonable: a hard-stalled run goroutine is parked by the AfterStep hook and its engine discarded (see the hardStall arm below)
	go func() {
		defer close(done)
		defer func() {
			if v := recover(); v != nil {
				out <- Supervised{Outcome: Panicked, Panic: v, Stack: debug.Stack()}
			}
		}()
		var m *engine.Metrics
		if s.Resumed {
			m = e.ResumeRun()
		} else {
			m = e.Run(s.Duration)
		}
		out <- Supervised{Outcome: ended, Metrics: m}
	}()

	select {
	case <-done:
	case <-hardStall:
		// Wedged inside a single event: no hook, no save, no way to
		// preempt. The leak is deliberate but not invisible: it is counted
		// and logged so long-lived processes see the debt accumulate.
		abandoned.Store(true)
		watchdog.NoteAbandoned(s.Name)
		return Supervised{
			Outcome: StalledHard,
			Fired:   fired.Load(),
			Reason: fmt.Sprintf("stalled hard: no sim-time progress for %v and the event handler never yielded",
				2*s.StallTimeout),
		}
	}
	clock.SetAfterStep(nil)
	res := <-out
	res.Fired = fired.Load()
	switch res.Outcome {
	case Finished, Panicked:
		return res
	case Interrupted:
		res.Reason = "interrupted: graceful shutdown requested"
	case Stalled:
		res.Reason = fmt.Sprintf("stalled: no sim-time progress for %v", s.StallTimeout)
	}
	res.Metrics = nil
	return res
}
