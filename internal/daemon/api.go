// Package daemon hosts many concurrent simulator engines behind a
// unix-socket JSON API — the long-running half of the reproduction
// harness. cmd/chronod wraps it as a service; cmd/chronoctl speaks the
// protocol from the command line.
//
// Robustness is the design driver, not a bolt-on:
//
//   - Every run executes under experiments.Supervise, the driver durable
//     sweep cells use too: a panicking policy or workload takes down one
//     run, never the daemon, and the stall watchdog guards each run — a
//     hard-stalled run is abandoned, counted (watchdog.NoteAbandoned),
//     and reported.
//   - Admission is a bounded queue with explicit load-shedding: an
//     over-capacity submit is rejected with a retry-after hint instead
//     of queueing without bound.
//   - SIGINT/SIGTERM drain in two stages (internal/sigdrain): in-flight
//     runs checkpoint at their next event boundary and the daemon exits;
//     a second signal exits immediately.
//   - Crash recovery: runs checkpoint periodically through
//     internal/checkpoint; on restart the daemon auto-resumes in-flight
//     runs, so kill -9 + restart produces byte-identical final tables
//     (the same fence discipline as scripts/resume_check.sh).
//   - Live reconfiguration rides the snapshot machinery: a policy or
//     knob swap applies at the run's next epoch boundary via
//     snapshot → validate → restore-into-new-policy, with rollback when
//     the new configuration fails validation.
//
// The wire protocol is newline-delimited JSON, one request and one
// response per connection: the client writes a Request, the daemon
// answers with a Response and closes. Keeping the framing this dumb
// means a shell script with nc(1) can drive it.
package daemon

import "chrono/internal/experiments"

// RunSpec is the submit payload: experiments.Spec, the one flag-shaped
// run description chronosim and chronotrace build from their flags too.
// Its defaults, validation and workload switch live there, so a spec is
// rejected with the same message wherever it comes from.
type RunSpec = experiments.Spec

// Op names accepted in Request.Op.
const (
	OpPing        = "ping"        // liveness probe
	OpSubmit      = "submit"      // enqueue a RunSpec; may be load-shed
	OpStatus      = "status"      // one run's RunInfo
	OpList        = "list"        // every run, submit order
	OpCancel      = "cancel"      // stop a queued or running run
	OpPause       = "pause"       // checkpoint a running run and park it
	OpResume      = "resume"      // requeue a paused run from its snapshot
	OpReconfigure = "reconfigure" // live policy/knob swap at next epoch boundary
	OpDump        = "dump"        // live per-run metrics table (memtierd-style)
	OpReload      = "reload"      // re-read the daemon config file
	OpShutdown    = "shutdown"    // graceful drain, then exit
)

// Request is the single message a client sends per connection.
type Request struct {
	Op string `json:"op"`
	// ID selects the run for status/cancel/pause/resume/reconfigure/dump.
	ID string `json:"id,omitempty"`
	// Spec is the submission payload for OpSubmit.
	Spec *RunSpec `json:"spec,omitempty"`
	// Policy is the replacement policy for OpReconfigure (empty keeps the
	// current policy; the swap then applies knobs only).
	Policy string `json:"policy,omitempty"`
	// Set lists sysctl assignments for OpReconfigure, applied after the
	// restore. Unknown keys are rejected with a "did you mean" list and
	// the run rolls back to its pre-swap state.
	Set map[string]string `json:"set,omitempty"`
}

// Response is the single message the daemon sends back.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// RetryAfterS accompanies a load-shed submit rejection: the client
	// should wait this many seconds before retrying.
	RetryAfterS float64 `json:"retry_after_s,omitempty"`
	// ID echoes the run assigned or addressed.
	ID string `json:"id,omitempty"`
	// Run carries one run's state (status/pause/resume/...).
	Run *RunInfo `json:"run,omitempty"`
	// Runs carries the full registry for OpList, in submit order.
	Runs []RunInfo `json:"runs,omitempty"`
	// Table is a rendered metrics table (OpDump, and OpStatus of a
	// finished run).
	Table string `json:"table,omitempty"`
	// Dropped reports clock events dropped by a policy swap's
	// restore-into (OpReconfigure).
	Dropped int `json:"dropped,omitempty"`
	// Abandoned is the process-wide count of abandoned (hard-stalled) run
	// goroutines, surfaced on OpPing so operators can watch the debt.
	Abandoned int64 `json:"abandoned,omitempty"`
}

// Run lifecycle states, as reported in RunInfo.State and persisted in
// each run's record. The crash-recovery scan maps them back to intent:
// StateQueued and StateRunning requeue (the latter resuming from its
// snapshot when one exists), StateInterrupted requeues with resume,
// StatePaused stays parked until an explicit resume, and the terminal
// three are served from their records.
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StatePaused      = "paused"
	StateInterrupted = "interrupted" // drained mid-flight; auto-resumes on restart
	StateDone        = "done"
	StateFailed      = "failed"
	StateCancelled   = "cancelled"
)

// RunInfo is the externally visible state of one run.
type RunInfo struct {
	ID    string  `json:"id"`
	State string  `json:"state"`
	Spec  RunSpec `json:"spec"`
	// Policy is the currently attached policy — it diverges from
	// Spec.Policy after a live reconfiguration.
	Policy string `json:"policy"`
	// SimNowS is the virtual-time watermark in seconds.
	SimNowS float64 `json:"sim_now_s"`
	// Swaps counts applied live reconfigurations; DroppedEvents is the
	// total clock events their restores dropped.
	Swaps         int `json:"swaps,omitempty"`
	DroppedEvents int `json:"dropped_events,omitempty"`
	// Error describes a failed run (panic value, stall reason, ...).
	Error string `json:"error,omitempty"`
	// AbandonedGoroutine marks a hard stall: the run's goroutine was
	// wedged inside a single event and had to be abandoned.
	AbandonedGoroutine bool `json:"abandoned_goroutine,omitempty"`
}
