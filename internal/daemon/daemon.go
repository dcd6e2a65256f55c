package daemon

// Daemon core: the run registry, bounded admission, the scheduler, and
// crash recovery. The execution of an individual run lives in
// runner.go; the socket front-end in server.go.
//
// Wall-clock time appears here only for host-side concerns (retry
// hints, checkpoint cadence, stall timeouts) — none of it feeds into
// simulation state, which stays purely virtual-time driven.

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"chrono/internal/checkpoint"
	"chrono/internal/engine"
	"chrono/internal/simclock"
)

// runRecord is the persisted per-run state (record.json), written
// through the checkpoint envelope at every lifecycle transition so a
// restart reconstructs the registry exactly.
type runRecord struct {
	ID                 string  `json:"id"`
	Spec               RunSpec `json:"spec"`
	State              string  `json:"state"`
	Policy             string  `json:"policy"`
	Swaps              int     `json:"swaps,omitempty"`
	Dropped            int     `json:"dropped_events,omitempty"`
	SimNowNS           int64   `json:"sim_now_ns,omitempty"`
	Error              string  `json:"error,omitempty"`
	AbandonedGoroutine bool    `json:"abandoned_goroutine,omitempty"`
}

// runCheckpoint is the engine snapshot file (engine.ckpt). Policy is
// recorded beside the state because live reconfiguration can change it
// mid-run: resuming must attach the policy the snapshot was taken
// under, not the one the run started with.
type runCheckpoint struct {
	Spec   RunSpec             `json:"spec"`
	Policy string              `json:"policy"`
	State  *engine.EngineState `json:"state"`
}

// run is one hosted simulation. The mutable fields are guarded by mu;
// the driver goroutine is the only writer while the run executes, but
// status/list read concurrently.
type run struct {
	id   string
	dir  string
	spec RunSpec

	// simNow is the virtual-time watermark, written by the AfterStep
	// hook on every event and read by the watchdog and the status
	// surface — atomic, not mutexed, because it is touched per event.
	simNow atomic.Int64

	mu         sync.Mutex
	state      string
	policy     string
	swaps      int
	dropped    int
	errMsg     string
	abandonedG bool
	// resume marks that engine.ckpt holds a usable snapshot, so the next
	// segment restores instead of starting fresh.
	resume bool
	// userCancel distinguishes an explicit cancel from a daemon drain:
	// both cancel ctx, but only the former is terminal.
	userCancel bool

	// ctrl carries pause/reconfigure/dump requests into the AfterStep
	// hook of the driver's current engine segment.
	ctrl   chan *ctrlMsg
	ctx    context.Context
	cancel context.CancelFunc
}

func (r *run) recordPath() string { return filepath.Join(r.dir, "record.json") }
func (r *run) ckptPath() string   { return filepath.Join(r.dir, "engine.ckpt") }
func (r *run) tablePath() string  { return filepath.Join(r.dir, "table.txt") }

// persist writes the run's record atomically. Best-effort by design: a
// failed write costs recovery fidelity, not the in-memory run.
func (r *run) persist() {
	r.mu.Lock()
	rec := runRecord{
		ID: r.id, Spec: r.spec, State: r.state, Policy: r.policy,
		Swaps: r.swaps, Dropped: r.dropped, SimNowNS: r.simNow.Load(),
		Error: r.errMsg, AbandonedGoroutine: r.abandonedG,
	}
	r.mu.Unlock()
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return
	}
	_ = checkpoint.Save(r.recordPath(), rec)
}

// info renders the externally visible state.
func (r *run) info() RunInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RunInfo{
		ID: r.id, State: r.state, Spec: r.spec, Policy: r.policy,
		SimNowS: simclock.Duration(r.simNow.Load()).Seconds(),
		Swaps:   r.swaps, DroppedEvents: r.dropped,
		Error: r.errMsg, AbandonedGoroutine: r.abandonedG,
	}
}

func (r *run) setState(s string) {
	r.mu.Lock()
	r.state = s
	r.mu.Unlock()
}

func (r *run) getState() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// context returns the run's current cancellation context. It is
// re-created across pause/resume, so callers must fetch it rather than
// capture the field.
func (r *run) context() context.Context {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ctx
}

// cancelNow cancels the run's current context.
func (r *run) cancelNow() {
	r.mu.Lock()
	cancel := r.cancel
	r.mu.Unlock()
	cancel()
}

// Daemon hosts the runs. Create with New, serve with Serve, stop with
// Shutdown.
type Daemon struct {
	stateDir string
	cfgPath  string
	logf     func(format string, args ...any)

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// shutdownReq is closed when a client asks the daemon to exit
	// (OpShutdown); the hosting command treats it like a first signal.
	shutdownReq chan struct{}
	downOnce    sync.Once

	mu     sync.Mutex
	cfg    Config
	runs   map[string]*run
	order  []string // ids in admission order
	queue  []*run   // FIFO, bounded by cfg.MaxQueued for fresh submits
	active int
	nextID int
}

func (d *Daemon) runsDir() string { return filepath.Join(d.stateDir, "runs") }

// New opens (or creates) a daemon over stateDir, loading cfgPath (empty
// = defaults) and recovering every run a previous process left behind:
// terminal runs are served from their records, queued and in-flight
// ones are requeued — in-flight ones resuming from their snapshots —
// and paused runs stay parked. Recovery ordering is by run ID, so a
// restarted daemon schedules deterministically.
func New(stateDir, cfgPath string) (*Daemon, error) {
	cfg, err := LoadConfig(cfgPath)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &Daemon{
		stateDir:    stateDir,
		cfgPath:     cfgPath,
		logf:        log.Printf,
		ctx:         ctx,
		cancel:      cancel,
		shutdownReq: make(chan struct{}),
		cfg:         cfg,
		runs:        map[string]*run{},
	}
	if err := os.MkdirAll(d.runsDir(), 0o755); err != nil {
		cancel()
		return nil, err
	}
	if err := d.recover(); err != nil {
		cancel()
		return nil, err
	}
	d.mu.Lock()
	d.schedule()
	d.mu.Unlock()
	return d, nil
}

// recover scans the state directory and rebuilds the registry.
func (d *Daemon) recover() error {
	entries, err := os.ReadDir(d.runsDir())
	if err != nil {
		return err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		dir := filepath.Join(d.runsDir(), name)
		var rec runRecord
		if err := checkpoint.Load(filepath.Join(dir, "record.json"), &rec); err != nil {
			// A torn or missing record means the crash hit between mkdir
			// and the first persist; nothing to resume.
			d.logf("chronod: skipping unreadable run record in %s: %v", dir, err)
			continue
		}
		r := d.newRun(rec.ID, dir, rec.Spec)
		r.policy = rec.Policy
		r.swaps = rec.Swaps
		r.dropped = rec.Dropped
		r.simNow.Store(rec.SimNowNS)
		r.errMsg = rec.Error
		r.abandonedG = rec.AbandonedGoroutine
		r.state = rec.State
		d.runs[rec.ID] = r
		d.order = append(d.order, rec.ID)
		if n, err := strconv.Atoi(strings.TrimPrefix(rec.ID, "r")); err == nil && n >= d.nextID {
			d.nextID = n + 1
		}
		switch rec.State {
		case StateDone, StateFailed, StateCancelled, StatePaused:
			// Terminal states are served from the record; paused runs wait
			// for an explicit resume.
		default:
			// queued / running / interrupted: requeue. In-flight runs
			// continue from their snapshot when one exists — the
			// byte-identical-resume fence — and replay from scratch when
			// the crash beat the first checkpoint.
			if _, err := os.Stat(r.ckptPath()); err == nil {
				r.resume = true
			}
			r.state = StateQueued
			r.persist()
			d.queue = append(d.queue, r)
			d.logf("chronod: recovered run %s (%s/%s), %s",
				r.id, r.spec.Policy, r.spec.Workload,
				map[bool]string{true: "resuming from snapshot", false: "replaying from start"}[r.resume])
		}
	}
	return nil
}

func (d *Daemon) newRun(id, dir string, spec RunSpec) *run {
	ctx, cancel := context.WithCancel(d.ctx)
	return &run{
		id: id, dir: dir, spec: spec, policy: spec.Policy,
		state: StateQueued, ctrl: make(chan *ctrlMsg, 8),
		ctx: ctx, cancel: cancel,
	}
}

// schedule starts queued runs while capacity allows. Callers hold d.mu.
func (d *Daemon) schedule() {
	for d.active < d.cfg.MaxActive && len(d.queue) > 0 {
		r := d.queue[0]
		d.queue = d.queue[1:]
		d.active++
		r.setState(StateRunning)
		r.persist()
		d.wg.Add(1)
		go d.runDriver(r)
	}
}

// runDriver supervises one run to a settled state, then releases its
// scheduler slot and backfills from the queue.
func (d *Daemon) runDriver(r *run) {
	defer d.wg.Done()
	d.drive(r)
	d.mu.Lock()
	d.active--
	d.schedule()
	d.mu.Unlock()
}

// Submit admits a run or sheds it. The queue bound is explicit
// back-pressure: rejecting with a retry hint beats queueing without
// bound and falling over later.
func (d *Daemon) Submit(spec RunSpec) Response {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return Response{Error: err.Error()}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ctx.Err() != nil {
		return Response{Error: "daemon: shutting down"}
	}
	if d.active >= d.cfg.MaxActive && len(d.queue) >= d.cfg.MaxQueued {
		// Deterministic hint: one slot per queued run plus the newcomer.
		hint := float64(len(d.queue)+1) * d.cfg.RetryHintS
		return Response{
			Error: fmt.Sprintf("daemon: at capacity (%d active, %d queued); retry after %.0fs",
				d.active, len(d.queue), hint),
			RetryAfterS: hint,
		}
	}
	id := fmt.Sprintf("r%04d", d.nextID)
	d.nextID++
	r := d.newRun(id, filepath.Join(d.runsDir(), id), spec)
	d.runs[id] = r
	d.order = append(d.order, id)
	r.persist()
	d.queue = append(d.queue, r)
	d.schedule()
	return Response{OK: true, ID: id, Run: ptr(r.info())}
}

func ptr[T any](v T) *T { return &v }

func (d *Daemon) get(id string) (*run, Response) {
	d.mu.Lock()
	defer d.mu.Unlock()
	r, ok := d.runs[id]
	if !ok {
		return nil, Response{Error: fmt.Sprintf("daemon: no run %q", id)}
	}
	return r, Response{}
}

// Status reports one run; finished runs attach their final table.
func (d *Daemon) Status(id string) Response {
	r, errResp := d.get(id)
	if r == nil {
		return errResp
	}
	resp := Response{OK: true, ID: id, Run: ptr(r.info())}
	if resp.Run.State == StateDone {
		if raw, err := os.ReadFile(r.tablePath()); err == nil {
			resp.Table = string(raw)
		}
	}
	return resp
}

// List reports every run in admission order.
func (d *Daemon) List() Response {
	d.mu.Lock()
	ids := append([]string(nil), d.order...)
	d.mu.Unlock()
	infos := make([]RunInfo, 0, len(ids))
	for _, id := range ids {
		if r, _ := d.get(id); r != nil {
			infos = append(infos, r.info())
		}
	}
	return Response{OK: true, Runs: infos}
}

// Cancel stops a queued, paused, or running run.
func (d *Daemon) Cancel(id string) Response {
	r, errResp := d.get(id)
	if r == nil {
		return errResp
	}
	d.mu.Lock()
	switch r.getState() {
	case StateQueued, StatePaused:
		for i, q := range d.queue {
			if q == r {
				d.queue = append(d.queue[:i], d.queue[i+1:]...)
				break
			}
		}
		r.mu.Lock()
		r.state = StateCancelled
		r.userCancel = true
		r.mu.Unlock()
		d.mu.Unlock()
		r.persist()
		return Response{OK: true, ID: id, Run: ptr(r.info())}
	case StateRunning:
		r.mu.Lock()
		r.userCancel = true
		r.mu.Unlock()
		d.mu.Unlock()
		r.cancelNow()
		return Response{OK: true, ID: id, Run: ptr(r.info())}
	default:
		d.mu.Unlock()
		return Response{Error: fmt.Sprintf("daemon: run %s is %s; nothing to cancel", id, r.getState())}
	}
}

// Resume requeues a paused (or crash-interrupted) run. Admitted runs
// are exempt from the queue bound: shedding applies to new work only.
func (d *Daemon) Resume(id string) Response {
	r, errResp := d.get(id)
	if r == nil {
		return errResp
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	st := r.getState()
	if st != StatePaused && st != StateInterrupted {
		return Response{Error: fmt.Sprintf("daemon: run %s is %s, not paused", id, st)}
	}
	if _, err := os.Stat(r.ckptPath()); err == nil {
		r.mu.Lock()
		r.resume = true
		r.mu.Unlock()
	}
	r.setState(StateQueued)
	r.persist()
	d.queue = append(d.queue, r)
	d.schedule()
	return Response{OK: true, ID: id, Run: ptr(r.info())}
}

// Pause, Reconfigure, and Dump are serviced by the run's AfterStep hook
// through the control channel; see runner.go for the hook side.

func (d *Daemon) Pause(id string) Response {
	return d.control(id, &ctrlMsg{op: OpPause})
}

func (d *Daemon) Reconfigure(id, policy string, set map[string]string) Response {
	return d.control(id, &ctrlMsg{op: OpReconfigure, policy: policy, set: set})
}

func (d *Daemon) Dump(id string) Response {
	return d.control(id, &ctrlMsg{op: OpDump})
}

// control delivers a message to a running run's hook and waits for the
// reply. The wait also watches the run's context so a run that dies
// mid-request fails the request instead of hanging it.
func (d *Daemon) control(id string, msg *ctrlMsg) Response {
	r, errResp := d.get(id)
	if r == nil {
		return errResp
	}
	if st := r.getState(); st != StateRunning {
		return Response{Error: fmt.Sprintf("daemon: run %s is %s, not running", id, st)}
	}
	msg.reply = make(chan ctrlReply, 1)
	select {
	case r.ctrl <- msg:
	default:
		return Response{Error: fmt.Sprintf("daemon: run %s control queue is full; retry", id)}
	}
	select {
	case rep := <-msg.reply:
		if rep.err != nil {
			return Response{ID: id, Error: rep.err.Error(), Run: ptr(r.info())}
		}
		return Response{OK: true, ID: id, Run: ptr(r.info()), Table: rep.table, Dropped: rep.dropped}
	case <-r.context().Done():
		return Response{Error: fmt.Sprintf("daemon: run %s stopped before answering", id)}
	}
}

// Reload re-reads the config file; validation failure keeps the old
// config in force.
func (d *Daemon) Reload() Response {
	if d.cfgPath == "" {
		return Response{OK: true}
	}
	cfg, err := LoadConfig(d.cfgPath)
	if err != nil {
		return Response{Error: fmt.Sprintf("daemon: reload rejected, keeping previous config: %v", err)}
	}
	d.mu.Lock()
	d.cfg = cfg
	d.schedule() // a raised MaxActive takes effect immediately
	d.mu.Unlock()
	d.logf("chronod: config reloaded from %s", d.cfgPath)
	return Response{OK: true}
}

// RequestShutdown asks the hosting process to exit (OpShutdown).
func (d *Daemon) RequestShutdown() {
	d.downOnce.Do(func() { close(d.shutdownReq) })
}

// ShutdownRequested is closed when a client asked the daemon to exit.
func (d *Daemon) ShutdownRequested() <-chan struct{} { return d.shutdownReq }

// Shutdown drains the daemon: every running run checkpoints at its next
// event boundary and is recorded as interrupted; queued runs stay
// queued on disk. Both auto-resume when the daemon restarts over the
// same state directory. Shutdown returns when all drivers have exited.
func (d *Daemon) Shutdown() {
	d.cancel()
	d.wg.Wait()
}

// InterruptedCount reports runs that drained mid-flight — the hosting
// command uses it to print the resume hint.
func (d *Daemon) InterruptedCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, r := range d.runs {
		if r.getState() == StateInterrupted {
			n++
		}
	}
	return n
}

// Config returns the active configuration (for tests and the status
// surface).
func (d *Daemon) Config() Config {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cfg
}

// SetLogf redirects daemon logging (tests silence or capture it).
func (d *Daemon) SetLogf(f func(format string, args ...any)) { d.logf = f }
