package main

// The redis-chronod workload's client side: an in-process chronod
// (daemon.New + Serve on a unix socket) and one closed-loop client that
// submits each run, pauses and resumes it once mid-run, and waits for
// done. The daemon checkpoints only on that pause (the periodic cadence
// is set beyond any run's length), so every run writes one snapshot
// whatever the host speed.

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	"chrono/internal/daemon"
	"chrono/internal/report"
)

// pollEvery is the status polling interval while the client waits on a
// run; it bounds the error of every measured daemon time.
const pollEvery = 2 * time.Millisecond

// waitLimit fails a run that does not reach the awaited state in time.
const waitLimit = 120 * time.Second

type chronod struct {
	d      *daemon.Daemon
	l      net.Listener
	served chan error
	cl     daemon.Client
	dir    string
}

// startChronod starts a daemon over a fresh state directory under dir
// and returns once it answers a ping. startNS is the daemon's start
// time: daemon.New through the first answered ping.
func startChronod(dir string) (c *chronod, startNS int64, err error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	cfg, err := json.Marshal(daemon.Config{MaxActive: 1, CheckpointIntervalS: 3600})
	if err != nil {
		return nil, 0, err
	}
	cfgPath := filepath.Join(dir, "chronod.json")
	if err := os.WriteFile(cfgPath, cfg, 0o644); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	d, err := daemon.New(filepath.Join(dir, "state"), cfgPath)
	if err != nil {
		return nil, 0, err
	}
	d.SetLogf(func(string, ...any) {})
	sock := socketPath(filepath.Join(dir, "d.sock"))
	l, err := daemon.Listen(sock)
	if err != nil {
		d.Shutdown()
		return nil, 0, err
	}
	c = &chronod{d: d, l: l, served: make(chan error, 1), cl: daemon.Client{Socket: sock, Timeout: waitLimit}, dir: dir}
	go func() { c.served <- d.Serve(l) }()
	if _, err := c.do(daemon.Request{Op: daemon.OpPing}); err != nil {
		c.stop()
		return nil, 0, err
	}
	return c, int64(time.Since(t0)), nil
}

// startChronodTimed starts a daemon n times, stopping all but the last,
// and returns the last with every start time in seconds: one start takes
// well under a millisecond, too little to time once.
func startChronodTimed(dir string, n int) (*chronod, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		d, ns, err := startChronod(dir)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, float64(ns)/1e9)
		if i == n-1 {
			return d, times, nil
		}
		if err := d.stop(); err != nil {
			return nil, nil, err
		}
	}
}

// socketPath shortens path to a relative one when that is shorter, since
// unix socket paths are limited to about a hundred bytes.
func socketPath(path string) string {
	wd, err := os.Getwd()
	if err != nil {
		return path
	}
	abs, err := filepath.Abs(path)
	if err != nil {
		return path
	}
	if rel, err := filepath.Rel(wd, abs); err == nil && len(rel) < len(abs) {
		return rel
	}
	return abs
}

// stop closes the socket, drains the daemon and waits for Serve to
// return, then removes the state directory.
func (c *chronod) stop() error {
	err := c.l.Close()
	c.d.Shutdown()
	if serr := <-c.served; serr != nil && err == nil {
		err = serr
	}
	if rerr := os.RemoveAll(c.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// do sends one request and turns an application-level error into an error.
func (c *chronod) do(req daemon.Request) (daemon.Response, error) {
	resp, err := c.cl.Do(req)
	if err != nil {
		return resp, err
	}
	if !resp.OK {
		return resp, fmt.Errorf("chronod %s: %s", req.Op, resp.Error)
	}
	return resp, nil
}

// await polls a run's status until ok accepts it. A run that settles in
// another terminal state first is an error.
func (c *chronod) await(id string, ok func(daemon.RunInfo) bool) (daemon.Response, error) {
	deadline := time.Now().Add(waitLimit)
	for {
		resp, err := c.do(daemon.Request{Op: daemon.OpStatus, ID: id})
		if err != nil {
			return resp, err
		}
		if ok(*resp.Run) {
			return resp, nil
		}
		switch st := resp.Run.State; st {
		case daemon.StateDone, daemon.StateFailed, daemon.StateCancelled:
			return resp, fmt.Errorf("run %s is %s: %s", id, st, firstLine(resp.Run.Error))
		}
		if time.Now().After(deadline) {
			return resp, fmt.Errorf("run %s still %s after %v", id, resp.Run.State, waitLimit)
		}
		time.Sleep(pollEvery)
	}
}

// daemonRun is one supervised run as the client saw it.
type daemonRun struct {
	submitNS, pauseNS, resumeNS, turnaroundNS int64
	ckptBytes                                 int64
	table                                     string
}

// run submits spec, pauses it once a third of its virtual horizon has
// passed, resumes it, and waits for done.
func (c *chronod) run(spec *daemon.RunSpec) (daemonRun, error) {
	var out daemonRun
	t0 := time.Now()
	resp, err := c.do(daemon.Request{Op: daemon.OpSubmit, Spec: spec})
	if err != nil {
		return out, err
	}
	out.submitNS = int64(time.Since(t0))
	id := resp.ID
	if _, err := c.await(id, func(ri daemon.RunInfo) bool {
		return ri.State == daemon.StateRunning && ri.SimNowS >= spec.DurationS/3
	}); err != nil {
		return out, err
	}
	tp := time.Now()
	if _, err := c.do(daemon.Request{Op: daemon.OpPause, ID: id}); err != nil {
		return out, err
	}
	out.pauseNS = int64(time.Since(tp))
	if _, err := c.await(id, func(ri daemon.RunInfo) bool { return ri.State == daemon.StatePaused }); err != nil {
		return out, err
	}
	runDir := filepath.Join(c.dir, "state", "runs", id)
	st, err := os.Stat(filepath.Join(runDir, "engine.ckpt"))
	if err != nil {
		return out, fmt.Errorf("paused run %s has no checkpoint: %w", id, err)
	}
	out.ckptBytes = st.Size()
	tr := time.Now()
	if _, err := c.do(daemon.Request{Op: daemon.OpResume, ID: id}); err != nil {
		return out, err
	}
	out.resumeNS = int64(time.Since(tr))
	resp, err = c.await(id, func(ri daemon.RunInfo) bool { return ri.State == daemon.StateDone })
	if err != nil {
		return out, err
	}
	out.turnaroundNS = int64(time.Since(t0))
	table, err := os.ReadFile(filepath.Join(runDir, "table.txt"))
	if err != nil {
		return out, err
	}
	if len(table) == 0 {
		return out, fmt.Errorf("run %s is done but its table.txt is empty", id)
	}
	out.table = string(table)
	return out, nil
}

// checkDaemonTable compares the rows of a finished run's table with the
// same cell run directly: chronod must report the simulation a direct
// run computes, pause and resume included.
func checkDaemonTable(table string, sim simMetrics) error {
	for _, row := range []struct {
		name string
		v    float64
	}{
		{"Throughput (Mop/s)", sim.Mops},
		{"FMAR (%)", sim.FMARPct},
		{"Hint faults", sim.Faults},
	} {
		got, ok := tableValue(table, row.name)
		if !ok {
			return fmt.Errorf("chronod table has no %q row", row.name)
		}
		t := report.NewTable("", "Metric", "Value")
		t.AddRow(row.name, row.v)
		want, _ := tableValue(t.String(), row.name)
		if got != want {
			return fmt.Errorf("chronod %s = %s, direct run %s", row.name, got, want)
		}
	}
	return nil
}

// tableValue returns the last cell of the row whose first cell is name.
func tableValue(table, name string) (string, bool) {
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), name) {
			continue
		}
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		return f[len(f)-1], true
	}
	return "", false
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
