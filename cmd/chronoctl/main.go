// Command chronoctl mirrors the paper's procfs/sysctl administration
// surface (§4, Appendix A step 6) and doubles as the client for a
// running chronod daemon.
//
// Without -socket, chronoctl runs its classic local demonstration: it
// lists, reads, and writes Chrono's runtime parameters against a live
// in-process simulation, applying the writes mid-run and reporting the
// throughput effect a real `echo N > /proc/sys/...` would have. Every
// -set entry is validated *before* the simulation starts: a malformed
// entry or unknown key exits non-zero immediately, with the parameter
// table's "did you mean" suggestions.
//
// With -socket, chronoctl speaks the chronod JSON protocol:
//
//	chronoctl -socket S -op submit -policy Chrono -workload pmbench -secs 120 -wait
//	chronoctl -socket S -op list
//	chronoctl -socket S -op dump -id r0000          # live metrics, memtierd-style
//	chronoctl -socket S -op pause -id r0000
//	chronoctl -socket S -op resume -id r0000
//	chronoctl -socket S -op reconfigure -id r0000 -policy Memtis -set kernel/numa_tiering=1
//	chronoctl -socket S -op cancel -id r0000
//	chronoctl -socket S -op reload
//	chronoctl -socket S -op shutdown
//
// Local examples:
//
//	chronoctl -list
//	chronoctl -set chrono/rate_limit_bps=50000000 -secs 300
//	chronoctl -set chrono/cit_threshold_ms=200 -set chrono/delta_step=0.25
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"chrono/internal/core"
	"chrono/internal/daemon"
	"chrono/internal/experiments"
	"chrono/internal/report"
	"chrono/internal/simclock"
	"chrono/internal/sysctl"
)

// setFlags collects repeated -set key=value arguments.
type setFlags []string

func (s *setFlags) String() string { return strings.Join(*s, ",") }
func (s *setFlags) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	var sets setFlags
	var (
		// Daemon-client surface.
		socket = flag.String("socket", "", "chronod unix socket; empty runs the local demonstration")
		op     = flag.String("op", "", "daemon op: ping|submit|status|list|pause|resume|cancel|reconfigure|dump|reload|shutdown")
		id     = flag.String("id", "", "run id for status/pause/resume/cancel/reconfigure/dump")
		wait   = flag.Bool("wait", false, "after submit: poll until the run settles and print its final table")
		list   = flag.Bool("list", false, "local: list all parameters with current values")
	)
	flag.Var(&sets, "set", "parameter write, key=value (repeatable)")
	// The simulation shape of a submit (zero fields take chronod's
	// defaults) and of the local demo; -policy also names a
	// reconfiguration's new policy (empty keeps the current one).
	spec := daemon.RunSpec{Workload: "pmbench", Seed: 42, DurationS: 240}
	spec.Flags(flag.CommandLine)
	flag.StringVar(&spec.Faults, "faults", "", "fault-injection plan spec")
	flag.Parse()

	if *socket != "" {
		os.Exit(clientMain(&clientArgs{
			socket: *socket, op: *op, id: *id, wait: *wait, sets: sets, spec: spec,
		}))
	}
	os.Exit(localMain(sets, *list, spec.DurationS, spec.Seed))
}

// localMain is the classic in-process demonstration.
func localMain(sets setFlags, list bool, secs float64, seed uint64) int {
	// Build a live system so the parameter table is fully populated.
	spec := experiments.Spec{Workload: "pmbench", Procs: 20, WSGB: 12, Seed: seed}.WithDefaults()
	e, _, err := spec.Build(spec.Policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chronoctl:", err)
		return 1
	}
	ch := e.Policy().(*core.Chrono)

	if list {
		t := report.NewTable("Runtime parameters (sysctl/procfs controllers)",
			"Path", "Value", "Description")
		for _, p := range e.Sysctl().All() {
			t.AddRow(p.Path, p.Get(), p.Description)
		}
		t.Fprint(os.Stdout)
		return 0
	}
	if len(sets) == 0 {
		flag.Usage()
		return 2
	}

	// Validate every write before simulating anything: a typo'd key must
	// cost an error message and a non-zero exit, not a wasted run.
	writes, err := validateSets(e.Sysctl(), sets)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chronoctl:", err)
		return 1
	}

	half := simclock.FromSeconds(secs / 2)
	var beforeThr float64
	applyFailed := false
	e.Clock().At(half, func(now simclock.Time) {
		beforeThr = e.M.Accesses / now.Seconds() / 1e6
		for _, kv := range writes {
			if err := e.Sysctl().Set(kv[0], kv[1]); err != nil {
				// Keys were pre-validated; this is a value the parameter's
				// own validator rejected.
				fmt.Fprintln(os.Stderr, "chronoctl:", err)
				applyFailed = true
				e.Clock().Stop()
				return
			}
			fmt.Printf("applied %s = %s at t=%.0fs\n", kv[0], kv[1], now.Seconds())
		}
	})
	m := e.Run(simclock.FromSeconds(secs))
	if applyFailed {
		return 1
	}

	afterThr := (m.Accesses - beforeThr*half.Seconds()*1e6) / (secs / 2) / 1e6
	t := report.NewTable("Effect of parameter writes", "Window", "Throughput (Mop/s)")
	t.AddRow("before writes (first half)", beforeThr)
	t.AddRow("after writes (second half)", afterThr)
	t.Fprint(os.Stdout)
	fmt.Printf("final CIT threshold: %.1f ms, rate limit: %.1f MB/s\n",
		ch.ThresholdMS(), ch.RateLimitMBps())
	return 0
}

// validateSets parses -set entries and checks every key against the
// live parameter table before anything runs. Unknown keys fail with the
// table's "did you mean" suggestions; malformed entries fail with the
// expected syntax. Returns the parsed key/value pairs in entry order.
func validateSets(tbl *sysctl.Table, entries []string) ([][2]string, error) {
	writes := make([][2]string, 0, len(entries))
	for _, kv := range entries {
		key, val, ok := strings.Cut(kv, "=")
		if !ok || key == "" {
			return nil, fmt.Errorf("bad -set %q (want key=value)", kv)
		}
		if _, err := tbl.Get(key); err != nil {
			return nil, err
		}
		writes = append(writes, [2]string{key, val})
	}
	return writes, nil
}

// clientArgs carries the daemon-mode invocation.
type clientArgs struct {
	socket string
	op     string
	id     string
	wait   bool
	sets   setFlags
	spec   daemon.RunSpec
}

func clientMain(a *clientArgs) int {
	c := &daemon.Client{Socket: a.socket}
	fail := func(msg string) int {
		fmt.Fprintln(os.Stderr, "chronoctl:", msg)
		return 1
	}
	switch a.op {
	case daemon.OpPing:
		resp, err := c.Do(daemon.Request{Op: daemon.OpPing})
		if err != nil {
			return fail(err.Error())
		}
		fmt.Printf("ok (abandoned goroutines: %d)\n", resp.Abandoned)
		return 0

	case daemon.OpSubmit:
		resp, err := c.Do(daemon.Request{Op: daemon.OpSubmit, Spec: &a.spec})
		if err != nil {
			return fail(err.Error())
		}
		if !resp.OK {
			if resp.RetryAfterS > 0 {
				// Load-shed: the structured retry hint gets a distinct
				// exit status so scripts can back off instead of erroring.
				fmt.Fprintln(os.Stderr, "chronoctl:", resp.Error)
				return 3
			}
			return fail(resp.Error)
		}
		fmt.Printf("submitted %s\n", resp.ID)
		if !a.wait {
			return 0
		}
		return waitForRun(c, resp.ID)

	case daemon.OpStatus:
		resp, err := c.Do(daemon.Request{Op: daemon.OpStatus, ID: a.id})
		if err != nil {
			return fail(err.Error())
		}
		if !resp.OK {
			return fail(resp.Error)
		}
		printRun(*resp.Run)
		if resp.Table != "" {
			fmt.Print(resp.Table)
		}
		return 0

	case daemon.OpList:
		resp, err := c.Do(daemon.Request{Op: daemon.OpList})
		if err != nil {
			return fail(err.Error())
		}
		t := report.NewTable("chronod runs", "ID", "State", "Policy", "Workload", "Sim time (s)", "Swaps", "Error")
		for _, r := range resp.Runs {
			t.AddRow(r.ID, r.State, r.Policy, r.Spec.Workload, r.SimNowS, r.Swaps, firstLine(r.Error))
		}
		t.Fprint(os.Stdout)
		return 0

	case daemon.OpPause, daemon.OpResume, daemon.OpCancel, daemon.OpDump:
		resp, err := c.Do(daemon.Request{Op: a.op, ID: a.id})
		if err != nil {
			return fail(err.Error())
		}
		if !resp.OK {
			return fail(resp.Error)
		}
		if resp.Table != "" {
			fmt.Print(resp.Table)
		} else if resp.Run != nil {
			printRun(*resp.Run)
		}
		return 0

	case daemon.OpReconfigure:
		set := map[string]string{}
		for _, kv := range a.sets {
			key, val, ok := strings.Cut(kv, "=")
			if !ok || key == "" {
				return fail(fmt.Sprintf("bad -set %q (want key=value)", kv))
			}
			set[key] = val
		}
		resp, err := c.Do(daemon.Request{Op: daemon.OpReconfigure, ID: a.id, Policy: a.spec.Policy, Set: set})
		if err != nil {
			return fail(err.Error())
		}
		if !resp.OK {
			return fail(resp.Error)
		}
		fmt.Printf("reconfigured %s (%d clock events dropped by the swap)\n", a.id, resp.Dropped)
		printRun(*resp.Run)
		return 0

	case daemon.OpReload, daemon.OpShutdown:
		resp, err := c.Do(daemon.Request{Op: a.op})
		if err != nil {
			return fail(err.Error())
		}
		if !resp.OK {
			return fail(resp.Error)
		}
		fmt.Println("ok")
		return 0

	default:
		return fail(fmt.Sprintf("unknown -op %q (ping|submit|status|list|pause|resume|cancel|reconfigure|dump|reload|shutdown)", a.op))
	}
}

// waitForRun polls until the run settles, then prints its final state
// and table. Exit status mirrors the run's fate.
func waitForRun(c *daemon.Client, id string) int {
	for {
		resp, err := c.Do(daemon.Request{Op: daemon.OpStatus, ID: id})
		if err != nil {
			fmt.Fprintln(os.Stderr, "chronoctl:", err)
			return 1
		}
		if !resp.OK {
			fmt.Fprintln(os.Stderr, "chronoctl:", resp.Error)
			return 1
		}
		switch resp.Run.State {
		case daemon.StateDone:
			fmt.Print(resp.Table)
			return 0
		case daemon.StateFailed, daemon.StateCancelled, daemon.StateInterrupted, daemon.StatePaused:
			printRun(*resp.Run)
			return 1
		}
		time.Sleep(250 * time.Millisecond) //chrono:wallclock client polling cadence
	}
}

func printRun(r daemon.RunInfo) {
	fmt.Printf("%s: %s  policy=%s workload=%s sim=%.1fs", r.ID, r.State, r.Policy, r.Spec.Workload, r.SimNowS)
	if r.Swaps > 0 {
		fmt.Printf(" swaps=%d dropped_events=%d", r.Swaps, r.DroppedEvents)
	}
	if r.AbandonedGoroutine {
		fmt.Print(" abandoned_goroutine=true")
	}
	if r.Error != "" {
		fmt.Printf("\n  error: %s", firstLine(r.Error))
	}
	fmt.Println()
}

func firstLine(s string) string {
	first, _, _ := strings.Cut(s, "\n")
	return first
}
