// Command chronosim runs one tiered-memory simulation from the command
// line and prints its metrics — the quickest way to poke at a policy or a
// workload without the full reproduce harness.
//
// Examples:
//
//	chronosim -policy Chrono -workload pmbench -procs 50 -ws 5 -read 70 -secs 600
//	chronosim -policy Memtis -workload kvstore -flavor redis -secs 300 -huge
//	chronosim -policy Linux-NB -workload graph500 -total 192 -secs 300
//	chronosim -policy Chrono -workload multitenant -secs 900 -series
package main

import (
	"flag"
	"fmt"
	"os"

	"chrono/internal/experiments"
	"chrono/internal/report"
)

func main() {
	// The spec takes every flag verbatim (no zero-means-default pass
	// after parsing: the flags carry chronosim's defaults), and is
	// validated before anything simulates, with the messages chronod
	// gives.
	spec := experiments.Spec{}.WithDefaults()
	spec.Flags(flag.CommandLine)
	series := flag.Bool("series", false, "print per-process DRAM placement at the end")
	shards := flag.Int("shards", 1, "fault-machinery shards (multi-core single-run execution; never affects results)")
	flag.Parse()

	if err := spec.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "chronosim:", err)
		os.Exit(2)
	}
	w, _ := spec.NewWorkload()
	opts, _ := spec.Opts()
	opts.Shards = *shards
	res, err := experiments.Run(spec.Policy, w, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chronosim:", err)
		os.Exit(1)
	}

	title := fmt.Sprintf("%s on %s (%.0fs virtual)", spec.Policy, w.Name(), spec.DurationS)
	experiments.MetricsTable(title, res, false).Fprint(os.Stdout)

	if *series {
		pt := report.NewTable("Final placement per process", "PID", "Name", "DRAM %")
		for _, p := range res.Engine.Processes() {
			pt.AddRow(p.PID, p.Name, res.Engine.DRAMPagePercent(p.PID))
		}
		pt.Fprint(os.Stdout)
	}
}
