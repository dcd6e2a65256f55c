package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"chrono/internal/daemon"
)

// TestMain lets the test binary stand in for chronosim: invoked with
// "chronosim" as its first argument, it runs main on the rest.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "chronosim" {
		os.Args = os.Args[1:]
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestTyposExitBeforeSimulating: a misspelled kvstore flavor or mix must
// not silently fall back to the default. chronosim exits 2 with the
// message chronod rejects the same spec with, and simulates nothing.
func TestTyposExitBeforeSimulating(t *testing.T) {
	d, err := daemon.New(t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	d.SetLogf(func(string, ...any) {})
	t.Cleanup(d.Shutdown)

	for _, tc := range []struct {
		args []string
		spec daemon.RunSpec
	}{
		{[]string{"-workload", "kvstore", "-flavor", "rdis"}, daemon.RunSpec{Workload: "kvstore", Flavor: "rdis"}},
		{[]string{"-workload", "kvstore", "-setget", "1:2"}, daemon.RunSpec{Workload: "kvstore", SetGet: "1:2"}},
	} {
		resp := d.Submit(tc.spec)
		if resp.OK {
			t.Fatalf("chronod admitted %+v", tc.spec)
		}
		cmd := exec.Command(os.Args[0], append([]string{"chronosim", "-secs", "1"}, tc.args...)...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("chronosim %v: err %v, want exit status 2", tc.args, err)
		}
		if got, want := strings.TrimSpace(stderr.String()), "chronosim: "+resp.Error; got != want {
			t.Fatalf("chronosim %v: stderr %q, want chronod's %q", tc.args, got, want)
		}
		if stdout.Len() != 0 {
			t.Fatalf("chronosim %v simulated before rejecting:\n%s", tc.args, stdout.String())
		}
	}
}
