package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// TestSysctlSurfaceGolden pins the runtime knob surface: every sysctl
// path and its default value, as a freshly built run registers them, for
// each policy a run can name. A knob that disappears, appears, or changes
// its default shows up here.
func TestSysctlSurfaceGolden(t *testing.T) {
	const numa = "kernel/numa_tiering=1\n"
	const chrono = "chrono/cit_threshold_ms=1000\n" +
		"chrono/delta_step=0.5\n" +
		"chrono/p_victim=0.002\n" +
		"chrono/rate_limit_bps=1e+08\n" +
		"chrono/thrash_threshold=0.2\n" +
		numa
	want := map[string]string{
		"Chrono":       chrono,
		"Chrono+guard": chrono,
		"Nomad":        numa,
	}
	names := append(append([]string(nil), ExtendedPolicies...), "Nomad", "Chrono+guard")
	for _, name := range names {
		e, err := Build(name, mkDurableWorkload(), RunOpts{Seed: 7, FastGB: 1, SlowGB: 3})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got strings.Builder
		for _, p := range e.Sysctl().All() {
			fmt.Fprintf(&got, "%s=%s\n", p.Path, p.Get())
		}
		exp, ok := want[name]
		if !ok {
			exp = numa
		}
		if got.String() != exp {
			t.Errorf("%s sysctl surface:\n%s\nwant:\n%s", name, got.String(), exp)
		}
	}
}
