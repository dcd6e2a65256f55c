package main

import (
	"encoding/json"
	"os"
	"testing"

	"chrono/internal/engine"
	"chrono/internal/policy"
)

// smokeScale shortens every cell's virtual run. redis-chronod keeps a
// longer run, so the client can still pause it mid-run.
var smokeScale = map[string]float64{"pmbench": 0.05, "oscillation": 0.05, "redis-chronod": 0.3}

type benchmarkFile struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func smokeOptions(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload, seed: 7, budget: 1, trace: trace,
		outDir: t.TempDir(), workDir: t.TempDir(),
	}
}

// TestSmoke runs one untraced and one traced pass of every workload and
// checks that the result carries exactly the metrics BENCHMARK.json names,
// each with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for _, w := range names {
		for _, trace := range []bool{false, true} {
			o := smokeOptions(t, w, trace)
			cells, err := cellsFor(w, o.seed, smokeScale[w])
			if err != nil {
				t.Fatal(err)
			}
			res, err := run(o, cells)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != len(cells) {
				t.Errorf("%s trace=%v: correct %v, %d of %d failed, want %d attempted",
					w, trace, res.Correct, res.Failed, res.Attempted, len(cells))
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", w, trace, d.Name, m.Unit, d.Unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.Name, m.Value)
				}
			}
			if trace {
				if _, err := os.Stat(o.outDir + "/where_" + w + ".json"); err != nil {
					t.Errorf("%s: no where sidecar: %v", w, err)
				}
			}
		}
	}
}

// TestUnknownPolicyFails checks that a cell that cannot run is counted as
// a failed operation and the benchmark still reports the others.
func TestUnknownPolicyFails(t *testing.T) {
	o := smokeOptions(t, "oscillation", false)
	cells, err := cellsFor(o.workload, o.seed, smokeScale[o.workload])
	if err != nil {
		t.Fatal(err)
	}
	bad := cells[0]
	bad.policy = "NoSuchPolicy"
	res, err := run(o, []cell{cells[0], bad})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 2 || res.Failed != 1 {
		t.Errorf("correct %v, attempted %d, failed %d; want false, 2, 1", res.Correct, res.Attempted, res.Failed)
	}
	if res.Metrics["wall_s"].Value <= 0 {
		t.Errorf("wall_s = %v with one good cell", res.Metrics["wall_s"].Value)
	}
}

// TestTracedKernelKeepsTransactions checks that the traced kernel handle
// offers the transactional extension exactly when the wrapped kernel does.
func TestTracedKernelKeepsTransactions(t *testing.T) {
	e := engine.New(engine.Config{Seed: 1})
	if _, ok := wrapKernel(e, newTracer()).(policy.TransactionalKernel); !ok {
		t.Error("traced engine kernel lost policy.TransactionalKernel")
	}
	plain := struct{ policy.Kernel }{e}
	if _, ok := wrapKernel(plain, newTracer()).(policy.TransactionalKernel); ok {
		t.Error("traced plain kernel claims policy.TransactionalKernel")
	}
}
