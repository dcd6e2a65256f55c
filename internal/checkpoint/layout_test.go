package checkpoint_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"chrono/internal/checkpoint"
	"chrono/internal/engine"
	"chrono/internal/experiments"
	"chrono/internal/simclock"
	"chrono/internal/workload"
)

// TestSaveLayoutPinned pins the on-disk bytes of a real engine snapshot:
// Save must write exactly what json.Marshal of the envelope struct wrote,
// and Load must give back an EngineState equal to the one saved.
func TestSaveLayoutPinned(t *testing.T) {
	for _, pol := range []string{"Chrono", "Nomad"} {
		t.Run(pol, func(t *testing.T) {
			st := redisSnapshot(t, pol, 64, 20*simclock.Second)
			want, err := checkpoint.MarshalEnvelope(st)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "engine.ckpt")
			if err := checkpoint.Save(path, st); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				i := 0
				for i < len(got) && i < len(want) && got[i] == want[i] {
					i++
				}
				t.Fatalf("Save wrote %d bytes, json.Marshal(envelope) %d; first difference at byte %d", len(got), len(want), i)
			}
			var back engine.EngineState
			if err := checkpoint.Load(path, &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(&back, st) {
				t.Fatal("Load did not round-trip the saved EngineState")
			}
		})
	}
}

// redisSnapshot snapshots a Redis 1:1 SET:GET engine, as chronod's
// kvstore spec builds it, after running it for d.
func redisSnapshot(t testing.TB, pol string, pagesPerGB int64, d simclock.Duration) *engine.EngineState {
	t.Helper()
	w := &workload.KVStore{Flavor: workload.Redis, StoreGB: 160, SetRatio: 1, GetRatio: 1, Mode: engine.BasePages}
	e, err := experiments.Build(pol, w, experiments.RunOpts{Seed: 7, PagesPerGB: pagesPerGB})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(d)
	st, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return st
}
