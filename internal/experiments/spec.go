package experiments

// Spec is the one flag-shaped description of a single run: chronod's
// submit payload (daemon.RunSpec is an alias), chronosim's and
// chronotrace's flags, and chronoctl's local demo all land here, and
// NewWorkload is the only switch from those fields to a workload.

import (
	"cmp"
	"flag"
	"fmt"

	"chrono/internal/engine"
	"chrono/internal/faultinject"
	"chrono/internal/simclock"
	"chrono/internal/units"
	"chrono/internal/workload"
)

// Spec describes one simulation. For chronod the zero value of every
// field means "default" (see WithDefaults), so a minimal submission is
// just {"workload":"pmbench"}; the commands fill every field from their
// own flag defaults instead.
type Spec struct {
	// Policy is the initial tiering policy (default Chrono). Live
	// reconfiguration may replace it later.
	Policy string `json:"policy,omitempty"`
	// Workload selects pmbench|graph500|kvstore|multitenant.
	Workload string `json:"workload,omitempty"`

	// Workload shape, mirroring chronosim's flags.
	Procs   int     `json:"procs,omitempty"`    // pmbench/multitenant (default 50)
	WSGB    float64 `json:"ws_gb,omitempty"`    // pmbench per-process working set (default 5)
	ReadPct float64 `json:"read_pct,omitempty"` // default 70
	Stride  int     `json:"stride,omitempty"`   // pmbench (default 2)
	TotalGB float64 `json:"total_gb,omitempty"` // graph500 (default 256)
	Flavor  string  `json:"flavor,omitempty"`   // kvstore: memcached|redis
	SetGet  string  `json:"set_get,omitempty"`  // kvstore mix: 1:10|1:1
	Huge    bool    `json:"huge,omitempty"`     // map huge pages

	// Simulation knobs.
	Seed       uint64  `json:"seed,omitempty"`         // default 42
	DurationS  float64 `json:"duration_s,omitempty"`   // virtual seconds (default 600)
	FastGB     float64 `json:"fast_gb,omitempty"`      // default 64
	SlowGB     float64 `json:"slow_gb,omitempty"`      // default 192
	PagesPerGB int64   `json:"pages_per_gb,omitempty"` // default 256
	// Faults is a fault-injection plan spec (internal/faultinject syntax,
	// e.g. "aggressive" or "alloc=0.001;seed=9"). Empty disables it.
	Faults string `json:"faults,omitempty"`
}

// WithDefaults fills every zero field with its default. The simulation
// knobs take RunOpts' defaults, so a hosted run and a sweep agree on them.
func (s Spec) WithDefaults() Spec {
	o := RunOpts{}.withDefaults()
	s.Policy = cmp.Or(s.Policy, "Chrono")
	s.Workload = cmp.Or(s.Workload, "pmbench")
	s.Procs = cmp.Or(s.Procs, 50)
	s.WSGB = cmp.Or(s.WSGB, 5)
	s.ReadPct = cmp.Or(s.ReadPct, 70)
	s.Stride = cmp.Or(s.Stride, 2)
	s.TotalGB = cmp.Or(s.TotalGB, 256)
	s.Flavor = cmp.Or(s.Flavor, "memcached")
	s.SetGet = cmp.Or(s.SetGet, "1:10")
	s.Seed = cmp.Or(s.Seed, o.Seed)
	s.DurationS = cmp.Or(s.DurationS, o.Duration.Seconds())
	s.FastGB = cmp.Or(s.FastGB, float64(o.FastGB))
	s.SlowGB = cmp.Or(s.SlowGB, float64(o.SlowGB))
	s.PagesPerGB = cmp.Or(s.PagesPerGB, o.PagesPerGB)
	return s
}

// Flags binds the spec's fields to fs under the flag names chronosim and
// chronoctl share, each defaulting to the field's current value. Faults
// is left to the caller: not every command takes a fault plan.
func (s *Spec) Flags(fs *flag.FlagSet) {
	fs.StringVar(&s.Policy, "policy", s.Policy, "policy: Linux-NB|AutoTiering|Multi-Clock|TPP|Memtis|Chrono|Chrono-basic|... (+guard wraps any)")
	fs.StringVar(&s.Workload, "workload", s.Workload, "workload: pmbench|graph500|kvstore|multitenant")
	fs.IntVar(&s.Procs, "procs", s.Procs, "process count (pmbench/multitenant)")
	fs.Float64Var(&s.WSGB, "ws", s.WSGB, "working set GB per process (pmbench)")
	fs.Float64Var(&s.ReadPct, "read", s.ReadPct, "read percentage")
	fs.IntVar(&s.Stride, "stride", s.Stride, "pmbench stride")
	fs.Float64Var(&s.TotalGB, "total", s.TotalGB, "total working set GB (graph500)")
	fs.StringVar(&s.Flavor, "flavor", s.Flavor, "kvstore flavor: memcached|redis")
	fs.StringVar(&s.SetGet, "setget", s.SetGet, "kvstore SET:GET mix (1:10 or 1:1)")
	fs.BoolVar(&s.Huge, "huge", s.Huge, "map huge pages")
	fs.Uint64Var(&s.Seed, "seed", s.Seed, "simulation seed")
	fs.Float64Var(&s.DurationS, "secs", s.DurationS, "virtual duration seconds")
	fs.Float64Var(&s.FastGB, "fast", s.FastGB, "fast tier GB")
	fs.Float64Var(&s.SlowGB, "slow", s.SlowGB, "slow tier GB")
	fs.Int64Var(&s.PagesPerGB, "pages-per-gb", s.PagesPerGB, "simulated pages per GB (0 = default 256; 262144 = full fidelity, one page per real 4 KB)")
}

// Validate rejects a spec before anything simulates, so a typo costs
// one error message, never a wasted or silently different run. Zero
// sizes and duration pass: Opts resolves them to the RunOpts defaults.
func (s Spec) Validate() error {
	if _, err := NewPolicy(s.Policy); err != nil {
		return err
	}
	if _, err := s.NewWorkload(); err != nil {
		return err
	}
	if _, err := s.Opts(); err != nil {
		return err
	}
	if s.DurationS < 0 || s.FastGB < 0 || s.SlowGB < 0 || s.PagesPerGB < 0 {
		return fmt.Errorf("experiments: negative size or duration in spec")
	}
	return nil
}

// Duration is the run's virtual horizon.
func (s Spec) Duration() simclock.Duration { return simclock.FromSeconds(s.DurationS) }

// NewWorkload constructs a fresh workload from the spec — fresh per
// call, because Build mutates workload state.
func (s Spec) NewWorkload() (workload.Workload, error) {
	mode := engine.BasePages
	if s.Huge {
		mode = engine.HugePages
	}
	switch s.Workload {
	case "pmbench":
		return &workload.Pmbench{
			Processes: s.Procs, WorkingSetGB: units.GB(s.WSGB), ReadPct: s.ReadPct,
			Stride: s.Stride, Mode: mode,
		}, nil
	case "graph500":
		return &workload.Graph500{TotalGB: units.GB(s.TotalGB), Mode: mode}, nil
	case "kvstore":
		f := workload.Memcached
		switch s.Flavor {
		case "memcached":
		case "redis":
			f = workload.Redis
		default:
			return nil, fmt.Errorf("experiments: unknown kvstore flavor %q (memcached|redis)", s.Flavor)
		}
		set, get := 1.0, 10.0
		switch s.SetGet {
		case "1:10":
		case "1:1":
			get = 1
		default:
			return nil, fmt.Errorf("experiments: unknown kvstore mix %q (1:10|1:1)", s.SetGet)
		}
		return &workload.KVStore{Flavor: f, StoreGB: 160, SetRatio: set, GetRatio: get, Mode: mode}, nil
	case "multitenant":
		return &workload.MultiTenant{Tenants: s.Procs}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown workload %q (pmbench|graph500|kvstore|multitenant)", s.Workload)
	}
}

// Opts maps the spec's simulation knobs onto RunOpts.
func (s Spec) Opts() (RunOpts, error) {
	plan, err := faultinject.ParsePlan(s.Faults)
	if err != nil {
		return RunOpts{}, fmt.Errorf("experiments: fault plan: %w", err)
	}
	return RunOpts{
		Seed:       s.Seed,
		Duration:   s.Duration(),
		PagesPerGB: s.PagesPerGB,
		FastGB:     units.GB(s.FastGB),
		SlowGB:     units.GB(s.SlowGB),
		Faults:     plan,
	}, nil
}

// Build materializes the spec into a ready-to-run engine with polName
// attached. polName is passed separately from s.Policy because live
// reconfiguration and rollback rebuild the same spec under a different
// policy.
func (s Spec) Build(polName string) (*engine.Engine, workload.Workload, error) {
	o, err := s.Opts()
	if err != nil {
		return nil, nil, err
	}
	w, err := s.NewWorkload()
	if err != nil {
		return nil, nil, err
	}
	e, err := Build(polName, w, o)
	if err != nil {
		return nil, nil, err
	}
	return e, w, nil
}
