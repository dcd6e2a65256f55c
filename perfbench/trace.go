package main

// Layer timing from outside the simulator. A traced cell wraps its policy
// in tracedPolicy, which hands the inner policy a tracedKernel, and
// installs afterStep as the clock's after-step hook. Every call across
// the policy/engine boundary becomes a span on one stack; a span's self
// time is its duration minus the spans nested inside it. Spans are folded
// into per-layer totals as they close, so a traced run keeps a fixed
// amount of memory however many faults it replays.
//
// The engine's own work is timed by difference. The run loop replays
// hint faults (each one an OnFault span) and fires master clock events,
// and the hook runs after every event. So the time from the end of one
// OnFault (or hook) to the start of the next OnFault is fault replay, and
// the time from there to the hook is one master event. A master event in
// which the policy called the kernel outside any callback is a policy
// cycle; any other event is an engine tick (epoch accounting, kswapd, LRU
// aging, cgroup reclaim, workload phase changes).

import (
	"time"

	"chrono/internal/mem"
	"chrono/internal/pebs"
	"chrono/internal/policy"
	"chrono/internal/rng"
	"chrono/internal/simclock"
	"chrono/internal/sysctl"
	"chrono/internal/units"
	"chrono/internal/vm"
)

// layer names a span kind whose self time the tracer accumulates.
type layer int

const (
	lPolicyFault    layer = iota // Policy.OnFault
	lPolicyMigrated              // Policy.OnMigrated, OnPageMapped, OnPageFreed
	lPolicyAttach                // policy construction and Policy.Attach
	lKernelMigrate               // Promote, Demote, TryPromote, TryDemote, PromoteShadowed
	lKernelScan                  // Protect, Unprotect, AccessedTestAndClear
	lKernelLRU                   // InactiveTail
	lPEBSSample                  // SamplePEBS
	nLayers
)

type layerStat struct {
	calls  int64
	selfNS int64
}

type frame struct {
	start   int64
	childNS int64
}

// tracer accumulates one traced cell's spans.
type tracer struct {
	base  time.Time
	stack []frame
	stats [nLayers]layerStat

	// Segment state between replayed faults and master events: mark is
	// where the current segment began, segChildNS the time of top-level
	// spans that closed inside it, policyActive whether the policy called
	// the kernel outside a callback during it.
	mark         int64
	segChildNS   int64
	policyActive bool

	replayNS   int64
	tickNS     int64
	tickCount  int64
	cycleNS    int64
	cycleCount int64
	migrateOK  int64
	samples    int64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// open opens a span.
func (t *tracer) open() { t.stack = append(t.stack, frame{start: t.now()}) }

// enter opens a kernel-service span. One opened with an empty stack comes
// from a policy acting on its own schedule, which marks the current master
// event as a policy cycle.
func (t *tracer) enter() {
	t.touch()
	t.open()
}

// exit closes the innermost span and charges it to l.
func (t *tracer) exit(l layer) {
	end := t.now()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := end - f.start
	t.stats[l].calls++
	t.stats[l].selfNS += d - f.childNS
	if n := len(t.stack); n > 0 {
		t.stack[n-1].childNS += d
	} else {
		t.segChildNS += d
	}
}

// touch records a cheap kernel call that is not timed on its own.
func (t *tracer) touch() {
	if len(t.stack) == 0 {
		t.policyActive = true
	}
}

// startRun opens the first segment of Run.
func (t *tracer) startRun() {
	t.mark, t.segChildNS, t.policyActive = t.now(), 0, false
}

// afterStep closes the master event that just fired.
func (t *tracer) afterStep() {
	self := t.now() - t.mark - t.segChildNS
	if t.policyActive {
		t.cycleCount++
		t.cycleNS += self
	} else {
		t.tickCount++
		t.tickNS += self
	}
	t.startRun()
}

// tracedPolicy times the engine's calls into a policy.
type tracedPolicy struct {
	inner policy.Policy
	t     *tracer
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

// Attach hands the inner policy a timed kernel. The attach span itself is
// opened by the caller, around construction and Attach.
func (p *tracedPolicy) Attach(k policy.Kernel) { p.inner.Attach(wrapKernel(k, p.t)) }

// OnFault closes the replay segment that led to the fault, and the fault
// span opens the next one when it ends.
func (p *tracedPolicy) OnFault(pg *vm.Page, now simclock.Time) {
	t := p.t
	t.replayNS += t.now() - t.mark - t.segChildNS
	t.segChildNS = 0
	t.open()
	p.inner.OnFault(pg, now)
	t.exit(lPolicyFault)
	t.mark, t.segChildNS = t.now(), 0
}

func (p *tracedPolicy) OnPageMapped(pg *vm.Page) {
	p.t.open()
	p.inner.OnPageMapped(pg)
	p.t.exit(lPolicyMigrated)
}

func (p *tracedPolicy) OnPageFreed(pg *vm.Page) {
	p.t.open()
	p.inner.OnPageFreed(pg)
	p.t.exit(lPolicyMigrated)
}

func (p *tracedPolicy) OnMigrated(pg *vm.Page, from, to mem.TierID) {
	p.t.open()
	p.inner.OnMigrated(pg, from, to)
	p.t.exit(lPolicyMigrated)
}

// wrapKernel returns the timed kernel handle, keeping the transactional
// extension when the engine offers it: Nomad and every "+guard" policy
// type-assert for it, and would silently lose the transactional path on
// a handle without it.
func wrapKernel(k policy.Kernel, t *tracer) policy.Kernel {
	tk := &tracedKernel{k: k, t: t}
	if tx, ok := k.(policy.TransactionalKernel); ok {
		return &tracedTxKernel{tracedKernel: tk, tx: tx}
	}
	return tk
}

// tracedKernel times a policy's calls into the kernel services.
type tracedKernel struct {
	k policy.Kernel
	t *tracer
}

func (k *tracedKernel) migrated(ok bool) {
	if ok {
		k.t.migrateOK++
	}
	k.t.exit(lKernelMigrate)
}

func (k *tracedKernel) Clock() *simclock.Clock       { k.t.touch(); return k.k.Clock() }
func (k *tracedKernel) Node() *mem.Node              { k.t.touch(); return k.k.Node() }
func (k *tracedKernel) Processes() []*vm.Process     { k.t.touch(); return k.k.Processes() }
func (k *tracedKernel) Pages() []*vm.Page            { k.t.touch(); return k.k.Pages() }
func (k *tracedKernel) ChargeKernel(ns units.NS)     { k.t.touch(); k.k.ChargeKernel(ns) }
func (k *tracedKernel) CostScale() float64           { k.t.touch(); return k.k.CostScale() }
func (k *tracedKernel) HugeFactor() int              { k.t.touch(); return k.k.HugeFactor() }
func (k *tracedKernel) CountContextSwitches(n int64) { k.t.touch(); k.k.CountContextSwitches(n) }
func (k *tracedKernel) RNG() *rng.Source             { k.t.touch(); return k.k.RNG() }
func (k *tracedKernel) Sysctl() *sysctl.Table        { k.t.touch(); return k.k.Sysctl() }
func (k *tracedKernel) FastFree() int64              { k.t.touch(); return k.k.FastFree() }

func (k *tracedKernel) HugeUtilization(pg *vm.Page) float64 {
	k.t.touch()
	return k.k.HugeUtilization(pg)
}

// SplitHuge is not a migration attempt; its time stays with the caller.
func (k *tracedKernel) SplitHuge(pg *vm.Page) []*vm.Page {
	k.t.touch()
	return k.k.SplitHuge(pg)
}

func (k *tracedKernel) Protect(pg *vm.Page) {
	k.t.enter()
	k.k.Protect(pg)
	k.t.exit(lKernelScan)
}

func (k *tracedKernel) Unprotect(pg *vm.Page) {
	k.t.enter()
	k.k.Unprotect(pg)
	k.t.exit(lKernelScan)
}

func (k *tracedKernel) AccessedTestAndClear(pg *vm.Page) bool {
	k.t.enter()
	a := k.k.AccessedTestAndClear(pg)
	k.t.exit(lKernelScan)
	return a
}

func (k *tracedKernel) Promote(pg *vm.Page) bool {
	k.t.enter()
	ok := k.k.Promote(pg)
	k.migrated(ok)
	return ok
}

func (k *tracedKernel) Demote(pg *vm.Page) bool {
	k.t.enter()
	ok := k.k.Demote(pg)
	k.migrated(ok)
	return ok
}

func (k *tracedKernel) TryPromote(pg *vm.Page) policy.MigrateResult {
	k.t.enter()
	r := k.k.TryPromote(pg)
	k.migrated(r == policy.MigrateOK)
	return r
}

func (k *tracedKernel) TryDemote(pg *vm.Page) policy.MigrateResult {
	k.t.enter()
	r := k.k.TryDemote(pg)
	k.migrated(r == policy.MigrateOK)
	return r
}

func (k *tracedKernel) InactiveTail(tier mem.TierID, n int) []*vm.Page {
	k.t.enter()
	pgs := k.k.InactiveTail(tier, n)
	k.t.exit(lKernelLRU)
	return pgs
}

func (k *tracedKernel) SamplePEBS(s *pebs.Sampler, period units.Sec) int {
	k.t.enter()
	n := k.k.SamplePEBS(s, period)
	k.t.exit(lPEBSSample)
	k.t.samples += int64(n)
	return n
}

// tracedTxKernel is tracedKernel over an engine with transactional
// migration.
type tracedTxKernel struct {
	*tracedKernel
	tx policy.TransactionalKernel
}

func (k *tracedTxKernel) PromoteShadowed(pg *vm.Page) policy.MigrateResult {
	k.t.enter()
	r := k.tx.PromoteShadowed(pg)
	k.migrated(r == policy.MigrateOK)
	return r
}

func (k *tracedTxKernel) Shadowed(pg *vm.Page) bool {
	k.t.touch()
	return k.tx.Shadowed(pg)
}
