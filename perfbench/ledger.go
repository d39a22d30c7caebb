package main

import (
	"time"

	"dyrs/internal/cluster"
	"dyrs/internal/policy"
	"dyrs/internal/sim"
)

// spanKind names one layer boundary the traced run times. Every span is
// opened and closed by the benchmark's own code around a call into a
// layer's public API; nothing inside the simulator is instrumented.
type spanKind int

const (
	spanRun        spanKind = iota // sim: Engine.Run / RunUntil / RunFor
	spanCreate                     // dfs: FS.CreateFile
	spanRead                       // dfs: FS.ReadBlock call (admission, not the simulated transfer)
	spanReadDone                   // benchmark's read-completion callback
	spanMigrate                    // migration: Coordinator.Migrate
	spanNoteRead                   // migration: Coordinator.NoteRead
	spanEvict                      // migration: Coordinator.Evict
	spanBegin                      // policy: Policy.Begin
	spanAssign                     // policy: Policy.Assign
	spanGen                        // workload / gtrace: drawing the workload
	spanPaperTrace                 // experiments.RunTrace (Figs. 1-3)
	spanPaperHive                  // experiments.RunHive (Fig. 4)
	spanPaperSWIM                  // experiments.RunSWIM (Table I, Figs. 5-7)
	spanPaperSort                  // experiments.RunFig8/RunTableII/RunFig10/RunFig11
	numSpans
)

var spanNames = [numSpans]string{
	"sim.run", "dfs.create", "dfs.read", "bench.read_done",
	"migration.migrate", "migration.noteread", "migration.evict",
	"policy.begin", "policy.assign", "workload.gen",
	"paper.trace", "paper.hive", "paper.swim", "paper.sort",
}

// spanStat aggregates every closed span of one kind: how many, their
// total host time, and their self time (total minus the part covered by
// directly nested spans).
type spanStat struct {
	count int64
	total time.Duration
	self  time.Duration
}

type frame struct {
	kind  spanKind
	start time.Time
	child time.Duration
}

// ledger is the traced run's span recorder. Spans nest on a stack (the
// model is single-threaded per engine), and are folded into per-kind
// aggregates as they close rather than kept one by one: Scale1k closes
// about a million NoteRead spans per pass. A nil *ledger is the untraced
// run; its methods are no-ops.
type ledger struct {
	stats [numSpans]spanStat
	stack []frame
}

func (l *ledger) begin(k spanKind) {
	if l == nil {
		return
	}
	l.stack = append(l.stack, frame{kind: k, start: time.Now()})
}

func (l *ledger) end() {
	if l == nil {
		return
	}
	n := len(l.stack) - 1
	f := l.stack[n]
	l.stack = l.stack[:n]
	d := time.Since(f.start)
	s := &l.stats[f.kind]
	s.count++
	s.total += d
	s.self += d - f.child
	if n > 0 {
		l.stack[n-1].child += d
	}
}

// span runs fn inside a span of kind k.
func (l *ledger) span(k spanKind, fn func()) {
	l.begin(k)
	fn()
	l.end()
}

// timedPolicy wraps a migration target-selection policy so the traced
// run can time Begin and Assign calls from outside the policy package.
// It is handed to migration.NewPolicyBinder in place of the bare policy.
type timedPolicy struct {
	policy.Policy
	l          *ledger
	unassigned int64
}

func (p *timedPolicy) Begin(v policy.View) {
	p.l.begin(spanBegin)
	p.Policy.Begin(v)
	p.l.end()
}

func (p *timedPolicy) Assign(req policy.Request) (cluster.NodeID, bool) {
	p.l.begin(spanAssign)
	t, ok := p.Policy.Assign(req)
	p.l.end()
	if !ok {
		p.unassigned++
	}
	return t, ok
}

// wrapPolicy returns p unchanged for the untraced run and a timing
// wrapper for the traced one.
func wrapPolicy(p policy.Policy, l *ledger) (policy.Policy, *timedPolicy) {
	if l == nil {
		return p, nil
	}
	tp := &timedPolicy{Policy: p, l: l}
	return tp, tp
}

// flowCounter is a sim.FlowSink that counts flow admissions, cancels and
// the peak number of concurrently active flows on one engine, then
// forwards to the sink that was installed before it (the run's
// trace.Tracer), so installing it leaves the run's own trace unchanged.
type flowCounter struct {
	next    sim.FlowSink
	flows   int64
	cancels int64
	active  int64
	peak    int64
}

func (c *flowCounter) FlowStarted(r *sim.Resource, f *sim.Flow) {
	c.flows++
	c.active++
	if c.active > c.peak {
		c.peak = c.active
	}
	if c.next != nil {
		c.next.FlowStarted(r, f)
	}
}

func (c *flowCounter) FlowEnded(r *sim.Resource, f *sim.Flow, completed bool) {
	c.active--
	if !completed {
		c.cancels++
	}
	if c.next != nil {
		c.next.FlowEnded(r, f, completed)
	}
}
