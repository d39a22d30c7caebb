package sim

import (
	"math"
	"testing"
)

// lockstepSink is the in-process linear reference for the fair-share
// core. The former reference mode kept every active flow of a Resource
// in an admission-ordered slice and found the earliest finisher by a
// linear flowLess scan; every float expression was shared with the
// finish-tag heap, so the two could differ only in which flows are
// active and which one earliest() returns. This sink keeps that slice
// beside the heap and asserts, at every FlowStarted/FlowEnded callback
// and at every op boundary the test reports through checkAll, that the
// heap holds as many flows as the slice and that the heap head equals
// the slice's linear minimum over finite tags. Every state earliest()
// reads — in flush and in the completeRipe cascade — lies at one of
// these points (the heap changes only inside admit, Cancel and the
// cascade, each followed by its callback), so passing the lockstep
// proves the heap byte-identical to the linear reference.
//
// A completing flow must also be the slice's minimum at the moment it
// ends: completion order is the reference's admission-tiebroken order.
type lockstepSink struct {
	t      testing.TB
	res    []*Resource // in first-seen order, for deterministic checkAll
	flows  map[*Resource][]*Flow
	checks int
}

// newLockstepSink installs a lockstep sink on eng.
func newLockstepSink(t testing.TB, eng *Engine) *lockstepSink {
	s := &lockstepSink{t: t, flows: map[*Resource][]*Flow{}}
	eng.SetFlowSink(s)
	return s
}

func (s *lockstepSink) FlowStarted(r *Resource, f *Flow) {
	if _, ok := s.flows[r]; !ok {
		s.res = append(s.res, r)
	}
	s.flows[r] = append(s.flows[r], f)
	s.check(r)
}

func (s *lockstepSink) FlowEnded(r *Resource, f *Flow, completed bool) {
	fl := s.flows[r]
	if completed {
		if want := linearEarliest(fl); want != f {
			s.t.Fatalf("%s: completed flow seq %d, linear reference's earliest is %v",
				r.name, f.seq, flowSeq(want))
		}
	}
	i := indexOf(fl, f)
	if i < 0 {
		s.t.Fatalf("%s: ended flow seq %d was never started", r.name, f.seq)
	}
	s.flows[r] = append(fl[:i], fl[i+1:]...)
	s.check(r)
}

// checkAll asserts the lockstep on every resource seen so far.
func (s *lockstepSink) checkAll() {
	for _, r := range s.res {
		s.check(r)
	}
}

// active reports how many flows the reference believes active on r.
func (s *lockstepSink) active(r *Resource) int { return len(s.flows[r]) }

func (s *lockstepSink) check(r *Resource) {
	s.checks++
	fl := s.flows[r]
	if len(r.heap) != len(fl) {
		s.t.Fatalf("%s: heap holds %d flows, linear reference %d", r.name, len(r.heap), len(fl))
	}
	if got, want := r.earliest(), linearEarliest(fl); got != want {
		s.t.Fatalf("%s: heap head is flow %v, linear reference's earliest is %v",
			r.name, flowSeq(got), flowSeq(want))
	}
}

// linearEarliest is the reference mode's earliest(): a linear flowLess
// scan of the admission-ordered slice, skipping persistent flows.
func linearEarliest(fl []*Flow) *Flow {
	var best *Flow
	for _, f := range fl {
		if math.IsInf(f.tag, 1) {
			continue
		}
		if best == nil || flowLess(f, best) {
			best = f
		}
	}
	return best
}

func indexOf(fl []*Flow, f *Flow) int {
	for i, g := range fl {
		if g == f {
			return i
		}
	}
	return -1
}

// flowSeq names a flow by admission sequence in failure messages.
func flowSeq(f *Flow) any {
	if f == nil {
		return "none"
	}
	return f.seq
}

// lockstepUT runs the op scripts on a Resource with the lockstep sink
// installed, checking after every op and accounting probe.
type lockstepUT struct {
	resourceUT
	sink *lockstepSink
}

func (u lockstepUT) start(size Bytes, weight float64, done func()) func() {
	cancel := u.resourceUT.start(size, weight, done)
	u.sink.checkAll()
	return func() {
		cancel()
		u.sink.checkAll()
	}
}

func (u lockstepUT) startLoad(weight float64) func() {
	cancel := u.resourceUT.startLoad(weight)
	u.sink.checkAll()
	return func() {
		cancel()
		u.sink.checkAll()
	}
}

func (u lockstepUT) setScale(s float64) {
	u.resourceUT.setScale(s)
	u.sink.checkAll()
}

func (u lockstepUT) bytesMoved() Bytes {
	b := u.resourceUT.bytesMoved()
	u.sink.checkAll()
	return b
}

func (u lockstepUT) busyTime() Duration {
	d := u.resourceUT.busyTime()
	u.sink.checkAll()
	return d
}

// TestLockstepSinkCatchesContainerDrift is the sink's own mutation
// check: a heap whose head is corrupted behind the sink's back must be
// reported at the next check.
func TestLockstepSinkCatchesContainerDrift(t *testing.T) {
	eng := NewEngine(1)
	rec := &fatalRecorder{TB: t}
	s := newLockstepSink(rec, eng)
	r := NewResource(eng, "r", 100*float64(MB), nil)
	r.Start(10*MB, nil)
	r.Start(20*MB, nil)
	s.checkAll()
	if rec.failed {
		t.Fatal("lockstep failed on an intact heap")
	}
	r.heap[0], r.heap[1] = r.heap[1], r.heap[0]
	s.checkAll()
	if !rec.failed {
		t.Fatal("lockstep missed a corrupted heap head")
	}
}

// fatalRecorder records Fatalf instead of stopping the test.
type fatalRecorder struct {
	testing.TB
	failed bool
}

func (f *fatalRecorder) Fatalf(string, ...any) { f.failed = true }
