package migration

import (
	"testing"
	"time"
)

// asleep counts the slaves outside the coordinator's awake set.
func (c *Coordinator) asleep() int {
	n := 0
	for i := range c.slaves {
		if c.awake[i/64]&(1<<(uint(i)%64)) == 0 {
			n++
		}
	}
	return n
}

// idleRig builds an n-node coordinator with the estimate series off and
// runs one heartbeat, after which every slave is quiescent.
func idleRig(tb testing.TB, nodes int) *testRig {
	cfg := DefaultConfig()
	cfg.DisableEstimateSeries = true
	r := newRig(tb, 1, nodes, NewDYRSBinder(), nil, cfg)
	r.eng.RunFor(cfg.Heartbeat)
	if got := r.c.asleep(); got != nodes {
		tb.Fatalf("%d of %d slaves asleep after an idle beat", got, nodes)
	}
	return r
}

// TestSlaveQuiescenceRule checks each clause of Slave.quiescent on an
// idle slave, and that the wake points return a slave to the heartbeat.
func TestSlaveQuiescenceRule(t *testing.T) {
	r := idleRig(t, 4)
	f := r.mkFile(t, "f", 1)
	s := r.c.Slave(1)
	if !s.quiescent() {
		t.Fatal("idle slave is not quiescent")
	}
	perturb := []struct {
		name string
		do   func() (undo func())
	}{
		{"estimate series", func() func() {
			r.c.cfg.DisableEstimateSeries = false
			return func() { r.c.cfg.DisableEstimateSeries = true }
		}},
		{"queued block", func() func() {
			s.queue = []*blockInfo{{}}
			return func() { s.queue = nil }
		}},
		{"active transfer", func() func() {
			s.active = []*blockInfo{{}}
			return func() { s.active = nil }
		}},
		{"binder pending", func() func() {
			b := r.c.binder.(*PolicyBinder)
			b.pending = []*blockInfo{{inPending: true}}
			return func() { b.pending = nil }
		}},
		{"buffer above scavenge threshold", func() func() {
			r.fs.RegisterMem(f.Blocks[0], 1)
			saved := s.memLimit
			s.memLimit = r.fs.Config().BlockSize
			return func() { r.fs.DropMem(f.Blocks[0], 1); s.memLimit = saved }
		}},
		{"unreported estimate", func() func() {
			saved := r.c.estimates[1]
			r.c.estimates[1] = nodeEstimate{perByte: saved.perByte, queued: 1}
			return func() { r.c.estimates[1] = saved }
		}},
	}
	for _, p := range perturb {
		undo := p.do()
		if s.quiescent() {
			t.Errorf("%s: slave still quiescent", p.name)
		}
		undo()
		if !s.quiescent() {
			t.Fatalf("%s: undo left the slave busy", p.name)
		}
	}

	// A dead or stopped slave ticks as a no-op whatever its state.
	s.queue = []*blockInfo{{}}
	r.cl.KillNode(1)
	if !s.quiescent() {
		t.Error("slave on a dead node is not quiescent")
	}
	r.cl.ReviveNode(1)
	s.stopped = true
	if !s.quiescent() {
		t.Error("stopped slave is not quiescent")
	}
	s.stopped, s.queue = false, nil

	// Direct wake points: a bind and a slave restart.
	bi := &blockInfo{id: f.Blocks[0], size: r.fs.Config().BlockSize}
	s.enqueue(bi)
	if n := r.c.asleep(); n != 3 {
		t.Errorf("enqueue: %d asleep, want 3", n)
	}
	s.dequeue(bi)
	r.c.transition(bi, stateNone)
	r.c.RestartSlaveProcess(2)
	if n := r.c.asleep(); n != 2 {
		t.Errorf("slave restart: %d asleep, want 2", n)
	}
	r.eng.RunFor(time.Second)

	// Epoch wake points: a beat ticks sleeping slave 0 (and so corrects
	// a planted stale report) only after membership or a buffer moved.
	ticked := func() bool {
		r.c.estimates[0] = nodeEstimate{}
		r.eng.RunFor(time.Second)
		return r.c.estimates[0] != nodeEstimate{}
	}
	if ticked() {
		t.Error("a quiet beat ticked a sleeping slave")
	}
	r.cl.KillNode(3)
	if !ticked() {
		t.Error("a node death did not wake the fleet")
	}
	r.fs.RegisterMem(f.Blocks[0], 2)
	if !ticked() {
		t.Error("buffer growth outside a migration did not wake the fleet")
	}
}

// TestQuiescentBeatAllocs pins a beat over an all-quiescent fleet at
// zero allocations.
func TestQuiescentBeatAllocs(t *testing.T) {
	r := idleRig(t, 1000)
	if a := testing.AllocsPerRun(100, r.c.beat); a != 0 {
		t.Fatalf("quiescent beat allocates %.1f times", a)
	}
}

// BenchmarkHeartbeat1k measures one coordinator beat over 1,000 slaves:
// all quiescent (the idle datacenter case) and all awake (every slave
// ticks: estimate report, scavenge check, pull and kick).
func BenchmarkHeartbeat1k(b *testing.B) {
	b.Run("quiescent", func(b *testing.B) {
		r := idleRig(b, 1000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.c.beat()
		}
	})
	b.Run("awake", func(b *testing.B) {
		r := idleRig(b, 1000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.c.wakeAll()
			r.c.beat()
		}
	})
}
