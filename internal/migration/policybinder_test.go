package migration

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"
	"time"

	"dyrs/internal/cluster"
	"dyrs/internal/dfs"
	"dyrs/internal/policy"
	"dyrs/internal/sim"
	"dyrs/internal/trace"
)

func TestNewPolicyBinderRejectsNonMigrating(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPolicyBinder(HDFS) did not panic")
		}
	}()
	NewPolicyBinder(policy.NewHDFS())
}

// TestPolicyBinderImmediateBindsOnMigrate drives the immediate-binding
// path: an Ignem-backed PolicyBinder must enqueue every block at
// OnMigrate (no pending list) and migrate the whole file.
func TestPolicyBinderImmediateBindsOnMigrate(t *testing.T) {
	b := NewPolicyBinder(policy.NewIgnem())
	r := newRig(t, 1, 4, b, nil, DefaultConfig())
	r.mkFile(t, "in", 8)
	if err := r.c.Migrate(1, []string{"in"}, false); err != nil {
		t.Fatal(err)
	}
	if got := b.PendingCount(); got != 0 {
		t.Errorf("immediate binder holds %d pending blocks", got)
	}
	r.eng.RunUntil(sim.Time(120 * time.Second))
	st := r.c.Stats()
	if st.Requested != 8 || st.Migrated != 8 {
		t.Fatalf("requested=%d migrated=%d, want 8/8", st.Requested, st.Migrated)
	}
	r.c.Shutdown()
}

// TestPolicyBinderCostAwareMigrates drives the new heuristic end to end
// through the delayed-binding machinery.
func TestPolicyBinderCostAwareMigrates(t *testing.T) {
	b := NewPolicyBinder(policy.NewCostAware())
	r := newRig(t, 1, 4, b, nil, DefaultConfig())
	r.mkFile(t, "in", 8)
	if err := r.c.Migrate(1, []string{"in"}, false); err != nil {
		t.Fatal(err)
	}
	r.eng.RunUntil(sim.Time(120 * time.Second))
	st := r.c.Stats()
	if st.Requested != 8 || st.Migrated != 8 {
		t.Fatalf("requested=%d migrated=%d, want 8/8", st.Requested, st.Migrated)
	}
	if b.Name() != "CostAware" {
		t.Errorf("binder name %q", b.Name())
	}
	if b.Policy().Name() != "CostAware" {
		t.Errorf("wrapped policy name %q", b.Policy().Name())
	}
	r.c.Shutdown()
}

// TestPolicyBinderMatchesReference is the live half of the DYRS
// conformance proof (the harness pins whole runs to a golden digest):
// each rig runs once under the extracted DYRS policy and once under the
// frozen reference binder (refbinder_test.go), and the two must produce
// identical stats, per-slave migration counts and canonical trace
// digests. The rigs cover the binder's whole surface: the fault-free
// delayed-binding loop, a slave restart (queued and active work lost), a
// master restart (Reset, then fresh requests), a dead node (stale
// liveness, rerouted pending blocks) and a non-FIFO OrderPolicy (the
// pending list reordered before every Algorithm 1 pass).
func TestPolicyBinderMatchesReference(t *testing.T) {
	// Node 1 runs at a third of nominal disk speed so the estimates, and
	// with them Algorithm 1's targets, are not uniform.
	slowOne := func(i int) cluster.NodeConfig {
		c := cluster.DefaultNodeConfig()
		if i == 1 {
			c.DiskScale = 0.3
		}
		return c
	}
	edf := DefaultConfig()
	edf.Order = OrderEDF
	rigs := []struct {
		name string
		cfg  Config
		// fault, when non-nil, runs at faultAt, before the second
		// request (at 5s).
		fault   func(r *testRig)
		faultAt time.Duration
		// hints, when set, makes the second (smaller) job the more urgent
		// one and submits both requests together, so the order policy
		// has something to reorder.
		hints bool
	}{
		{name: "fault-free", cfg: DefaultConfig()},
		{name: "slave-restart", cfg: DefaultConfig(), faultAt: 3 * time.Second,
			fault: func(r *testRig) { r.c.RestartSlaveProcess(2) }},
		// Before the first heartbeat pull, so pending blocks are lost.
		{name: "master-restart", cfg: DefaultConfig(), faultAt: 500 * time.Millisecond,
			fault: func(r *testRig) { r.c.RestartMaster() }},
		{name: "dead-node", cfg: DefaultConfig(), faultAt: 3 * time.Second, fault: func(r *testRig) {
			r.cl.KillNode(3)
			r.c.RestartSlaveProcess(3)
		}},
		{name: "order-edf", cfg: edf, hints: true},
	}
	type outcome struct {
		stats     Stats
		per       []int
		traceHash string
	}
	run := func(t *testing.T, binder Binder, cfg Config, fault func(*testRig), faultAt time.Duration, hints bool) outcome {
		const nodes = 6
		eng := sim.NewEngine(7)
		tr := trace.New(eng)
		cl := cluster.New(eng, nodes, slowOne)
		fs := dfs.New(cl, dfs.DefaultConfig())
		r := &testRig{eng: eng, cl: cl, fs: fs, c: NewCoordinator(fs, cfg, binder)}
		// More blocks than the slaves' queues hold, so some stay pending
		// at the master between heartbeats.
		r.mkFile(t, "a", 40)
		r.mkFile(t, "b", 24)
		if hints {
			r.c.SetJobHint(1, JobHint{ExpectedStart: sim.Time(40 * time.Second), InputBytes: 40 * fs.Config().BlockSize})
			r.c.SetJobHint(2, JobHint{ExpectedStart: sim.Time(10 * time.Second), InputBytes: 24 * fs.Config().BlockSize})
		}
		if err := r.c.Migrate(1, []string{"a"}, false); err != nil {
			t.Fatal(err)
		}
		second := func() {
			if err := r.c.Migrate(2, []string{"b"}, false); err != nil {
				t.Fatal(err)
			}
		}
		if hints {
			second()
		}
		if fault != nil {
			eng.At(sim.Time(faultAt), func() { fault(r) })
		}
		if !hints {
			eng.At(sim.Time(5*time.Second), second)
		}
		eng.RunUntil(sim.Time(10 * time.Minute))
		per := make([]int, nodes)
		for i := range per {
			per[i] = r.c.Slave(cluster.NodeID(i)).Migrations
		}
		st := r.c.Stats()
		r.c.Shutdown()
		h := sha256.New()
		if err := tr.WriteJSON(h); err != nil {
			t.Fatal(err)
		}
		return outcome{st, per, hex.EncodeToString(h.Sum(nil))}
	}
	for _, rig := range rigs {
		t.Run(rig.name, func(t *testing.T) {
			ext := run(t, NewDYRSBinder(), rig.cfg, rig.fault, rig.faultAt, rig.hints)
			ref := run(t, NewReferenceDYRSBinder(), rig.cfg, rig.fault, rig.faultAt, rig.hints)
			if ext.stats.Migrated == 0 {
				t.Fatal("rig migrated nothing; the comparison exercised no binding")
			}
			if ext.stats != ref.stats {
				t.Errorf("stats diverge: extracted %+v, reference %+v", ext.stats, ref.stats)
			}
			if !reflect.DeepEqual(ext.per, ref.per) {
				t.Errorf("per-slave migrations diverge: extracted %v, reference %v", ext.per, ref.per)
			}
			if ext.traceHash != ref.traceHash {
				t.Errorf("trace digest diverges: extracted %.12s…, reference %.12s…", ext.traceHash, ref.traceHash)
			}
		})
	}
}
