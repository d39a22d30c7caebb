package migration

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path"
	"testing"
	"time"

	"dyrs/internal/cache"
	"dyrs/internal/cluster"
	"dyrs/internal/dfs"
	"dyrs/internal/policy"
	"dyrs/internal/sim"
	"dyrs/internal/trace"
)

// The slave heartbeat contract: every slave beats once per Heartbeat at
// the same instants, in node-ID order, and a beat a slave skips must be
// one that would have done nothing. The tests below pin whole-run
// observables (canonical trace hash, coordinator stats, end time) on
// rigs chosen to stress that contract, and run each rig twice — with
// the Fig. 9 estimate series on, which keeps every slave awake, and
// with it off, which lets idle slaves leave the heartbeat — demanding
// identical results.

// runDigest is the whole-run observable set of one rig run.
type runDigest struct {
	Trace string
	Stats Stats
	End   sim.Time
}

// newTracedRig is newRig with a tracer attached before any component
// is built, so every migration, read and eviction lands in the trace.
func newTracedRig(t *testing.T, seed int64, nodes int, binder Binder, cfgNode func(int) cluster.NodeConfig, cfg Config) (*testRig, *trace.Tracer) {
	t.Helper()
	eng := sim.NewEngine(seed)
	tr := trace.New(eng)
	cl := cluster.New(eng, nodes, cfgNode)
	fsCfg := dfs.DefaultConfig()
	if fsCfg.Replication > nodes {
		fsCfg.Replication = nodes
	}
	fs := dfs.New(cl, fsCfg)
	return &testRig{eng: eng, cl: cl, fs: fs, c: NewCoordinator(fs, cfg, binder)}, tr
}

// finish stops the framework at the given instant, drains the queue
// and digests the run.
func (r *testRig) finish(t *testing.T, tr *trace.Tracer, at time.Duration) runDigest {
	t.Helper()
	r.eng.At(sim.Time(at), r.c.Shutdown)
	r.eng.Run()
	h := sha256.New()
	if err := tr.WriteJSON(h); err != nil {
		t.Fatal(err)
	}
	return runDigest{Trace: hex.EncodeToString(h.Sum(nil)), Stats: r.c.Stats(), End: r.eng.Now()}
}

// migrateAt creates a file of the given block count and schedules a
// Migrate call for it.
func (r *testRig) migrateAt(t *testing.T, at time.Duration, job JobID, name string, blocks int) {
	t.Helper()
	r.mkFile(t, name, blocks)
	r.eng.At(sim.Time(at), func() {
		if err := r.c.Migrate(job, []string{name}, false); err != nil {
			t.Error(err)
		}
	})
}

// sameWithSeriesOff runs a rig with the estimate series on and off and
// demands identical digests; it returns the series-on digest.
func sameWithSeriesOff(t *testing.T, run func(cfg Config) runDigest, cfg Config) runDigest {
	t.Helper()
	cfg.DisableEstimateSeries = false
	on := run(cfg)
	cfg.DisableEstimateSeries = true
	off := run(cfg)
	if on != off {
		t.Fatalf("estimate series on vs off differ:\n on: %+v\noff: %+v", on, off)
	}
	return on
}

// boundaryNode is a node whose disk moves one 256 MB block in exactly
// one heartbeat, so unshared transfers start and finish on beat
// instants: every completion ties with a beat.
func boundaryNode(int) cluster.NodeConfig {
	c := cluster.DefaultNodeConfig()
	c.DiskBandwidth = 256 * float64(sim.MB)
	c.DiskSeekPenalty = 0
	return c
}

// runBoundaryRig traces six staggered Migrate calls on four boundary
// nodes with zero RPC latency, so pulls, transfer starts, completions
// and binder passes all share instants with the heartbeat. Calls land
// on beat instants (before the beat in queue order, except at 1s where
// the beat was queued first) and between them; two jobs share an
// instant.
func runBoundaryRig(t *testing.T, cfg Config) runDigest {
	r, tr := newTracedRig(t, 7, 4, NewDYRSBinder(), boundaryNode, cfg)
	r.cl.RPCLatency = 0
	calls := []struct {
		at     time.Duration
		blocks int
	}{
		{0, 6}, {time.Second, 4}, {2500 * time.Millisecond, 8},
		{4 * time.Second, 3}, {4 * time.Second, 5}, {9 * time.Second, 4},
	}
	for i, c := range calls {
		r.migrateAt(t, c.at, JobID(i+1), fmt.Sprintf("f%d", i), c.blocks)
	}
	r.eng.At(sim.Time(40*time.Second), func() {
		for j := JobID(1); j <= 6; j++ {
			r.c.Evict(j)
		}
	})
	return r.finish(t, tr, 50*time.Second)
}

// TestHeartbeatBoundaryRigGolden pins the boundary rig at queue depths
// 1 and 2 to the trace hash, stats and end time recorded when every
// slave still owned its own heartbeat ticker.
func TestHeartbeatBoundaryRigGolden(t *testing.T) {
	stats := Stats{Requested: 30, Migrated: 30, Evicted: 30, BytesMigrated: 30 * 256 * sim.MB}
	golden := map[int]runDigest{
		1: {Trace: "15428a838fe4d768b266e151163d496b97464b4540bfbae08a96654575b0ceb8", Stats: stats, End: sim.Time(50 * time.Second)},
		2: {Trace: "20f5959150347aa9156e26fe68c377d1fc2f06a5295eecd7920c5c46f69f9121", Stats: stats, End: sim.Time(50 * time.Second)},
	}
	for _, depth := range []int{1, 2} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.QueueDepth = depth
			got := sameWithSeriesOff(t, func(cfg Config) runDigest { return runBoundaryRig(t, cfg) }, cfg)
			if got != golden[depth] {
				t.Errorf("boundary rig digest moved:\n got: %#v\nwant: %#v", got, golden[depth])
			}
		})
	}
}

// TestHeartbeatWakeConditions drives each way an idle slave must be
// brought back into the heartbeat. Each case must match both a run
// where the estimate series keeps every slave awake and the digest
// recorded when every slave still owned its own heartbeat ticker — the
// latter catches a missed wake that series-on and series-off runs share,
// such as a revived node whose slave left the heartbeat while dead.
func TestHeartbeatWakeConditions(t *testing.T) {
	blocks := func(n int64) sim.Bytes { return sim.Bytes(n) * 256 * sim.MB }
	golden := map[string]runDigest{
		"node-death-revive": {Trace: "5ebeb5772860c9b268cb2db7f5a27c20ed25511e3e1e5f4e501741ace35b69e0",
			Stats: Stats{Requested: 16, Migrated: 16, BytesMigrated: blocks(16)}, End: sim.Time(60 * time.Second)},
		"slave-restart": {Trace: "202fb67e6898bb4e76590fffa2c21ef6f95e5950e8b66c986c47af3bd833da4c",
			Stats: Stats{Requested: 16, Migrated: 16, Evicted: 2, BytesMigrated: blocks(16)}, End: sim.Time(90 * time.Second)},
		"cache-admission": {Trace: "52d4ce0ac808eb66feb7ec1ed2195614a456731f985548b3feab235fb1ae4ca6",
			Stats: Stats{Requested: 2, Migrated: 2, Evicted: 3, BytesMigrated: blocks(2)}, End: sim.Time(60 * time.Second)},
		"job-ends-above-threshold": {Trace: "00b422a78c99393cfa52842efa5a052d80bf8b6332c665a89ccb79e3042c7d5b",
			Stats: Stats{Requested: 6, Migrated: 6, Evicted: 6, BytesMigrated: blocks(6)}, End: sim.Time(40 * time.Second)},
		"ignem-immediate-bind": {Trace: "e3b1c94e078d3ea53d3cead1157e027dbba0ea9cf89e616ad1a74648791f77a4",
			Stats: Stats{Requested: 15, Migrated: 15, BytesMigrated: blocks(15)}, End: sim.Time(60 * time.Second)},
		"target-update-onto-idle-slave": {Trace: "2fa9cb353a928ba6b28bc4a88e1813916fedc023de6f0b060a8e520cab2d79c2",
			Stats: Stats{Requested: 28, Migrated: 28, BytesMigrated: blocks(28)}, End: sim.Time(120 * time.Second)},
	}
	check := func(t *testing.T, run func(cfg Config) runDigest, cfg Config) {
		t.Helper()
		if got, want := sameWithSeriesOff(t, run, cfg), golden[path.Base(t.Name())]; got != want {
			t.Errorf("digest moved:\n got: %#v\nwant: %#v", got, want)
		}
	}
	t.Run("node-death-revive", func(t *testing.T) {
		// Node 2 dies holding queued work and revives while blocks are
		// still pending; only the membership change can wake it.
		check(t, func(cfg Config) runDigest {
			r, tr := newTracedRig(t, 3, 4, NewDYRSBinder(), nil, cfg)
			r.migrateAt(t, 0, 1, "in", 16)
			r.eng.At(sim.Time(1500*time.Millisecond), func() { r.cl.KillNode(2) })
			r.eng.At(sim.Time(6500*time.Millisecond), func() { r.cl.ReviveNode(2) })
			return r.finish(t, tr, 60*time.Second)
		}, DefaultConfig())
	})
	t.Run("slave-restart", func(t *testing.T) {
		// The slow node's learned estimate is reset by a restart while
		// the fleet is idle; the next Migrate's targets depend on the
		// master hearing the reset estimate first.
		slow := func(i int) cluster.NodeConfig {
			c := cluster.DefaultNodeConfig()
			if i == 0 {
				c.DiskScale = 0.25
			}
			return c
		}
		check(t, func(cfg Config) runDigest {
			r, tr := newTracedRig(t, 5, 4, NewDYRSBinder(), slow, cfg)
			r.migrateAt(t, 0, 1, "a", 8)
			r.eng.At(sim.Time(30*time.Second), func() { r.c.RestartSlaveProcess(0) })
			r.migrateAt(t, 32500*time.Millisecond, 2, "b", 8)
			return r.finish(t, tr, 90*time.Second)
		}, DefaultConfig())
	})
	t.Run("cache-admission", func(t *testing.T) {
		// Cache admissions on idle nodes push their buffers past the
		// scavenge threshold; the scavenger must reclaim the blocks the
		// master does not track at the next beat.
		small := func(int) cluster.NodeConfig {
			c := cluster.DefaultNodeConfig()
			c.MemCapacity = 4 * sim.GB
			return c
		}
		cfg := DefaultConfig()
		cfg.ScavengeThreshold = 0.1
		check(t, func(cfg Config) runDigest {
			r, tr := newTracedRig(t, 9, 6, NewDYRSBinder(), small, cfg)
			if _, err := cache.New(r.fs, 2*sim.GB, cache.LRU); err != nil {
				t.Fatal(err)
			}
			r.migrateAt(t, 0, 1, "a", 2)
			f := r.mkFile(t, "b", 6)
			for i, id := range f.Blocks {
				id, at := id, cluster.NodeID(i%6)
				r.eng.At(sim.Time(20*time.Second+time.Duration(i)*700*time.Millisecond), func() {
					if err := r.fs.ReadBlock(at, id, nil); err != nil {
						t.Error(err)
					}
				})
			}
			return r.finish(t, tr, 60*time.Second)
		}, cfg)
	})
	t.Run("job-ends-above-threshold", func(t *testing.T) {
		// A buffer held above the scavenge threshold by a running job
		// keeps its slave beating, so the scavenger reclaims it at the
		// first beat after the job stops being active — an event no wake
		// point announces.
		cfg := DefaultConfig()
		cfg.ScavengeThreshold = 0.001
		check(t, func(cfg Config) runDigest {
			r, tr := newTracedRig(t, 17, 4, NewDYRSBinder(), nil, cfg)
			r.c.SetScheduler(jobCheckerFunc(func(JobID) bool {
				return r.eng.Now() < sim.Time(20500*time.Millisecond)
			}))
			r.migrateAt(t, 0, 1, "a", 6)
			return r.finish(t, tr, 40*time.Second)
		}, cfg)
	})
	t.Run("ignem-immediate-bind", func(t *testing.T) {
		// Ignem binds at submission; a second request after the fleet
		// went idle is enqueued straight onto sleeping slaves.
		cfg := DefaultConfig()
		cfg.CancelOnMissedRead = false
		cfg.IOWeight = 1
		cfg.MaxConcurrent = 6
		check(t, func(cfg Config) runDigest {
			r, tr := newTracedRig(t, 11, 5, NewPolicyBinder(policy.NewIgnem()), nil, cfg)
			r.migrateAt(t, 0, 1, "a", 10)
			r.migrateAt(t, 17300*time.Millisecond, 2, "b", 5)
			return r.finish(t, tr, 60*time.Second)
		}, cfg)
	})
	t.Run("target-update-onto-idle-slave", func(t *testing.T) {
		// A backlog builds behind node 1; interference there inflates its
		// estimate, and later target updates move pending blocks onto a
		// slave that had been idle since the warm-up.
		check(t, func(cfg Config) runDigest {
			r, tr := newTracedRig(t, 13, 4, NewDYRSBinder(), nil, cfg)
			r.migrateAt(t, 0, 1, "warm", 4)
			r.migrateAt(t, 20*time.Second, 2, "big", 24)
			r.eng.At(sim.Time(21*time.Second), func() {
				inf := r.cl.Node(1).StartInterference(4, 1)
				r.eng.Schedule(15*time.Second, inf.Stop)
			})
			return r.finish(t, tr, 120*time.Second)
		}, DefaultConfig())
	})
}

// TestHeartbeatEventCount pins the heartbeat's event volume exactly: an
// idle 100-node coordinator run for one virtual hour fires one heartbeat
// event per second for the whole fleet — 3,600, not one per slave per
// second (360,000) — plus the binder's target-update ticks.
func TestHeartbeatEventCount(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(t, 1, 100, NewDYRSBinder(), nil, cfg)
	r.eng.RunFor(time.Hour)
	beats := uint64(time.Hour / cfg.Heartbeat)
	updates := uint64(time.Hour / cfg.TargetUpdateInterval)
	if got := r.eng.EventsFired(); got != beats+updates {
		t.Fatalf("idle hour fired %d events, want %d heartbeats + %d target updates = %d",
			got, beats, updates, beats+updates)
	}
}
