package migration

import (
	"fmt"
	"testing"
	"time"

	"dyrs/internal/cluster"
	"dyrs/internal/dfs"
	"dyrs/internal/policy"
	"dyrs/internal/sim"
	"dyrs/internal/trace"
)

// TestMigrationCycleAllocs pins a block's steady-state trip through the
// migration pipeline at zero allocations: Migrate of a known block, the
// slave's pull and bind, the disk transfer, its completion and pin, and
// the implicit-eviction release on NoteRead.
func TestMigrationCycleAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableEstimateSeries = true
	r := newRig(t, 1, 4, NewDYRSBinder(), nil, cfg)
	files := []string{"hot"}
	id := r.mkFile(t, "hot", 1).Blocks[0]
	cycles := 0
	cycle := func() {
		if err := r.c.Migrate(1, files, true); err != nil {
			t.Fatal(err)
		}
		r.eng.RunFor(10 * time.Second)
		r.c.NoteRead(1, id)
		cycles++
	}
	// Warm the pools and the binder's buffers. The job's block list gains
	// a stale entry per cycle (Evict tolerates them); 300 warm-up cycles
	// grow it to a capacity of 512, enough for the measured ones too.
	for i := 0; i < 300; i++ {
		cycle()
	}
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Fatalf("migration cycle allocates %.1f times per block", a)
	}
	if st := r.c.Stats(); st.Migrated != cycles || st.Evicted != cycles || st.Dropped != 0 {
		t.Fatalf("after %d cycles: %+v, want every block migrated and evicted", cycles, st)
	}
}

// TestSameBlockTransfersOneSlaveGolden runs, on one slave, two transfers
// of the same block at once: a master fail-over detaches the records of
// in-flight migrations, and a second job re-requests the same blocks
// before they land. Under Ignem's preset (six concurrent transfers) with
// one replica per block, the successor record migrates on the same
// slave as its detached predecessor, so each completion must reach the
// record whose transfer finished, not merely a record with that block
// ID. The digest was recorded before transfers were routed by flow
// handle.
func TestSameBlockTransfersOneSlaveGolden(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CancelOnMissedRead = false
	cfg.IOWeight = 1
	cfg.MaxConcurrent = 6
	stats := Stats{Requested: 24, Migrated: 24, Evicted: 12, BytesMigrated: 24 * 256 * sim.MB}
	golden := map[float64]runDigest{
		1: {Trace: "36e51ef0877e77c8f546efedbd13b2b8e7fcf6d1480ea90bf264aca32cd19d74", Stats: stats, End: sim.Time(60 * time.Second)},
		4: {Trace: "9309073049a50d19443c7b202ff86259a5b7cf1b5bd238d8157afc9c70a50be1", Stats: stats, End: sim.Time(60 * time.Second)},
	}
	// With the successors at IO weight 4 (as a rate controller raising
	// the weight would leave them), each overtakes its detached
	// predecessor, so completions arrive out of start order and a router
	// that matched on block ID would finish the wrong record.
	for _, weight := range []float64{1, 4} {
		t.Run(fmt.Sprintf("successor-weight=%g", weight), func(t *testing.T) {
			if got := runSameBlockRig(t, cfg, weight); got != golden[weight] {
				t.Errorf("digest moved:\n got: %#v\nwant: %#v", got, golden[weight])
			}
		})
	}
}

// runSameBlockRig runs the detached-record rig with the re-requested
// blocks migrating at the given IO weight.
func runSameBlockRig(t *testing.T, cfg Config, successorWeight float64) runDigest {
	return sameWithSeriesOff(t, func(cfg Config) runDigest {
		eng := sim.NewEngine(23)
		tr := trace.New(eng)
		cl := cluster.New(eng, 3, nil)
		fsCfg := dfs.DefaultConfig()
		fsCfg.Replication = 1
		fs := dfs.New(cl, fsCfg)
		r := &testRig{eng: eng, cl: cl, fs: fs, c: NewCoordinator(fs, cfg, NewPolicyBinder(policy.NewIgnem()))}
		r.migrateAt(t, 0, 1, "a", 12)
		r.eng.At(sim.Time(1500*time.Millisecond), r.c.RestartMaster)
		r.eng.At(sim.Time(2*time.Second), func() {
			r.c.cfg.IOWeight = successorWeight
			if err := r.c.Migrate(2, []string{"a"}, false); err != nil {
				t.Error(err)
			}
		})
		r.eng.At(sim.Time(2500*time.Millisecond), func() {
			for _, s := range r.c.slaves {
				if !hasSameBlockTwice(s.active) {
					t.Errorf("slave %v runs no two transfers of one block", s.node.ID)
				}
			}
		})
		r.eng.At(sim.Time(40*time.Second), func() {
			r.c.Evict(1)
			r.c.Evict(2)
			r.c.ScavengeAll()
		})
		d := r.finish(t, tr, 60*time.Second)
		if errs := fs.Fsck(); len(errs) != 0 {
			t.Fatalf("fsck: %v", errs)
		}
		return d
	}, cfg)
}

// hasSameBlockTwice reports whether two records on an active list move
// the same block under distinct flows.
func hasSameBlockTwice(active []*blockInfo) bool {
	for i, a := range active {
		for _, b := range active[i+1:] {
			if a.id == b.id && a != b && a.flow != b.flow {
				return true
			}
		}
	}
	return false
}
