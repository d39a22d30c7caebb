package cache

import (
	"reflect"
	"testing"
	"time"

	"dyrs/internal/cluster"
	"dyrs/internal/dfs"
	"dyrs/internal/sim"
	"dyrs/internal/trace"
)

func newFS(t *testing.T, seed int64) (*sim.Engine, *dfs.FS) {
	t.Helper()
	eng := sim.NewEngine(seed)
	// 3 nodes at replication 3: every node holds every block, so the
	// replica-anchored cache always buffers at the reading node (0) and
	// the per-node accounting assertions below stay exact.
	cl := cluster.New(eng, 3, nil)
	return eng, dfs.New(cl, dfs.DefaultConfig())
}

// readAll reads every block of the file from node 0 and runs the engine.
func readAll(t *testing.T, eng *sim.Engine, fs *dfs.FS, name string) []dfs.ReadResult {
	t.Helper()
	f, err := fs.File(name)
	if err != nil {
		t.Fatal(err)
	}
	var out []dfs.ReadResult
	for _, id := range f.Blocks {
		if err := fs.ReadBlock(0, id, func(r dfs.ReadResult) { out = append(out, r) }); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunFor(10 * time.Minute)
	return out
}

func TestSecondReadHitsCache(t *testing.T) {
	eng, fs := newFS(t, 1)
	c, err := New(fs, 8*sim.GB, LRU)
	if err != nil {
		t.Fatal(err)
	}
	fs.CreateFile("hot", 512*sim.MB)

	first := readAll(t, eng, fs, "hot")
	for _, r := range first {
		if r.Source.FromMemory() {
			t.Errorf("first read from memory: %v", r.Source)
		}
	}
	if c.Misses != 2 || c.Insertions != 2 {
		t.Fatalf("misses=%d insertions=%d", c.Misses, c.Insertions)
	}

	second := readAll(t, eng, fs, "hot")
	for _, r := range second {
		if !r.Source.FromMemory() {
			t.Errorf("second read not from memory: %v", r.Source)
		}
	}
	if c.Hits != 2 {
		t.Errorf("hits = %d", c.Hits)
	}
	if c.HitRate() != 0.5 {
		t.Errorf("hit rate = %v", c.HitRate())
	}
}

func TestBudgetEviction(t *testing.T) {
	eng, fs := newFS(t, 2)
	// Budget of 2 blocks per node; reads all land at node 0.
	c, err := New(fs, 512*sim.MB, LRU)
	if err != nil {
		t.Fatal(err)
	}
	fs.CreateFile("a", 256*sim.MB)
	fs.CreateFile("b", 256*sim.MB)
	fs.CreateFile("c", 256*sim.MB)
	readAll(t, eng, fs, "a")
	readAll(t, eng, fs, "b")
	readAll(t, eng, fs, "c") // evicts "a" (LRU)
	if c.Evictions != 1 {
		t.Fatalf("evictions = %d", c.Evictions)
	}
	if c.UsedOn(0) != 512*sim.MB {
		t.Errorf("used = %d", c.UsedOn(0))
	}
	// "a" must miss again; "c" must hit.
	if r := readAll(t, eng, fs, "c"); !r[0].Source.FromMemory() {
		t.Error("c not cached")
	}
	aReads := readAll(t, eng, fs, "a")
	if aReads[0].Source.FromMemory() {
		t.Error("evicted block served from memory")
	}
}

func TestOversizeBlockNotCached(t *testing.T) {
	eng, fs := newFS(t, 5)
	c, err := New(fs, 100*sim.MB, LRU)
	if err != nil {
		t.Fatal(err)
	}
	fs.CreateFile("big", 256*sim.MB)
	readAll(t, eng, fs, "big")
	if c.Resident() != 0 || c.Insertions != 0 {
		t.Errorf("oversize block cached: resident=%d", c.Resident())
	}
}

func TestStaleEntryRevalidated(t *testing.T) {
	eng, fs := newFS(t, 6)
	c, err := New(fs, 8*sim.GB, LRU)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := fs.CreateFile("x", 256*sim.MB)
	readAll(t, eng, fs, "x")
	// Simulate an external subsystem dropping the replica (DYRS implicit
	// eviction or a slave restart).
	loc, _ := fs.MemReplica(f.Blocks[0])
	fs.DropMem(f.Blocks[0], loc)
	// The next read must detect staleness, miss, and re-insert.
	r := readAll(t, eng, fs, "x")
	if r[0].Source.FromMemory() {
		t.Error("stale entry served from memory")
	}
	if c.Resident() != 1 {
		t.Errorf("resident = %d after revalidation", c.Resident())
	}
	// And the read after that hits again.
	if r := readAll(t, eng, fs, "x"); !r[0].Source.FromMemory() {
		t.Error("revalidated entry not served from memory")
	}
}

func TestFlush(t *testing.T) {
	eng, fs := newFS(t, 7)
	c, _ := New(fs, 8*sim.GB, LRU)
	fs.CreateFile("x", 512*sim.MB)
	readAll(t, eng, fs, "x")
	if c.Resident() != 2 {
		t.Fatalf("resident = %d", c.Resident())
	}
	c.Flush()
	if c.Resident() != 0 || fs.MemReplicaCount() != 0 || c.UsedOn(0) != 0 {
		t.Error("flush left state")
	}
}

func TestPlacementAnchorsToReplicaHolder(t *testing.T) {
	// A read from a node holding no disk replica must cache the block on
	// a replica holder, not the reader — the DFS structural invariant
	// (fsck) forbids memory replicas without a disk replica underneath.
	eng := sim.NewEngine(9)
	cl := cluster.New(eng, 8, nil)
	fs := dfs.New(cl, dfs.DefaultConfig())
	c, err := New(fs, 8*sim.GB, LRU)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := fs.CreateFile("x", 256*sim.MB)
	id := f.Blocks[0]
	holders := map[cluster.NodeID]bool{}
	for _, r := range fs.Replicas(id) {
		holders[r] = true
	}
	reader := cluster.NodeID(-1)
	for n := cluster.NodeID(0); int(n) < cl.Size(); n++ {
		if !holders[n] {
			reader = n
			break
		}
	}
	if reader < 0 {
		t.Skip("every node holds a replica")
	}
	if err := fs.ReadBlock(reader, id, nil); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(10 * time.Minute)
	loc, ok := fs.MemReplica(id)
	if !ok {
		t.Fatal("block not cached")
	}
	if !holders[loc] {
		t.Errorf("cached on %v, which holds no disk replica", loc)
	}
	if c.UsedOn(reader) != 0 {
		t.Errorf("reader charged %d bytes", c.UsedOn(reader))
	}
	if errs := fs.Fsck(); len(errs) > 0 {
		t.Errorf("fsck: %v", errs)
	}
}

func TestInvalidBudget(t *testing.T) {
	_, fs := newFS(t, 8)
	if _, err := New(fs, 0, LRU); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := New(fs, 100*sim.MB, EvictPolicy(1)); err == nil {
		t.Error("unknown eviction policy accepted")
	}
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "LRU" {
		t.Error("policy names wrong")
	}
}

// TestFlushDeterministic pins Flush's drop order: every DropMem records a
// migration/evict trace instant, so flushing identical cache states must
// record identical instant sequences (least recently used first), never
// an order drawn from map iteration.
func TestFlushDeterministic(t *testing.T) {
	const blocks = 24
	flush := func() []trace.Instant {
		eng := sim.NewEngine(9)
		tr := trace.New(eng)
		fs := dfs.New(cluster.New(eng, 3, nil), dfs.DefaultConfig())
		c, err := New(fs, 8*sim.GB, LRU)
		if err != nil {
			t.Fatal(err)
		}
		fs.CreateFile("f", blocks*256*sim.MB)
		readAll(t, eng, fs, "f")
		if c.Resident() != blocks {
			t.Fatalf("%d resident blocks before flush, want %d", c.Resident(), blocks)
		}
		before := len(tr.Instants())
		c.Flush()
		if c.Resident() != 0 || c.UsedOn(0) != 0 {
			t.Fatalf("flush left %d resident blocks, %d bytes on node 0", c.Resident(), c.UsedOn(0))
		}
		return append([]trace.Instant(nil), tr.Instants()[before:]...)
	}
	want := flush()
	if len(want) != blocks {
		t.Fatalf("flush recorded %d instants, want %d", len(want), blocks)
	}
	for i := 0; i < 8; i++ {
		if got := flush(); !reflect.DeepEqual(got, want) {
			t.Fatalf("flush %d recorded a different instant sequence:\n got %v\nwant %v", i+1, got, want)
		}
	}
}
