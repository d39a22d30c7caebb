package dfs

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"dyrs/internal/cluster"
	"dyrs/internal/sim"
)

func newTestFS(t *testing.T, nodes int, seed int64) (*sim.Engine, *cluster.Cluster, *FS) {
	t.Helper()
	eng := sim.NewEngine(seed)
	cl := cluster.New(eng, nodes, nil)
	fs := New(cl, DefaultConfig())
	return eng, cl, fs
}

func TestCreateFileBlocks(t *testing.T) {
	t.Parallel()
	_, _, fs := newTestFS(t, 5, 1)
	f, err := fs.CreateFile("input", 1000*sim.MB)
	if err != nil {
		t.Fatal(err)
	}
	// 1000MB / 256MB -> 4 blocks (3 full + 232MB).
	if len(f.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4", len(f.Blocks))
	}
	var total sim.Bytes
	for i, id := range f.Blocks {
		b := fs.Block(id)
		total += b.Size
		if b.File != "input" || b.Index != i {
			t.Errorf("block %d metadata wrong: %+v", id, b)
		}
		if len(b.Replicas) != 3 {
			t.Errorf("block %d has %d replicas", id, len(b.Replicas))
		}
		seen := map[cluster.NodeID]bool{}
		for _, r := range b.Replicas {
			if seen[r] {
				t.Errorf("block %d has duplicate replica %v", id, r)
			}
			seen[r] = true
		}
	}
	if total != 1000*sim.MB {
		t.Errorf("block sizes sum to %d", total)
	}
}

func TestCreateFileErrors(t *testing.T) {
	t.Parallel()
	_, _, fs := newTestFS(t, 5, 1)
	if _, err := fs.CreateFile("a", 1*sim.MB); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.CreateFile("a", 1*sim.MB); !errors.Is(err, ErrFileExists) {
		t.Errorf("duplicate create: %v", err)
	}
	if _, err := fs.CreateFile("b", 0); err == nil {
		t.Error("zero-size create should fail")
	}
	if _, err := fs.File("missing"); !errors.Is(err, ErrFileNotFound) {
		t.Errorf("missing file: %v", err)
	}
	if _, err := fs.FileBlocks([]string{"a", "missing"}); !errors.Is(err, ErrFileNotFound) {
		t.Errorf("FileBlocks missing: %v", err)
	}
}

func TestPlacementSpreads(t *testing.T) {
	t.Parallel()
	_, cl, fs := newTestFS(t, 7, 2)
	_, err := fs.CreateFile("big", 70*256*sim.MB)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, cl.Size())
	for i := 0; i < fs.NumBlocks(); i++ {
		for _, r := range fs.Block(BlockID(i)).Replicas {
			counts[int(r)]++
		}
	}
	// 70 blocks x 3 replicas over 7 nodes = 30 each expected; the first
	// replica rotates so the spread must be reasonably tight.
	for i, c := range counts {
		if c < 15 || c > 45 {
			t.Errorf("node %d has %d replicas; distribution %v", i, c, counts)
		}
	}
}

func TestReadBlockDiskLocalPreferred(t *testing.T) {
	t.Parallel()
	eng, _, fs := newTestFS(t, 5, 3)
	f, _ := fs.CreateFile("in", 256*sim.MB)
	b := fs.Block(f.Blocks[0])
	at := b.Replicas[1] // a replica holder; local read expected
	var res ReadResult
	if err := fs.ReadBlock(at, b.ID, func(r ReadResult) { res = r }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if res.Source != SourceDiskLocal || res.Server != at {
		t.Errorf("source=%v server=%v, want disk-local at %v", res.Source, res.Server, at)
	}
	// 256MB at 130MB/s ~ 1.97s.
	if d := res.Duration().Seconds(); d < 1.9 || d > 2.1 {
		t.Errorf("duration = %vs", d)
	}
	if fs.DataNode(at).DiskReads != 1 {
		t.Errorf("disk reads = %d", fs.DataNode(at).DiskReads)
	}
}

func TestReadBlockDiskRemote(t *testing.T) {
	t.Parallel()
	eng, _, fs := newTestFS(t, 5, 4)
	f, _ := fs.CreateFile("in", 256*sim.MB)
	b := fs.Block(f.Blocks[0])
	// Find a node holding no replica.
	var at cluster.NodeID = -1
	for i := 0; i < 5; i++ {
		holds := false
		for _, r := range b.Replicas {
			if r == cluster.NodeID(i) {
				holds = true
			}
		}
		if !holds {
			at = cluster.NodeID(i)
			break
		}
	}
	var res ReadResult
	if err := fs.ReadBlock(at, b.ID, func(r ReadResult) { res = r }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if res.Source != SourceDiskRemote {
		t.Errorf("source = %v, want disk-remote", res.Source)
	}
	if fs.DataNode(res.Server).RemoteServes != 1 {
		t.Errorf("remote serves = %d", fs.DataNode(res.Server).RemoteServes)
	}
}

func TestReadRedirectsToMemory(t *testing.T) {
	t.Parallel()
	eng, _, fs := newTestFS(t, 5, 5)
	f, _ := fs.CreateFile("in", 256*sim.MB)
	b := fs.Block(f.Blocks[0])
	memNode := b.Replicas[0]
	fs.RegisterMem(b.ID, memNode)

	// Local memory read.
	var res ReadResult
	fs.ReadBlock(memNode, b.ID, func(r ReadResult) { res = r })
	eng.Run()
	if res.Source != SourceMemLocal {
		t.Fatalf("source = %v, want mem-local", res.Source)
	}
	if d := res.Duration().Seconds(); d > 0.2 {
		t.Errorf("memory read took %vs, too slow", d)
	}

	// Remote memory read from another node.
	other := (memNode + 1) % 5
	fs.ReadBlock(other, b.ID, func(r ReadResult) { res = r })
	eng.Run()
	if res.Source != SourceMemRemote || res.Server != memNode {
		t.Errorf("source=%v server=%v, want mem-remote from %v", res.Source, res.Server, memNode)
	}
	// Remote memory read is far faster than the ~2s disk read.
	if d := res.Duration().Seconds(); d > 0.5 {
		t.Errorf("remote memory read took %vs", d)
	}
}

func TestMemAccounting(t *testing.T) {
	t.Parallel()
	_, _, fs := newTestFS(t, 5, 6)
	f, _ := fs.CreateFile("in", 3*256*sim.MB)
	n := cluster.NodeID(0)
	for _, id := range f.Blocks {
		fs.RegisterMem(id, n)
	}
	dn := fs.DataNode(n)
	if dn.MemUsed() != 3*256*sim.MB || dn.MemBlockCount() != 3 {
		t.Fatalf("mem used=%d count=%d", dn.MemUsed(), dn.MemBlockCount())
	}
	// Double registration is idempotent.
	fs.RegisterMem(f.Blocks[0], n)
	if dn.MemUsed() != 3*256*sim.MB {
		t.Errorf("double-register changed accounting: %d", dn.MemUsed())
	}
	fs.DropMem(f.Blocks[0], n)
	if dn.MemUsed() != 2*256*sim.MB || dn.HasMem(f.Blocks[0]) {
		t.Errorf("drop failed: used=%d", dn.MemUsed())
	}
	if _, ok := fs.MemReplica(f.Blocks[0]); ok {
		t.Error("dropped block still registered")
	}
	// Dropping a non-resident block is a no-op.
	fs.DropMem(f.Blocks[0], n)
	fs.DropAllMem(n)
	if dn.MemUsed() != 0 || fs.MemReplicaCount() != 0 || fs.TotalMemUsed() != 0 {
		t.Errorf("DropAllMem left state: used=%d count=%d", dn.MemUsed(), fs.MemReplicaCount())
	}
}

func TestMemReplicaIgnoresDeadNode(t *testing.T) {
	t.Parallel()
	eng, cl, fs := newTestFS(t, 5, 7)
	f, _ := fs.CreateFile("in", 256*sim.MB)
	b := fs.Block(f.Blocks[0])
	memNode := b.Replicas[0]
	fs.RegisterMem(b.ID, memNode)
	cl.KillNode(memNode)
	if _, ok := fs.MemReplica(b.ID); ok {
		t.Error("dead node's memory replica still offered")
	}
	// Read must fail over to a live disk replica.
	var res ReadResult
	if err := fs.ReadBlock(memNode+1, b.ID, func(r ReadResult) { res = r }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if res.Source.FromMemory() {
		t.Errorf("read served from dead memory: %v", res.Source)
	}
	if res.Server == memNode {
		t.Error("read served by dead node")
	}
}

func TestReadNoReplica(t *testing.T) {
	t.Parallel()
	_, cl, fs := newTestFS(t, 3, 8)
	f, _ := fs.CreateFile("in", 10*sim.MB)
	for i := 0; i < 3; i++ {
		cl.KillNode(cluster.NodeID(i))
	}
	if err := fs.ReadBlock(0, f.Blocks[0], nil); !errors.Is(err, ErrNoReplica) {
		t.Errorf("err = %v, want ErrNoReplica", err)
	}
}

func TestMigrateToMemory(t *testing.T) {
	t.Parallel()
	eng, _, fs := newTestFS(t, 5, 9)
	f, _ := fs.CreateFile("in", 256*sim.MB)
	b := fs.Block(f.Blocks[0])
	dn := fs.DataNode(b.Replicas[0])
	var dur sim.Duration
	var doneFlow *sim.Flow
	flow, err := dn.MigrateToMemory(b.ID, 1, func(f *sim.Flow, d sim.Duration) { doneFlow, dur = f, d })
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if doneFlow != flow {
		t.Error("completion did not report the transfer's flow")
	}
	if !dn.HasMem(b.ID) {
		t.Fatal("block not in memory after migration")
	}
	if loc, ok := fs.MemReplica(b.ID); !ok || loc != dn.Node().ID {
		t.Errorf("registry: %v %v", loc, ok)
	}
	if s := dur.Seconds(); s < 1.9 || s > 2.1 {
		t.Errorf("migration took %vs, want ~2s", s)
	}
}

// TestMigrateSameBlockTwiceRoutesByFlow runs two transfers of one block
// on one node: cancelling the first must leave the second to complete
// and report under its own flow handle.
func TestMigrateSameBlockTwiceRoutesByFlow(t *testing.T) {
	t.Parallel()
	eng, _, fs := newTestFS(t, 5, 9)
	f, _ := fs.CreateFile("in", 256*sim.MB)
	b := fs.Block(f.Blocks[0])
	dn := fs.DataNode(b.Replicas[0])
	var done []*sim.Flow
	record := func(f *sim.Flow, _ sim.Duration) { done = append(done, f) }
	first, err := dn.MigrateToMemory(b.ID, 1, record)
	if err != nil {
		t.Fatal(err)
	}
	second, err := dn.MigrateToMemory(b.ID, 1, record)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunFor(time.Second)
	dn.CancelMigration(first)
	eng.Run()
	if len(done) != 1 || done[0] != second {
		t.Fatalf("completions %v, want only the second transfer %p", done, second)
	}
	if first.Active() || !dn.HasMem(b.ID) || len(dn.migrating) != 0 {
		t.Fatalf("after completion: first active %v, resident %v, in flight %d",
			first.Active(), dn.HasMem(b.ID), len(dn.migrating))
	}
	dn.CancelMigration(first) // already cancelled: no-op
	if errs := fs.Fsck(); len(errs) != 0 {
		t.Fatal(errs)
	}
}

func TestMigrateWithoutReplicaFails(t *testing.T) {
	t.Parallel()
	_, _, fs := newTestFS(t, 5, 10)
	f, _ := fs.CreateFile("in", 256*sim.MB)
	b := fs.Block(f.Blocks[0])
	for i := 0; i < 5; i++ {
		holds := false
		for _, r := range b.Replicas {
			if r == cluster.NodeID(i) {
				holds = true
			}
		}
		if !holds {
			if _, err := fs.DataNode(cluster.NodeID(i)).MigrateToMemory(b.ID, 1, nil); err == nil {
				t.Error("migration on non-replica node should fail")
			}
			return
		}
	}
}

func TestOnReadHook(t *testing.T) {
	t.Parallel()
	eng, _, fs := newTestFS(t, 5, 11)
	f, _ := fs.CreateFile("in", 256*sim.MB)
	b := fs.Block(f.Blocks[0])
	var hookBlock BlockID = -1
	var hookAt cluster.NodeID = -1
	if err := fs.OnRead(func(id BlockID, at cluster.NodeID) { hookBlock, hookAt = id, at }); err != nil {
		t.Fatal(err)
	}
	if err := fs.OnRead(nil); err == nil {
		t.Error("nil hook accepted")
	}
	fs.ReadBlock(b.Replicas[0], b.ID, nil)
	eng.Run()
	if hookBlock != b.ID || hookAt != b.Replicas[0] {
		t.Errorf("hook saw %v@%v", hookBlock, hookAt)
	}
}

func TestWriteBlocks(t *testing.T) {
	t.Parallel()
	eng, _, fs := newTestFS(t, 5, 12)
	done := false
	fs.WriteBlocks(0, 512*sim.MB, 2, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("write did not complete")
	}
	// 512MB local at 130MB/s shared with nothing: the local disk wrote two
	// 256MB blocks -> at least ~3.9s elapsed.
	if s := eng.Now().Seconds(); s < 3.5 {
		t.Errorf("write finished suspiciously fast: %vs", s)
	}
}

func TestWriteBlocksZeroSize(t *testing.T) {
	t.Parallel()
	eng, _, fs := newTestFS(t, 3, 13)
	done := false
	fs.WriteBlocks(0, 0, 1, func() { done = true })
	eng.Run()
	if !done {
		t.Error("zero-size write should still call done")
	}
}

func TestReadSourceString(t *testing.T) {
	t.Parallel()
	cases := map[ReadSource]string{
		SourceDiskLocal:  "disk-local",
		SourceDiskRemote: "disk-remote",
		SourceMemLocal:   "mem-local",
		SourceMemRemote:  "mem-remote",
		ReadSource(99):   "unknown",
	}
	for src, want := range cases {
		if src.String() != want {
			t.Errorf("%d.String() = %q", src, src.String())
		}
	}
	if !SourceMemLocal.FromMemory() || SourceDiskLocal.FromMemory() {
		t.Error("FromMemory wrong")
	}
}

// Property: memory accounting balances under random register/drop
// sequences — used bytes always equal the sum of resident block sizes and
// never go negative.
func TestPropertyMemAccountingBalances(t *testing.T) {
	t.Parallel()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine(seed)
		cl := cluster.New(eng, 4, nil)
		fs := New(cl, DefaultConfig())
		f, err := fs.CreateFile("f", sim.Bytes(1+rng.Intn(40))*256*sim.MB)
		if err != nil {
			return false
		}
		for op := 0; op < 200; op++ {
			id := f.Blocks[rng.Intn(len(f.Blocks))]
			node := cluster.NodeID(rng.Intn(4))
			if rng.Intn(2) == 0 {
				fs.RegisterMem(id, node)
			} else {
				fs.DropMem(id, node)
			}
		}
		var want sim.Bytes
		for i := 0; i < 4; i++ {
			dn := fs.DataNode(cluster.NodeID(i))
			if dn.MemUsed() < 0 {
				return false
			}
			want += dn.MemUsed()
		}
		return fs.TotalMemUsed() == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSortedBlockIDs(t *testing.T) {
	t.Parallel()
	_, _, fs := newTestFS(t, 5, 14)
	fs.CreateFile("a", 512*sim.MB)
	fs.CreateFile("b", 512*sim.MB)
	ids := fs.SortedBlockIDs([]string{"b", "a"})
	if len(ids) != 4 {
		t.Fatalf("ids = %v", ids)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] < ids[i-1] {
			t.Fatalf("not sorted: %v", ids)
		}
	}
	if fs.SortedBlockIDs([]string{"missing"}) != nil {
		t.Error("missing file should return nil")
	}
}

func TestConcurrentReadsShareDisk(t *testing.T) {
	t.Parallel()
	eng, _, fs := newTestFS(t, 5, 15)
	cfg := fs.Config()
	f, _ := fs.CreateFile("in", 2*cfg.BlockSize)
	b0, b1 := fs.Block(f.Blocks[0]), fs.Block(f.Blocks[1])
	// Force both reads onto the same serving node if they share a replica.
	var common cluster.NodeID = -1
	for _, r0 := range b0.Replicas {
		for _, r1 := range b1.Replicas {
			if r0 == r1 {
				common = r0
			}
		}
	}
	if common < 0 {
		t.Skip("no common replica with this seed")
	}
	var d0, d1 time.Duration
	fs.ReadBlock(common, b0.ID, func(r ReadResult) { d0 = r.Duration() })
	fs.ReadBlock(common, b1.ID, func(r ReadResult) { d1 = r.Duration() })
	eng.Run()
	// Sharing one disk with seek penalty must take >2x a solo read.
	if d0.Seconds() < 3.9 || d1.Seconds() < 3.9 {
		t.Errorf("shared reads took %v and %v; expected >3.9s", d0, d1)
	}
}

func TestFsckCleanState(t *testing.T) {
	t.Parallel()
	eng, _, fs := newTestFS(t, 5, 40)
	fs.CreateFile("a", 3*256*sim.MB)
	fs.CreateFile("b", 100*sim.MB)
	f, _ := fs.File("a")
	fs.RegisterMem(f.Blocks[0], fs.Block(f.Blocks[0]).Replicas[0])
	eng.Run()
	if errs := fs.Fsck(); len(errs) != 0 {
		t.Errorf("clean state reported errors: %v", errs)
	}
}

func TestFsckDetectsCorruption(t *testing.T) {
	t.Parallel()
	_, _, fs := newTestFS(t, 5, 41)
	f, _ := fs.CreateFile("a", 2*256*sim.MB)
	// Corrupt: register a memory replica on a node without a disk
	// replica (violates invariant 5), bypassing the migration path.
	b := fs.Block(f.Blocks[0])
	var nonHolder cluster.NodeID = -1
	for i := 0; i < 5; i++ {
		holds := false
		for _, r := range b.Replicas {
			if r == cluster.NodeID(i) {
				holds = true
			}
		}
		if !holds {
			nonHolder = cluster.NodeID(i)
			break
		}
	}
	fs.RegisterMem(b.ID, nonHolder)
	if errs := fs.Fsck(); len(errs) == 0 {
		t.Error("fsck missed a memory replica without a disk replica")
	}
}

func TestWritePipelineReplication(t *testing.T) {
	t.Parallel()
	// Replication 3 charges three disks and two NIC hops; the write
	// completes with the slowest leg, so it is no faster than a single
	// local write but the remote replicas are materialized.
	eng, _, fs := newTestFS(t, 5, 42)
	done := false
	fs.WriteBlocks(0, 256*sim.MB, 3, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("pipelined write did not complete")
	}
	written := 0
	for i := 0; i < 5; i++ {
		written += fs.DataNode(cluster.NodeID(i)).BlocksWritten
	}
	if written != 3 {
		t.Errorf("replica writes = %d, want 3", written)
	}
	// One 256MB block through parallel 130MB/s disks: ~2s (disk-bound,
	// NIC legs are much faster).
	if s := eng.Now().Seconds(); s < 1.9 || s > 2.5 {
		t.Errorf("pipelined write took %.1fs, want ~2s", s)
	}
}

func TestWritePipelineCrossRackUsesCore(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine(43)
	cl := cluster.New(eng, 4, nil)
	cl.ConfigureRacks(2, 20*float64(sim.MB)) // tiny core
	cfg := DefaultConfig()
	cfg.Replication = 2
	fs := New(cl, cfg)
	done := false
	fs.WriteBlocks(0, 256*sim.MB, 2, func() { done = true })
	eng.RunFor(5 * time.Minute)
	if !done {
		t.Fatal("write did not complete")
	}
	// If the second replica crossed racks, the 20MB/s core dominates:
	// ~12.8s. writeTargets picks randomly, so accept either case but
	// verify the timing matches the topology of the chosen targets.
	if s := eng.Now().Seconds(); s > 3 && s < 10 {
		t.Errorf("write took %.1fs: neither disk-bound (~2s) nor core-bound (~13s)", s)
	}
}
