package dfs

import (
	"fmt"
	"strings"
	"testing"

	"dyrs/internal/cluster"
	"dyrs/internal/sim"
)

// Fsck unit tests: deliberately corrupt each class of internal state and
// assert the corresponding documented invariant is reported. These are
// the direct counterparts of the chaos/fuzz harness, which relies on
// Fsck as its structural oracle — if Fsck is blind, so is the harness.

// fsckRig builds a small healthy file system with one registered memory
// replica, and asserts it starts clean.
func fsckRig(t *testing.T) (*FS, *File, cluster.NodeID) {
	t.Helper()
	_, _, fs := newTestFS(t, 5, 77)
	f, err := fs.CreateFile("in", 3*256*sim.MB)
	if err != nil {
		t.Fatal(err)
	}
	memNode := fs.Block(f.Blocks[0]).Replicas[0]
	fs.RegisterMem(f.Blocks[0], memNode)
	if errs := fs.Fsck(); len(errs) != 0 {
		t.Fatalf("healthy rig is not clean: %v", errs)
	}
	return fs, f, memNode
}

// expectFsck asserts at least one Fsck error mentions want.
func expectFsck(t *testing.T, fs *FS, want string) {
	t.Helper()
	errs := fs.Fsck()
	for _, err := range errs {
		if strings.Contains(err.Error(), want) {
			return
		}
	}
	t.Fatalf("no fsck error containing %q; got %v", want, errs)
}

func TestFsckUnknownBlockReference(t *testing.T) {
	t.Parallel()
	fs, f, _ := fsckRig(t)
	f.Blocks = append(f.Blocks, BlockID(9999))
	expectFsck(t, fs, "references unknown block")
}

func TestFsckBlockIndexAndOwnership(t *testing.T) {
	t.Parallel()
	fs, f, _ := fsckRig(t)
	// Swapping two blocks breaks the dense-ID invariant.
	f.Blocks[0], f.Blocks[1] = f.Blocks[1], f.Blocks[0]
	expectFsck(t, fs, "dense ID range")

	fs2, f2, _ := fsckRig(t)
	if _, err := fs2.CreateFile("someone-else", 256*sim.MB); err != nil {
		t.Fatal(err)
	}
	// Point the block's fileOf column at the other file.
	fs2.table.fileOf[int(f2.Blocks[0])] = int32(len(fs2.fileList) - 1)
	expectFsck(t, fs2, "claims file")
}

func TestFsckFileSizeMismatch(t *testing.T) {
	t.Parallel()
	fs, f, _ := fsckRig(t)
	f.Size += 123
	expectFsck(t, fs, "block sizes sum to")
}

// TestFsckReportOrderIsDeterministic corrupts several files and requires
// every Fsck call to list the violations in the same order.
func TestFsckReportOrderIsDeterministic(t *testing.T) {
	t.Parallel()
	fs, _, _ := fsckRig(t)
	for i := 0; i < 8; i++ {
		f, err := fs.CreateFile(fmt.Sprintf("f%d", i), 256*sim.MB)
		if err != nil {
			t.Fatal(err)
		}
		f.Size++
	}
	want := fmt.Sprint(fs.Fsck())
	for i := 0; i < 20; i++ {
		if got := fmt.Sprint(fs.Fsck()); got != want {
			t.Fatalf("Fsck call %d listed violations differently:\n got %s\nwant %s", i+2, got, want)
		}
	}
}

func TestFsckReplicaCountAndDuplicates(t *testing.T) {
	t.Parallel()
	fs, f, memNode := fsckRig(t)
	base := int(f.Blocks[1]) * fs.table.stride
	for i := 0; i < fs.table.stride; i++ {
		fs.table.replicas[base+i] = -1
	}
	expectFsck(t, fs, "has 0 replicas")
	fs.table.replicas[base] = int32(memNode)
	fs.table.replicas[base+1] = int32(memNode)
	expectFsck(t, fs, "duplicate replica")
}

func TestFsckRegistryPointsAtEmptyNode(t *testing.T) {
	t.Parallel()
	fs, _, memNode := fsckRig(t)
	// Forward direction: registry entry without a backing buffer.
	fs.dns[int(memNode)].resident = fs.dns[int(memNode)].resident[:0]
	fs.dns[int(memNode)].memUsed = 0
	expectFsck(t, fs, "the resident list disagrees")
}

func TestFsckBufferWithoutRegistryEntry(t *testing.T) {
	t.Parallel()
	fs, f, memNode := fsckRig(t)
	// Reverse direction: buffered block the registry does not know (or
	// records on another node) — the orphan shape a master restart plus
	// re-migration used to leave behind.
	b := fs.Block(f.Blocks[1])
	other := b.Replicas[0]
	fs.dns[int(other)].resident = append(fs.dns[int(other)].resident, b.ID)
	fs.dns[int(other)].memUsed += b.Size
	expectFsck(t, fs, "but the registry records holder")
	_ = memNode
}

func TestFsckAccountingMismatch(t *testing.T) {
	t.Parallel()
	fs, _, memNode := fsckRig(t)
	fs.dns[int(memNode)].memUsed += 7
	expectFsck(t, fs, "accounting: used=")
}

func TestFsckNegativeAccounting(t *testing.T) {
	t.Parallel()
	fs, f, memNode := fsckRig(t)
	fs.DropMem(f.Blocks[0], memNode)
	fs.dns[int(memNode)].memUsed = -1
	expectFsck(t, fs, "negative buffered bytes")
}

func TestFsckMemoryCapacityExceeded(t *testing.T) {
	t.Parallel()
	fs, _, memNode := fsckRig(t)
	dn := fs.dns[int(memNode)]
	dn.memUsed = dn.node.Cfg.MemCapacity + 1
	expectFsck(t, fs, "exceeding its memory capacity")
}

func TestFsckBufferWithoutDiskReplica(t *testing.T) {
	t.Parallel()
	fs, f, _ := fsckRig(t)
	b := fs.Block(f.Blocks[2])
	// Find a node that holds no disk replica of the block.
	var outsider cluster.NodeID = -1
	for n := 0; n < 5; n++ {
		holds := false
		for _, r := range b.Replicas {
			if int(r) == n {
				holds = true
			}
		}
		if !holds {
			outsider = cluster.NodeID(n)
			break
		}
	}
	if outsider < 0 {
		t.Fatal("every node holds a replica; enlarge the rig")
	}
	fs.RegisterMem(b.ID, outsider)
	expectFsck(t, fs, "without holding a disk replica")
}

// postingOutsider returns a node that holds no disk replica of id.
func postingOutsider(t *testing.T, fs *FS, id BlockID) cluster.NodeID {
	t.Helper()
	for n := 0; n < len(fs.byNode); n++ {
		if !fs.table.holdsReplica(id, cluster.NodeID(n)) {
			return cluster.NodeID(n)
		}
	}
	t.Fatal("every node holds a replica; enlarge the rig")
	return -1
}

func TestFsckPostingDuplicate(t *testing.T) {
	t.Parallel()
	fs, f, _ := fsckRig(t)
	n := fs.Block(f.Blocks[0]).Replicas[0]
	fs.byNode[int(n)] = append(fs.byNode[int(n)], f.Blocks[0])
	expectFsck(t, fs, "twice")
}

func TestFsckPostingWithoutReplica(t *testing.T) {
	t.Parallel()
	fs, f, _ := fsckRig(t)
	// Move one posting to a node that holds no replica, keeping the
	// entry count equal to the slot count.
	id := f.Blocks[1]
	holder := fs.Block(id).Replicas[0]
	outsider := postingOutsider(t, fs, id)
	posting := fs.byNode[int(holder)]
	for i, p := range posting {
		if p == id {
			fs.byNode[int(holder)] = append(posting[:i:i], posting[i+1:]...)
			break
		}
	}
	fs.byNode[int(outsider)] = append(fs.byNode[int(outsider)], id)
	errs := fs.Fsck()
	if len(errs) != 1 {
		t.Fatalf("want exactly the misplaced posting reported, got %v", errs)
	}
	expectFsck(t, fs, "which holds no replica")
}

func TestFsckPostingOutOfRange(t *testing.T) {
	t.Parallel()
	fs, _, _ := fsckRig(t)
	fs.byNode[0] = append(fs.byNode[0], BlockID(9999), BlockID(9999))
	errs := fs.Fsck()
	holdsNone := 0
	for _, err := range errs {
		if strings.Contains(err.Error(), "block 9999 on node 0") {
			holdsNone++
		}
	}
	if holdsNone == 0 {
		t.Fatalf("out-of-range posting not reported: %v", errs)
	}
	expectFsck(t, fs, "postings index has")
}

func TestFsckPostingCountMismatch(t *testing.T) {
	t.Parallel()
	fs, f, _ := fsckRig(t)
	n := fs.Block(f.Blocks[2]).Replicas[0]
	fs.byNode[int(n)] = fs.byNode[int(n)][:len(fs.byNode[int(n)])-1]
	errs := fs.Fsck()
	if len(errs) != 1 {
		t.Fatalf("want exactly the count mismatch reported, got %v", errs)
	}
	expectFsck(t, fs, "replica slots")
}
