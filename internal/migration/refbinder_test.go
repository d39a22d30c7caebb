package migration

import (
	"dyrs/internal/cluster"
	"dyrs/internal/sim"
	"dyrs/internal/trace"
)

// ReferenceDYRSBinder is the pre-extraction DYRS binder, frozen
// verbatim when Algorithm 1 moved into internal/policy. It is the live
// differential anchor for policy.DYRS: TestPolicyBinderMatchesReference
// runs a table of rigs (fault-free, slave and master restarts, a dead
// node, a non-FIFO OrderPolicy) once with the extracted policy (via
// PolicyBinder) and once with this binder, and demands identical stats,
// per-slave migration counts and trace digests — the same
// preserved-reference pattern the sharded engine and the compact block
// tables were proven with.
//
// Do not modify this type except to track Binder interface changes;
// behavioral fixes belong in policy.DYRS, where that test will catch any
// drift from this reference.
type ReferenceDYRSBinder struct {
	c *Coordinator
	// pending is the master's unbound-block list, in FIFO arrival order
	// (reordered only by the configured OrderPolicy). Entries are
	// tombstoned in place when bound or removed (bi.inPending cleared)
	// and reclaimed in bulk at the next full Algorithm 1 pass, so no
	// binder operation is O(pending) per block.
	pending []*blockInfo
	dead    int // tombstoned entries still in pending
	// targets buckets the pending list by current Algorithm 1 target,
	// rebuilt on every full pass. OnPull(n) consumes bucket n from
	// heads[n] forward instead of scanning the whole pending list — at
	// datacenter scale every slave pulls every heartbeat, and the scan
	// was quadratic in cluster size.
	targets [][]*blockInfo
	heads   []int
	ticker  *sim.Ticker
	// Updates counts Algorithm 1 passes that did work; SkippedUpdates
	// counts ticks the input-change gate short-circuited.
	Updates        int
	SkippedUpdates int

	// Input-change gate: a pass is skipped when the pending set, the
	// heartbeat estimates and cluster membership are all unchanged since
	// the last pass — at datacenter scale most 500ms ticks are exactly
	// that. A pass is forced after maxSkippedPasses so targets built on
	// the NameNode's *stale* liveness view (which drifts with time, not
	// with events) are still refreshed with bounded delay.
	pendGen       uint64
	lastPendGen   uint64
	lastEstEpoch  uint64
	lastHintEpoch uint64
	lastMembers   uint64
	primed        bool
	skipped       int

	// Reusable Algorithm 1 state, indexed by dense NodeID; replaces the
	// per-pass map allocations that dominated the master's CPU at scale.
	finish   []float64
	perByte  []float64
	estValid []bool
	repBuf   []cluster.NodeID
}

// NewReferenceDYRSBinder returns the frozen pre-extraction DYRS binder.
func NewReferenceDYRSBinder() *ReferenceDYRSBinder { return &ReferenceDYRSBinder{} }

// Name implements Binder.
func (b *ReferenceDYRSBinder) Name() string { return "DYRS" }

func (b *ReferenceDYRSBinder) attach(c *Coordinator) {
	b.c = c
	b.targets = make([][]*blockInfo, c.cl.Size())
	b.heads = make([]int, c.cl.Size())
	// The target-update thread runs off the critical path of
	// master-slave coordination (§III-D).
	b.ticker = sim.NewTicker(c.eng, c.cfg.TargetUpdateInterval, b.UpdateTargets)
}

// OnMigrate adds blocks to the pending list and refreshes targets so the
// immediately following pulls see them.
func (b *ReferenceDYRSBinder) OnMigrate(blocks []*blockInfo) {
	for _, bi := range blocks {
		if bi.inPending {
			continue
		}
		bi.inPending = true
		b.pending = append(b.pending, bi)
	}
	b.pendGen++
	b.UpdateTargets()
}

// OnPull hands the slave the pending blocks currently targeted at it, in
// FIFO order, up to the free queue space. Blocks targeted elsewhere stay
// pending even if this slave has room — leaving a slow node idle beats
// creating a straggler (§III-A2).
func (b *ReferenceDYRSBinder) OnPull(n cluster.NodeID, space int) []*blockInfo {
	if space <= 0 || len(b.pending) == b.dead {
		return nil
	}
	var out []*blockInfo
	q := b.targets[int(n)]
	i := b.heads[int(n)]
	for i < len(q) && len(out) < space {
		bi := q[i]
		i++
		if !bi.inPending || !bi.hasTarget || bi.target != n {
			continue // tombstoned since the bucket was built
		}
		bi.inPending = false
		b.dead++
		out = append(out, bi)
	}
	b.heads[int(n)] = i
	if len(out) > 0 {
		b.pendGen++
	}
	return out
}

// Remove discards a pending block. The list entry is tombstoned (O(1))
// and reclaimed at the next full pass.
func (b *ReferenceDYRSBinder) Remove(bi *blockInfo) {
	if !bi.inPending {
		return
	}
	bi.inPending = false
	b.dead++
	b.pendGen++
}

// PendingCount implements Binder.
func (b *ReferenceDYRSBinder) PendingCount() int { return len(b.pending) - b.dead }

// Reset implements Binder (master restart).
func (b *ReferenceDYRSBinder) Reset() {
	for _, bi := range b.pending {
		bi.inPending = false
	}
	b.pending = nil
	b.dead = 0
	for i := range b.targets {
		b.targets[i] = b.targets[i][:0]
		b.heads[i] = 0
	}
	b.pendGen++
}

// UpdateTargets is Algorithm 1: greedily set each pending block's target
// to the replica location where it is expected to finish migrating
// earliest, keeping a running per-node finish-time estimate.
//
// Per the paper, each node's finish time is initialized to
// migTime[node] × (numQueued[node]+1) from the latest heartbeat state,
// and choosing a target uses "the node where assigning the block would
// result in the lowest new completion time", i.e. finish + migTime for
// this block's size.
func (b *ReferenceDYRSBinder) UpdateTargets() {
	if len(b.pending) == b.dead {
		// Nothing live. Drop any remaining tombstones so an idle binder
		// holds no stale references.
		if len(b.pending) > 0 {
			b.pending = b.pending[:0]
			b.dead = 0
		}
		return
	}
	if b.primed &&
		b.lastPendGen == b.pendGen &&
		b.lastEstEpoch == b.c.estEpoch &&
		b.lastHintEpoch == b.c.hintEpoch &&
		b.lastMembers == b.c.cl.MembershipEpoch() &&
		b.skipped < maxSkippedPasses {
		b.skipped++
		b.SkippedUpdates++
		return
	}
	b.primed = true
	b.skipped = 0
	b.lastPendGen = b.pendGen
	b.lastEstEpoch = b.c.estEpoch
	b.lastHintEpoch = b.c.hintEpoch
	b.lastMembers = b.c.cl.MembershipEpoch()
	b.Updates++
	// Reclaim tombstones so the ordering and targeting passes below see
	// only live entries (and so handed-out blocks are not re-targeted).
	if b.dead > 0 {
		kept := b.pending[:0]
		for _, bi := range b.pending {
			if bi.inPending {
				kept = append(kept, bi)
			}
		}
		for i := len(kept); i < len(b.pending); i++ {
			b.pending[i] = nil
		}
		b.pending = kept
		b.dead = 0
	}
	// Apply the configured cross-job ordering policy before the greedy
	// pass; with FIFO this is a no-op (§III, future-work extension).
	b.c.orderPending(b.pending)
	n := b.c.cl.Size()
	if len(b.finish) < n {
		b.finish = make([]float64, n)
		b.perByte = make([]float64, n)
		b.estValid = make([]bool, n)
	}
	std := float64(b.c.fs.Config().BlockSize)
	for _, node := range b.c.cl.Nodes() {
		i := int(node.ID)
		if !node.Alive() {
			b.estValid[i] = false
			continue
		}
		per, queued := b.c.Estimate(node.ID)
		b.perByte[i] = per
		b.finish[i] = per * std * float64(queued+1)
		b.estValid[i] = true
	}
	for i := range b.targets {
		b.targets[i] = b.targets[i][:0]
		b.heads[i] = 0
	}
	for _, bi := range b.pending {
		best := cluster.NodeID(-1)
		bestFinish := 0.0
		size := float64(bi.size)
		b.repBuf = b.c.fs.LiveReplicas(bi.id, b.repBuf[:0])
		for _, loc := range b.repBuf {
			if !b.estValid[int(loc)] {
				continue
			}
			f := b.finish[int(loc)] + b.perByte[int(loc)]*size
			if best < 0 || f < bestFinish {
				best = loc
				bestFinish = f
			}
		}
		if best < 0 {
			bi.hasTarget = false
			continue
		}
		if tr := b.c.tr; tr.Enabled() && (!bi.hasTarget || bi.target != best) {
			// Record the ordering decision only when it changes, so the
			// trace shows retargeting without one instant per pass.
			tr.Instant("migration", "target", int(best),
				trace.Int("block", int64(bi.id)))
		}
		bi.target = best
		bi.hasTarget = true
		b.finish[int(best)] = bestFinish
		b.targets[int(best)] = append(b.targets[int(best)], bi)
	}
}

func (b *ReferenceDYRSBinder) stopBinder() {
	if b.ticker != nil {
		b.ticker.Stop()
	}
}
