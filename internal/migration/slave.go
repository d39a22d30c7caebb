package migration

import (
	"dyrs/internal/cluster"
	"dyrs/internal/metrics"
	"dyrs/internal/sim"
	"dyrs/internal/trace"
)

// estimator tracks a slave's migration speed as an EWMA over
// seconds-per-byte, so estimates stay meaningful when block sizes vary.
// The paper tracks per-block migration durations (§IV-A); normalizing by
// size is the same estimator generalized to mixed block sizes.
type estimator struct {
	ewma *metrics.EWMA
	seed float64 // seconds per byte at nominal disk bandwidth
}

func newEstimator(alpha float64, nominalBW float64) *estimator {
	e := &estimator{ewma: metrics.NewEWMA(alpha), seed: 1 / nominalBW}
	e.ewma.Set(e.seed)
	return e
}

// observe incorporates a migration that moved size bytes in seconds.
func (e *estimator) observe(seconds float64, size sim.Bytes) {
	e.ewma.Observe(seconds / float64(size))
}

// perByte reports the current estimate in seconds per byte.
func (e *estimator) perByte() float64 { return e.ewma.Value() }

// blockSeconds estimates the migration time for a block of the given size.
func (e *estimator) blockSeconds(size sim.Bytes) float64 {
	return e.ewma.Value() * float64(size)
}

// reset returns the estimator to its seeded state (slave restart).
func (e *estimator) reset() { e.ewma.Set(e.seed) }

// Slave is the per-DataNode migration agent: it keeps a short local FIFO
// queue of bound migrations, performs them subject to the policy's
// concurrency limit (DYRS serializes to limit disk seek thrash, §III-B),
// maintains the migration-time estimate, and enforces the memory hard
// limit.
type Slave struct {
	c    *Coordinator
	node *cluster.Node

	queue []*blockInfo
	// active lists the in-flight transfers in start order. Each record
	// carries its own transfer state (flow, start time, span).
	active []*blockInfo
	// finishFn is s.finish, bound once and handed to every transfer, so
	// starting one allocates no closure.
	finishFn func(*sim.Flow, sim.Duration)

	estimator *estimator
	depth     int
	memLimit  sim.Bytes
	maxActive int

	stopped   bool
	estSeries []metrics.TimePoint

	// Migrations counts completed migrations on this slave.
	Migrations int
	// BytesMigrated counts bytes moved into memory on this slave.
	BytesMigrated sim.Bytes
	// BlockedOnMemory counts migration attempts deferred by the hard
	// memory limit.
	BlockedOnMemory int
}

func newSlave(c *Coordinator, node *cluster.Node) *Slave {
	maxActive := c.cfg.MaxConcurrent
	if maxActive <= 0 {
		maxActive = 1
	}
	s := &Slave{
		c:         c,
		node:      node,
		estimator: newEstimator(c.cfg.EWMAAlpha, node.Cfg.DiskBandwidth),
		depth:     c.cfg.queueDepth(c.fs.Config().BlockSize, node.Cfg.DiskBandwidth),
		memLimit:  sim.Bytes(c.cfg.MemLimitFraction * float64(node.Cfg.MemCapacity)),
		maxActive: maxActive,
	}
	s.finishFn = s.finish
	return s
}

// Node returns the cluster node this slave runs on.
func (s *Slave) Node() *cluster.Node { return s.node }

// QueueDepth reports the configured local queue depth.
func (s *Slave) QueueDepth() int { return s.depth }

// EstimateBlockSeconds reports the slave's current estimate of the time
// to migrate one block of the given size.
func (s *Slave) EstimateBlockSeconds(size sim.Bytes) float64 {
	return s.estimator.blockSeconds(size)
}

// occupancy counts queued plus active migrations.
func (s *Slave) occupancy() int {
	return len(s.queue) + len(s.active)
}

// tick is the heartbeat: refresh the estimate (including the in-progress
// inflation of §IV-A), report to the master, scavenge if needed, pull
// more work, and make sure the disk is busy. The coordinator's beat
// runs it for awake slaves only; see quiescent.
func (s *Slave) tick() {
	if s.stopped || !s.node.Alive() {
		return
	}
	// In-progress inflation: once an active migration has run longer than
	// its estimate, fold the elapsed time into the estimate every
	// heartbeat rather than waiting for completion (§IV-A). This is what
	// makes DYRS react quickly when residual bandwidth suddenly drops.
	// With several concurrent migrations, the longest-running one is the
	// strongest signal; among equally long ones the lowest block ID wins,
	// so the choice never depends on the list's order.
	if !s.c.cfg.DisableInProgressUpdates {
		var worst *blockInfo
		var worstElapsed float64
		for _, bi := range s.active {
			elapsed := s.c.eng.Now().Sub(bi.started).Seconds()
			if elapsed <= s.estimator.blockSeconds(bi.size) || elapsed < worstElapsed {
				continue
			}
			if worst == nil || elapsed > worstElapsed || bi.id < worst.id {
				worst, worstElapsed = bi, elapsed
			}
		}
		if worst != nil {
			s.estimator.observe(worstElapsed, worst.size)
		}
	}
	s.c.onHeartbeat(s.node.ID, s.estimator.perByte(), s.occupancy())
	if !s.c.cfg.DisableEstimateSeries {
		s.estSeries = append(s.estSeries, metrics.TimePoint{
			T: s.c.eng.Now().Seconds(),
			V: s.estimator.blockSeconds(s.c.fs.Config().BlockSize),
		})
	}

	if used := s.c.fs.DataNode(s.node.ID).MemUsed(); float64(used) > s.c.cfg.ScavengeThreshold*float64(s.memLimit) {
		s.scavenge()
	}

	s.pull()
	s.kick()
}

// quiescent reports whether the slave's next tick would provably be a
// no-op, so the coordinator's beat may skip it until a wake point. A
// stopped slave or one on a dead node ticks as a no-op. Otherwise every
// step of tick must be idle: no estimate series to record, nothing
// queued or in flight (so no inflation and no kick), nothing the binder
// could hand over on a pull, a buffer at or below the scavenge
// threshold, and a master-side estimate that the report would leave
// unchanged (so estEpoch stays put).
func (s *Slave) quiescent() bool {
	if s.stopped || !s.node.Alive() {
		return true
	}
	return s.c.cfg.DisableEstimateSeries &&
		len(s.queue) == 0 && len(s.active) == 0 &&
		s.c.binder.PendingCount() == 0 &&
		float64(s.c.fs.DataNode(s.node.ID).MemUsed()) <= s.c.cfg.ScavengeThreshold*float64(s.memLimit) &&
		s.c.estimates[s.node.ID] == nodeEstimate{perByte: s.estimator.perByte()}
}

// pull asks the binder for more work when the local queue has space —
// the slave querying the master (§III-A1).
func (s *Slave) pull() {
	if s.stopped || !s.node.Alive() {
		return
	}
	space := s.depth - s.occupancy()
	if space <= 0 {
		return
	}
	for _, bi := range s.c.binder.OnPull(s.node.ID, space) {
		s.enqueue(bi)
	}
}

// enqueue binds a block to this slave's local queue.
func (s *Slave) enqueue(bi *blockInfo) {
	s.c.transition(bi, stateQueued)
	bi.slave = s.node.ID
	bi.enqueuedAt = s.c.eng.Now()
	s.queue = append(s.queue, bi)
	s.c.wake(s.node.ID)
	s.c.hQueue.Observe(int64(len(s.queue)))
	if tr := s.c.tr; tr.Enabled() {
		bi.span.Annotate(trace.Int("slave", int64(s.node.ID)),
			trace.Dur("bound-after", s.c.eng.Now().Sub(bi.span.Begin())))
		tr.Instant("migration", "bind", int(s.node.ID),
			trace.Int("block", int64(bi.id)))
	}
}

// dequeue removes a queued block (eviction / missed read).
func (s *Slave) dequeue(bi *blockInfo) {
	if i := index(s.queue, bi); i >= 0 {
		s.queue = cut(s.queue, i)
	}
}

// index reports the position of bi in list, or -1.
func index(list []*blockInfo, bi *blockInfo) int {
	for i, b := range list {
		if b == bi {
			return i
		}
	}
	return -1
}

// cut removes list[i] in place, keeping the order of the rest, and
// clears the vacated tail slot. The backing array keeps its capacity, so
// a list that is popped and refilled never reallocates.
func cut(list []*blockInfo, i int) []*blockInfo {
	last := len(list) - 1
	copy(list[i:], list[i+1:])
	list[last] = nil
	return list[:last]
}

// kick starts queued migrations while the concurrency limit allows.
func (s *Slave) kick() {
	if s.stopped || !s.node.Alive() {
		return
	}
	for len(s.active) < s.maxActive && len(s.queue) > 0 {
		next := s.queue[0]
		dn := s.c.fs.DataNode(s.node.ID)
		if dn.MemUsed()+next.size > s.memLimit {
			// Hard limit reached: leave the command queued until buffer
			// space frees up or the block is discarded on a missed read
			// (§IV-A1).
			s.BlockedOnMemory++
			return
		}
		s.queue = cut(s.queue, 0)
		s.c.transition(next, stateMigrating)
		next.started = s.c.eng.Now()
		if tr := s.c.tr; tr.Enabled() {
			next.transfer = next.span.Child("migration", "transfer", int(s.node.ID),
				trace.Int("block", int64(next.id)),
				trace.Int("size", int64(next.size)),
				trace.Float("io-weight", s.c.cfg.IOWeight))
		}
		flow, err := dn.MigrateToMemory(next.id, s.c.cfg.IOWeight, s.finishFn)
		if err != nil {
			// Bound to a node that no longer holds a replica (should not
			// happen with a correct binder); drop the migration.
			s.c.transition(next, stateNone)
			s.c.stats.Dropped++
			if tr := s.c.tr; tr.Enabled() {
				next.transfer.End(trace.Str("outcome", "failed"))
			}
			s.c.dropTrace(next, "no-replica")
			continue
		}
		next.flow = flow
		s.active = append(s.active, next)
	}
}

// finish completes the active migration moving flow f: update the
// estimator with the true duration, publish the in-memory replica, and
// continue. It matches the record by flow, not block ID: after a master
// fail-over a detached record and its successor may both be migrating
// the same block here.
func (s *Slave) finish(f *sim.Flow, d sim.Duration) {
	i := 0
	for s.active[i].flow != f {
		i++
	}
	bi := s.active[i]
	s.active = cut(s.active, i)
	bi.flow = nil
	s.estimator.observe(d.Seconds(), bi.size)
	s.Migrations++
	s.BytesMigrated += bi.size
	s.c.hTransfer.Observe(int64(bi.size))
	if tr := s.c.tr; tr.Enabled() {
		bi.transfer.End(trace.Str("outcome", "completed"))
		bi.span.End(trace.Str("outcome", "pinned"), trace.Int("slave", int64(s.node.ID)))
		tr.Inc("migration.completed")
		tr.Add("migration.bytes", bi.size)
	}
	s.c.onMigrated(bi, s.node.ID)
	s.kick()
}

// abortActive cancels the in-flight migration of bi, freeing the disk
// for foreground reads, and moves on to the next queued block.
func (s *Slave) abortActive(bi *blockInfo) {
	i := index(s.active, bi)
	if i < 0 {
		return
	}
	s.active = cut(s.active, i)
	s.cancelTransfer(bi)
	s.kick()
}

// cancelTransfer cancels bi's in-flight transfer through the DataNode
// and closes its transfer span. The caller has already taken bi off the
// active list.
func (s *Slave) cancelTransfer(bi *blockInfo) {
	s.c.fs.DataNode(s.node.ID).CancelMigration(bi.flow)
	bi.flow = nil
	if tr := s.c.tr; tr.Enabled() {
		bi.transfer.End(trace.Str("outcome", "aborted"))
		tr.Inc("migration.aborted")
	}
}

// scavenge clears reference-list entries for jobs the cluster scheduler
// no longer reports as active, then evicts blocks whose lists emptied —
// the memory-leak guard of §III-C3. It walks the node's actual resident
// buffers (in block-ID order, for determinism) rather than the master's
// reference lists, so replicas the master no longer tracks — orphaned by
// a fail-over that wiped the reference lists (§III-C1) — are reclaimed
// instead of occupying the buffer forever.
func (s *Slave) scavenge() {
	for _, id := range s.c.fs.DataNode(s.node.ID).MemBlockIDs() {
		bi := s.c.blockRecord(id)
		if bi == nil || bi.state != stateInMemory || bi.slave != s.node.ID {
			// Resident but unreferenced by the master: an orphan left by a
			// restart. Drop the buffer directly.
			s.c.fs.DropMem(id, s.node.ID)
			s.c.stats.Evicted++
			continue
		}
		// Walk by index; remove swaps the last element into the hole, so
		// the index is only advanced when the current entry survives.
		for i := 0; i < len(bi.refs); {
			job := bi.refs[i]
			if !s.c.sched.JobActive(job) {
				bi.refs.remove(job)
				bi.implicit.remove(job)
			} else {
				i++
			}
		}
		s.c.maybeRelease(bi)
	}
}
