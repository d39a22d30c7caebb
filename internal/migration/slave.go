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

// activeMigration is one in-flight disk-to-memory transfer.
type activeMigration struct {
	flow    *sim.Flow
	started sim.Time
	span    trace.SpanRef // rate-controlled transfer span, child of the block's migration span
}

// Slave is the per-DataNode migration agent: it keeps a short local FIFO
// queue of bound migrations, performs them subject to the policy's
// concurrency limit (DYRS serializes to limit disk seek thrash, §III-B),
// maintains the migration-time estimate, and enforces the memory hard
// limit.
type Slave struct {
	c    *Coordinator
	node *cluster.Node

	queue  []*blockInfo
	active map[*blockInfo]*activeMigration

	estimator *estimator
	depth     int
	memLimit  sim.Bytes
	maxActive int

	stopped   bool
	estSeries *metrics.TimeSeries

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
		active:    make(map[*blockInfo]*activeMigration),
		estimator: newEstimator(c.cfg.EWMAAlpha, node.Cfg.DiskBandwidth),
		depth:     c.cfg.queueDepth(c.fs.Config().BlockSize, node.Cfg.DiskBandwidth),
		memLimit:  sim.Bytes(c.cfg.MemLimitFraction * float64(node.Cfg.MemCapacity)),
		maxActive: maxActive,
	}
	if !c.cfg.DisableEstimateSeries {
		s.estSeries = metrics.NewTimeSeries(node.ID.String())
	}
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
	// so the choice never depends on map order.
	if !s.c.cfg.DisableInProgressUpdates {
		var worst *blockInfo
		var worstElapsed float64
		for bi, am := range s.active {
			elapsed := s.c.eng.Now().Sub(am.started).Seconds()
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
	if s.estSeries != nil {
		s.estSeries.Record(s.c.eng.Now().Seconds(), s.estimator.blockSeconds(s.c.fs.Config().BlockSize))
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
	return s.estSeries == nil &&
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
	for i, q := range s.queue {
		if q == bi {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return
		}
	}
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
		s.queue = s.queue[1:]
		s.c.transition(next, stateMigrating)
		am := &activeMigration{started: s.c.eng.Now()}
		s.active[next] = am
		if tr := s.c.tr; tr.Enabled() {
			am.span = next.span.Child("migration", "transfer", int(s.node.ID),
				trace.Int("block", int64(next.id)),
				trace.Int("size", int64(next.size)),
				trace.Float("io-weight", s.c.cfg.IOWeight))
		}
		flow, err := dn.MigrateToMemory(next.id, s.c.cfg.IOWeight, func(d sim.Duration) {
			s.finish(next, d)
		})
		if err != nil {
			// Bound to a node that no longer holds a replica (should not
			// happen with a correct binder); drop the migration.
			delete(s.active, next)
			s.c.transition(next, stateNone)
			s.c.stats.Dropped++
			if tr := s.c.tr; tr.Enabled() {
				am.span.End(trace.Str("outcome", "failed"))
			}
			s.c.dropTrace(next, "no-replica")
			continue
		}
		am.flow = flow
	}
}

// finish completes an active migration: update the estimator with the
// true duration, publish the in-memory replica, and continue.
func (s *Slave) finish(bi *blockInfo, d sim.Duration) {
	s.estimator.observe(d.Seconds(), bi.size)
	s.Migrations++
	s.BytesMigrated += bi.size
	s.c.hTransfer.Observe(int64(bi.size))
	if tr := s.c.tr; tr.Enabled() {
		if am := s.active[bi]; am != nil {
			am.span.End(trace.Str("outcome", "completed"))
		}
		bi.span.End(trace.Str("outcome", "pinned"), trace.Int("slave", int64(s.node.ID)))
		tr.Inc("migration.completed")
		tr.Add("migration.bytes", bi.size)
	}
	delete(s.active, bi)
	s.c.onMigrated(bi, s.node.ID)
	s.kick()
}

// abortActive cancels the in-flight migration of bi, freeing the disk
// for foreground reads, and moves on to the next queued block.
func (s *Slave) abortActive(bi *blockInfo) {
	am, ok := s.active[bi]
	if !ok {
		return
	}
	if am.flow != nil {
		am.flow.Cancel()
	}
	if tr := s.c.tr; tr.Enabled() {
		am.span.End(trace.Str("outcome", "aborted"))
		tr.Inc("migration.aborted")
	}
	delete(s.active, bi)
	s.kick()
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
