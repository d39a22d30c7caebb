package migration

import (
	"fmt"
	"math/bits"
	"sort"

	"dyrs/internal/cluster"
	"dyrs/internal/dfs"
	"dyrs/internal/metrics"
	"dyrs/internal/sim"
	"dyrs/internal/trace"
)

// Coordinator is the migration framework: the master-side bookkeeping
// (reference lists, block lifecycle, stats) plus one Slave per DataNode.
// The binding policy — which replica of which block migrates where, and
// when that decision is made — is delegated to a Binder.
type Coordinator struct {
	eng *sim.Engine
	cl  *cluster.Cluster
	fs  *dfs.FS
	cfg Config
	tr  *trace.Tracer // run tracer; nil (no-op) when untraced

	// Streaming metric handles, cached once at construction (nil and
	// no-op when untraced). Histograms aggregate every event exactly —
	// they are never subject to span sampling.
	hLead     *trace.Hist // migration request -> first in-memory read, ns
	hMargin   *trace.Hist // pin -> first in-memory read, ns
	hTransfer *trace.Hist // completed transfer size, bytes
	hQueue    *trace.Hist // slave queue occupancy at each bind

	binder Binder
	slaves []*Slave
	sched  ActiveJobChecker

	// heartbeat is the one coordinator-owned slave heartbeat. Each beat
	// ticks the awake slaves only, in node-ID order; awake is a bitset
	// over node IDs. A slave leaves it once its next tick would be a
	// no-op (Slave.quiescent) and rejoins at a wake point: a bind
	// (enqueue), a slave restart, fresh pending blocks, a membership
	// change, or buffer growth outside its own migrations.
	heartbeat *sim.Ticker
	awake     []uint64
	// lastMembers and lastMemEpoch are the cluster membership and dfs
	// buffer-growth epochs seen by the previous beat.
	lastMembers  uint64
	lastMemEpoch uint64

	// info is the master's block-record table, a dense slice indexed by
	// BlockID (block IDs are small dense integers allocated by the file
	// system). Untracked blocks hold nil. Indexing replaces the map probe
	// the per-read and per-request hot paths used to pay.
	info []*blockInfo
	// slab is the chunk new block records are carved from (newRecord).
	// Records never move once carved, so *blockInfo handles stay valid.
	slab []blockInfo
	// jobBlocks lists the blocks each job has requested, for Evict. The
	// lists may retain ids whose reference the job already dropped via
	// implicit eviction — Evict tolerates stale entries, which is cheaper
	// than deleting from the middle of a slice on every NoteRead.
	jobBlocks map[JobID][]dfs.BlockID
	hints     map[JobID]JobHint

	// counts holds the master's incremental per-state block tallies,
	// indexed by blockState and maintained exclusively by transition().
	// They are never recomputed by scanning info, so StateCounts stays
	// O(1) with millions of tracked blocks.
	counts [stateInMemory + 1]int

	estimates map[cluster.NodeID]nodeEstimate
	// estEpoch increments whenever a heartbeat actually changes a stored
	// estimate; the DYRS binder uses it to skip Algorithm 1 passes whose
	// inputs have not moved.
	estEpoch uint64
	// hintEpoch increments whenever scheduler hints change (set or
	// cleared); ordering policies read hints, so the binder's gate must
	// treat a hint change as an input change.
	hintEpoch uint64

	migratedHooks []func(dfs.BlockID, cluster.NodeID, sim.Time)

	// Migrate's reusable scratch: the request's block IDs, its freshly
	// pending records, and the slave kick it schedules, bound once.
	ids       []dfs.BlockID
	fresh     []*blockInfo
	kickAllFn func()

	stats Stats
}

// Binder decides replica selection and binding time. Production code
// has one implementation, PolicyBinder, which drives any policy.Policy
// (DYRS, Ignem, Naive, CostAware); tests substitute frozen references.
type Binder interface {
	// Name identifies the policy in output tables.
	Name() string
	// OnMigrate receives newly requested blocks. A binder may bind them
	// to slaves immediately (Ignem) or keep them pending until pulled.
	OnMigrate(blocks []*blockInfo)
	// OnPull is invoked when slave n has free local queue space; it
	// returns the blocks to bind to n now (at most space blocks). The
	// slice may be the binder's scratch, valid until the next OnPull.
	OnPull(n cluster.NodeID, space int) []*blockInfo
	// Remove discards a pending block (missed read or eviction).
	Remove(b *blockInfo)
	// PendingCount reports blocks awaiting binding.
	PendingCount() int
	// Reset drops all pending state (master restart).
	Reset()
}

// NewCoordinator wires a migration framework over the file system with
// the given binding policy. A Slave is created for every DataNode.
func NewCoordinator(fs *dfs.FS, cfg Config, binder Binder) *Coordinator {
	cl := fs.Cluster()
	c := &Coordinator{
		eng:       cl.Engine(),
		cl:        cl,
		fs:        fs,
		cfg:       cfg,
		tr:        trace.FromEngine(cl.Engine()),
		binder:    binder,
		sched:     alwaysActive{},
		jobBlocks: make(map[JobID][]dfs.BlockID),
		hints:     make(map[JobID]JobHint),
		estimates: make(map[cluster.NodeID]nodeEstimate),
	}
	c.hLead = c.tr.Hist("migration.lead_ns")
	c.hMargin = c.tr.Hist("migration.margin_ns")
	c.hTransfer = c.tr.Hist("migration.transfer_bytes")
	c.hQueue = c.tr.Hist("migration.queue_depth")
	c.kickAllFn = c.kickAll
	if ab, ok := binder.(attachable); ok {
		ab.attach(c)
	}
	for _, n := range cl.Nodes() {
		c.slaves = append(c.slaves, newSlave(c, n))
	}
	// Arm the beat here, after the binder's update ticker and before
	// anything built later (rate controller, samplers), so at every
	// boundary it holds the queue position a per-slave heartbeat would:
	// same-instant tie order depends on it (DESIGN.md §5). Every slave
	// starts awake.
	c.awake = make([]uint64, (len(c.slaves)+63)/64)
	c.wakeAll()
	c.lastMembers = cl.MembershipEpoch()
	c.lastMemEpoch = fs.MemEpoch()
	c.heartbeat = sim.NewTicker(c.eng, cfg.Heartbeat, c.beat)
	return c
}

// beat is one heartbeat across the fleet: every awake slave ticks, in
// node-ID order, and drops out of the awake set if its next tick would
// be a no-op. The walk re-reads the current bitset word after each tick,
// so a slave woken by an earlier one in the same beat still ticks in its
// own slot, exactly where its per-slave heartbeat event used to fire.
func (c *Coordinator) beat() {
	if m, e := c.cl.MembershipEpoch(), c.fs.MemEpoch(); m != c.lastMembers || e != c.lastMemEpoch {
		c.lastMembers, c.lastMemEpoch = m, e
		c.wakeAll()
	}
	for w := range c.awake {
		for done := uint64(0); ; {
			word := c.awake[w] &^ done
			if word == 0 {
				break
			}
			bit := word & -word
			done |= bit
			s := c.slaves[w*64+bits.TrailingZeros64(word)]
			s.tick()
			if s.quiescent() {
				c.awake[w] &^= bit
			}
		}
	}
}

// wake returns a slave to the awake set; it ticks at the next beat.
func (c *Coordinator) wake(id cluster.NodeID) {
	c.awake[int(id)/64] |= 1 << (uint(id) % 64)
}

// wakeAll puts every slave in the awake set.
func (c *Coordinator) wakeAll() {
	for i := range c.awake {
		c.awake[i] = ^uint64(0)
	}
	if r := len(c.slaves) % 64; r != 0 {
		c.awake[len(c.awake)-1] = 1<<uint(r) - 1
	}
}

// attachable is implemented by binders that need a back-reference to the
// coordinator (to push immediate bindings or read estimates).
type attachable interface{ attach(c *Coordinator) }

// SetScheduler wires the cluster scheduler used by scavenging.
func (c *Coordinator) SetScheduler(s ActiveJobChecker) {
	if s != nil {
		c.sched = s
	}
}

// Stats returns a copy of the framework counters.
func (c *Coordinator) Stats() Stats { return c.stats }

// transition moves a tracked block to a new lifecycle state, keeping the
// master's incremental per-state counts in step. Every state write in
// the framework goes through here; records detached by a master restart
// keep their slave-side lifecycle but no longer touch the counts.
func (c *Coordinator) transition(bi *blockInfo, to blockState) {
	if bi.state == to {
		return
	}
	if !bi.detached {
		if bi.state != stateNone {
			c.counts[bi.state]--
		}
		if to != stateNone {
			c.counts[to]++
		}
	}
	bi.state = to
}

// StateCounts reports, in O(1), how many master-tracked blocks are in
// each lifecycle state: awaiting binding, bound in a slave queue, being
// migrated, and resident in memory.
func (c *Coordinator) StateCounts() (pending, queued, migrating, inMemory int) {
	return c.counts[statePending], c.counts[stateQueued], c.counts[stateMigrating], c.counts[stateInMemory]
}

// blockRecord returns the tracked record for a block, or nil.
func (c *Coordinator) blockRecord(id dfs.BlockID) *blockInfo {
	if i := int(id); i < len(c.info) {
		return c.info[i]
	}
	return nil
}

// setRecord stores a block record, growing the dense table geometrically
// so tracking n blocks costs O(n) total, not O(n²) copies.
func (c *Coordinator) setRecord(id dfs.BlockID, bi *blockInfo) {
	if n := int(id) + 1; n > len(c.info) {
		if n > cap(c.info) {
			newCap := 2 * cap(c.info)
			if newCap < n {
				newCap = n
			}
			grown := make([]*blockInfo, n, newCap)
			copy(grown, c.info)
			c.info = grown
		} else {
			c.info = c.info[:n]
		}
	}
	c.info[int(id)] = bi
}

// recordChunk is how many block records newRecord carves per slab.
const recordChunk = 256

// newRecord returns a fresh record for block id, carved from the
// coordinator's slab so tracking a million blocks costs a few thousand
// allocations, not a million. Its reference lists start on the record's
// inline single-job storage.
func (c *Coordinator) newRecord(id dfs.BlockID) *blockInfo {
	if len(c.slab) == cap(c.slab) {
		c.slab = make([]blockInfo, 0, recordChunk)
	}
	c.slab = c.slab[:len(c.slab)+1]
	bi := &c.slab[len(c.slab)-1]
	bi.id = id
	bi.size = c.fs.BlockSize(id)
	bi.refs = bi.refsBuf[:0]
	bi.implicit = bi.implicitBuf[:0]
	c.setRecord(id, bi)
	return bi
}

// Slave returns the migration slave on the given node.
func (c *Coordinator) Slave(id cluster.NodeID) *Slave { return c.slaves[int(id)] }

// Estimate reports the master's view of a slave's per-byte migration
// time and queue occupancy, as refreshed by heartbeats. Before the first
// heartbeat it falls back to the slave's seeded estimate so Algorithm 1
// has sane inputs from time zero.
func (c *Coordinator) Estimate(id cluster.NodeID) (perByteSeconds float64, queued int) {
	if e, ok := c.estimates[id]; ok {
		return e.perByte, e.queued
	}
	s := c.slaves[int(id)]
	return s.estimator.perByte(), s.occupancy()
}

// Migrate implements Manager. It maps files to blocks (the master's job,
// §III), registers the job on each block's reference list, and hands new
// blocks to the binder. Binding may happen now (Ignem) or lazily on
// slave pulls (DYRS/naive).
func (c *Coordinator) Migrate(job JobID, files []string, implicitEvict bool) error {
	ids, err := c.fs.AppendFileBlockIDs(c.ids[:0], files)
	c.ids = ids
	if err != nil {
		return fmt.Errorf("migration: %w", err)
	}
	fresh := c.fresh[:0]
	for _, id := range ids {
		bi := c.blockRecord(id)
		if bi == nil || bi.state == stateNone {
			if bi == nil {
				bi = c.newRecord(id)
			}
			if node, ok := c.fs.MemReplica(id); ok {
				// The block is already resident — typically because a
				// master fail-over wiped the reference lists while the
				// slave-side buffer survived (§III-C1). Re-adopt the
				// surviving replica instead of migrating a second copy,
				// which would strand the old one outside any reference
				// list.
				c.transition(bi, stateInMemory)
				bi.slave = node
				c.stats.Readopted++
				if c.tr.Enabled() {
					c.tr.Inc("migration.readopted")
					c.tr.Instant("migration", "readopt", int(node),
						trace.Int("job", int64(job)),
						trace.Int("block", int64(id)))
				}
			} else {
				c.transition(bi, statePending)
				bi.hasTarget = false
				bi.requestedAt = c.eng.Now()
				bi.leadRecorded = false
				c.stats.Requested++
				if c.tr.Enabled() {
					bi.span = c.tr.Begin("migration", "migrate", trace.NodeMaster,
						trace.Int("job", int64(job)),
						trace.Int("block", int64(id)),
						trace.Int("size", int64(bi.size)))
					c.tr.Inc("migration.requested")
				}
				fresh = append(fresh, bi)
			}
		}
		if !bi.refs.has(job) {
			bi.refs = append(bi.refs, job)
			c.jobBlocks[job] = append(c.jobBlocks[job], id)
		}
		if implicitEvict {
			bi.implicit.add(job)
		}
	}
	if len(fresh) > 0 {
		// Pending work makes every slave's pull live again.
		c.wakeAll()
		c.binder.OnMigrate(fresh)
		// Kick the slaves so migration can begin within an RPC round-trip
		// instead of waiting out a heartbeat; slaves pull per policy.
		c.cl.RPC(c.kickAllFn)
	}
	c.fresh = fresh[:0]
	return nil
}

// kickAll has every slave pull and start work.
func (c *Coordinator) kickAll() {
	for _, s := range c.slaves {
		s.pull()
		s.kick()
	}
}

// Evict implements Manager: the job's explicit eviction command routed
// through the master (§III-C3). Blocks are released in block-ID order so
// the run — including any recorded trace — is independent of map
// iteration order.
func (c *Coordinator) Evict(job JobID) {
	ids := c.jobBlocks[job]
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		bi := c.blockRecord(id)
		if bi == nil {
			continue
		}
		// Stale entries (reference already dropped by implicit eviction)
		// and duplicates are no-ops here: remove misses and maybeRelease
		// sees a released record.
		bi.refs.remove(job)
		bi.implicit.remove(job)
		c.maybeRelease(bi)
	}
	delete(c.jobBlocks, job)
	if _, ok := c.hints[job]; ok {
		delete(c.hints, job)
		c.hintEpoch++
	}
}

// NoteRead implements Manager. For implicit-eviction jobs the job is
// removed from the block's reference list as soon as it reads the block;
// a block whose list empties is released — evicted if resident, or
// discarded from the migration pipeline if the read beat the migration
// ("discarded due to missed reads", §IV-A1).
func (c *Coordinator) NoteRead(job JobID, block dfs.BlockID) {
	bi := c.blockRecord(block)
	if bi == nil {
		return
	}
	inFlight := false
	switch bi.state {
	case stateInMemory:
		c.stats.MemoryHits++
		if !bi.leadRecorded {
			bi.leadRecorded = true
			now := c.eng.Now()
			c.hLead.Observe(int64(now.Sub(bi.requestedAt)))
			c.hMargin.Observe(int64(now.Sub(bi.pinnedAt)))
		}
	case statePending, stateQueued, stateMigrating:
		c.stats.MissedReads++
		inFlight = true
	}
	if inFlight && !c.cfg.CancelOnMissedRead {
		// Policies without missed-read handling (Ignem) leave the
		// now-pointless migration in the pipeline.
		return
	}
	if bi.implicit.has(job) {
		bi.refs.remove(job)
		bi.implicit.remove(job)
		// The id stays in jobBlocks[job]; Evict skips the stale entry.
		c.maybeRelease(bi)
	}
}

// maybeRelease frees a block whose reference list has emptied.
func (c *Coordinator) maybeRelease(bi *blockInfo) {
	if len(bi.refs) > 0 {
		return
	}
	switch bi.state {
	case statePending:
		c.binder.Remove(bi)
		c.transition(bi, stateNone)
		c.stats.Dropped++
		c.dropTrace(bi, "released-pending")
	case stateQueued:
		c.slaves[int(bi.slave)].dequeue(bi)
		c.transition(bi, stateNone)
		c.stats.Dropped++
		c.dropTrace(bi, "released-queued")
	case stateMigrating:
		if c.cfg.CancelOnMissedRead {
			// Discard the in-flight migration: its disk bandwidth is
			// better spent on the read that just made it pointless. In
			// the paper's testbed migrations take ~2s so this race
			// window is negligible; under a saturated map phase it is
			// not, and "discarded due to missed reads" (§IV-A1) extends
			// naturally to the active transfer (munmap releases it).
			c.slaves[int(bi.slave)].abortActive(bi)
			c.transition(bi, stateNone)
			c.stats.Dropped++
			c.dropTrace(bi, "missed-read")
			return
		}
		// Policies without missed-read handling let the migration
		// finish; completion sees the empty list and evicts immediately.
	case stateInMemory:
		c.fs.DropMem(bi.id, bi.slave)
		c.transition(bi, stateNone)
		c.stats.Evicted++
	}
}

// dropTrace closes a block's migration span as dropped with the given
// reason. A no-op when untraced or when the span already ended.
func (c *Coordinator) dropTrace(bi *blockInfo, reason string) {
	if c.tr.Enabled() {
		bi.span.End(trace.Str("outcome", "dropped"), trace.Str("reason", reason))
		c.tr.Inc("migration.dropped")
	}
}

// onHeartbeat records a slave's estimate for the binder's use. The
// estimate epoch only advances when the stored value actually changes,
// so an idle fleet's heartbeats do not force binder passes.
func (c *Coordinator) onHeartbeat(n cluster.NodeID, perByte float64, queued int) {
	e := nodeEstimate{perByte: perByte, queued: queued}
	if c.estimates[n] != e {
		c.estimates[n] = e
		c.estEpoch++
	}
}

// onMigrated finalizes a completed migration.
func (c *Coordinator) onMigrated(bi *blockInfo, at cluster.NodeID) {
	c.transition(bi, stateInMemory)
	bi.slave = at
	bi.pinnedAt = c.eng.Now()
	c.stats.Migrated++
	c.stats.BytesMigrated += bi.size
	for _, fn := range c.migratedHooks {
		fn(bi.id, at, c.eng.Now())
	}
	c.maybeRelease(bi) // evicts right away if every reader already came and went
}

// OnMigrated registers an instrumentation callback invoked whenever a
// migration completes (used to reconstruct migration timelines, Fig. 10).
func (c *Coordinator) OnMigrated(fn func(block dfs.BlockID, node cluster.NodeID, at sim.Time)) {
	c.migratedHooks = append(c.migratedHooks, fn)
}

// RestartMaster simulates a master fail-over: all soft state about
// pending migrations and reference lists is lost (§III-C1). In-memory
// replicas survive at the slaves; scavenging reclaims them once their
// jobs finish.
func (c *Coordinator) RestartMaster() {
	c.binder.Reset()
	// The dense info table walks in block-ID order by construction, so
	// the trace (span ends, drop counters) is deterministic.
	for _, bi := range c.info {
		if bi == nil {
			continue
		}
		switch bi.state {
		case statePending:
			c.transition(bi, stateNone)
			c.stats.Dropped++
			c.dropTrace(bi, "master-restart")
		case stateQueued, stateMigrating, stateInMemory:
			// Slave-side state persists; the new master relearns it as
			// slaves heartbeat and scavenge. The record leaves the
			// master's books (and its incremental counts) now; detaching
			// it keeps later slave-side transitions from double-counting
			// against a re-adopted successor record.
			if !bi.detached {
				c.counts[bi.state]--
				bi.detached = true
			}
		}
	}
	c.info = nil
	c.jobBlocks = make(map[JobID][]dfs.BlockID)
}

// RestartSlaveProcess simulates a slave process crash + restart: the
// OS reclaims all locked buffers, the master drops its state about blocks
// buffered there, and bound-but-unfinished migrations are lost (§III-C2).
func (c *Coordinator) RestartSlaveProcess(id cluster.NodeID) {
	s := c.slaves[int(id)]
	for _, bi := range s.queue {
		c.transition(bi, stateNone)
		c.stats.Dropped++
		c.dropTrace(bi, "slave-restart")
	}
	clear(s.queue)
	s.queue = s.queue[:0]
	// Abort active transfers in block-ID order; a detached record and its
	// successor on the same block keep their start order.
	sort.SliceStable(s.active, func(i, j int) bool { return s.active[i].id < s.active[j].id })
	for _, bi := range s.active {
		s.cancelTransfer(bi)
		c.transition(bi, stateNone)
		c.stats.Dropped++
		c.dropTrace(bi, "slave-restart")
	}
	clear(s.active)
	s.active = s.active[:0]
	// Blocks buffered in memory on this node are gone.
	for _, bi := range c.info {
		if bi != nil && bi.state == stateInMemory && bi.slave == id {
			c.transition(bi, stateNone)
			c.stats.Evicted++
		}
	}
	c.fs.DropAllMem(id)
	s.estimator.reset()
	// The reset estimate must reach the master at the next beat.
	c.wake(id)
}

// ScavengeAll runs the scavenging pass on every slave immediately,
// regardless of the memory-pressure threshold that normally gates it.
// After all jobs have finished and evicted, a ScavengeAll leaves no
// block resident: anything still buffered is either unreferenced (and
// released here) or orphaned by a restart (and reclaimed here). The
// fuzzing harness calls this at end-of-run so "no buffered bytes
// remain" is checkable as a hard invariant.
func (c *Coordinator) ScavengeAll() {
	for _, s := range c.slaves {
		s.scavenge()
	}
}

// Shutdown stops the slave heartbeat and any binder background thread;
// used at the end of an experiment so the event queue can drain.
func (c *Coordinator) Shutdown() {
	for _, s := range c.slaves {
		s.stopped = true
	}
	c.heartbeat.Stop()
	if sb, ok := c.binder.(stoppable); ok {
		sb.stopBinder()
	}
}

// PendingBlocks reports the number of blocks the binder is still holding
// unbound.
func (c *Coordinator) PendingBlocks() int { return c.binder.PendingCount() }

// QueuedBlocks reports blocks bound to slave queues (including active).
func (c *Coordinator) QueuedBlocks() int {
	total := 0
	for _, s := range c.slaves {
		total += s.occupancy()
	}
	return total
}

// EstimateSeries returns the recorded migration-time-estimate time series
// for a slave (seconds to migrate one standard block, sampled each
// heartbeat) — the data behind Fig. 9. Empty when recording is disabled
// via Config.DisableEstimateSeries.
func (c *Coordinator) EstimateSeries(id cluster.NodeID) []metrics.TimePoint {
	return c.slaves[int(id)].estSeries
}

var _ Manager = (*Coordinator)(nil)
