// Package cache implements a PACMan-style coordinated in-memory block
// cache over the simulated DFS. It exists as a comparison point: caching
// accelerates repeatedly-read (hot) data but cannot help the ~30% of
// tasks that read singly-accessed cold data (paper §I, §VI) — the gap
// DYRS fills. The cache and DYRS compose: the cache keeps hot blocks
// resident after their first read, while DYRS pre-loads cold inputs
// before their only read.
package cache

import (
	"container/list"
	"fmt"

	"dyrs/internal/cluster"
	"dyrs/internal/dfs"
	"dyrs/internal/sim"
)

// EvictPolicy selects the cache's eviction order.
type EvictPolicy int

// LRU evicts the least recently used block — the one eviction order.
const LRU EvictPolicy = 0

// String names the policy.
func (p EvictPolicy) String() string { return "LRU" }

// entry tracks one cached block.
type entry struct {
	block *dfs.Block
	node  cluster.NodeID
	lru   *list.Element
}

// Cache is a cluster-wide coordinated cache. It watches every block read
// via the DFS read hook: hits are reads already redirected to a resident
// replica; misses insert the block at the reading node after the read,
// evicting least recently used blocks when the per-node budget is
// exceeded.
type Cache struct {
	fs      *dfs.FS
	perNode sim.Bytes
	used    map[cluster.NodeID]sim.Bytes
	entries map[dfs.BlockID]*entry
	lruList *list.List // front = most recent

	// Stats.
	Hits, Misses, Insertions, Evictions int
}

// New attaches a cache to the file system with the given per-node memory
// budget. LRU is the only eviction policy.
func New(fs *dfs.FS, perNodeBudget sim.Bytes, policy EvictPolicy) (*Cache, error) {
	if perNodeBudget <= 0 {
		return nil, fmt.Errorf("cache: per-node budget must be positive")
	}
	if policy != LRU {
		return nil, fmt.Errorf("cache: unknown eviction policy %d", policy)
	}
	c := &Cache{
		fs:      fs,
		perNode: perNodeBudget,
		used:    make(map[cluster.NodeID]sim.Bytes),
		entries: make(map[dfs.BlockID]*entry),
		lruList: list.New(),
	}
	if err := fs.OnRead(c.onRead); err != nil {
		return nil, err
	}
	return c, nil
}

// Resident reports the number of cached blocks.
func (c *Cache) Resident() int { return len(c.entries) }

// UsedOn reports cached bytes charged to a node.
func (c *Cache) UsedOn(n cluster.NodeID) sim.Bytes { return c.used[n] }

// onRead observes every block read.
func (c *Cache) onRead(id dfs.BlockID, at cluster.NodeID) {
	b := c.fs.Block(id)
	if e, ok := c.entries[id]; ok {
		// Validate: another subsystem (e.g. DYRS implicit eviction) may
		// have dropped the underlying replica.
		if c.fs.DataNode(e.node).HasMem(id) {
			c.Hits++
			c.lruList.MoveToFront(e.lru)
			return
		}
		c.remove(e, false)
	}
	c.Misses++
	c.insert(b, at)
}

// insert caches the block on a disk-replica holder, evicting as needed.
// Memory replicas live where the block resides on disk (the PACMan
// model, and the DFS structural invariant): the holder nearest the
// reader — the reader itself when it holds a replica — keeps the block
// buffered, and the cluster-wide read redirect serves later readers
// from there wherever they run.
func (c *Cache) insert(b *dfs.Block, at cluster.NodeID) {
	if b.Size > c.perNode {
		return // would never fit
	}
	node, ok := c.placement(b.ID, at)
	if !ok {
		return // no live disk replica to anchor to
	}
	for c.used[node]+b.Size > c.perNode {
		if !c.evictOne(node) {
			return // nothing evictable on this node
		}
	}
	// If the block is already resident elsewhere (e.g. a DYRS migration
	// placed it), don't double-cache; count residency only.
	if _, resident := c.fs.MemReplica(b.ID); resident {
		return
	}
	c.fs.RegisterMem(b.ID, node)
	e := &entry{block: b, node: node}
	e.lru = c.lruList.PushFront(e)
	c.entries[b.ID] = e
	c.used[node] += b.Size
	c.Insertions++
}

// placement picks the node to buffer the block on: the reading node if
// it holds a live disk replica, otherwise the first live replica holder
// in registry order (deterministic).
func (c *Cache) placement(id dfs.BlockID, at cluster.NodeID) (cluster.NodeID, bool) {
	live := c.fs.Replicas(id)
	for _, r := range live {
		if r == at {
			return at, true
		}
	}
	if len(live) == 0 {
		return 0, false
	}
	return live[0], true
}

// evictOne removes the least recently used block on the given node.
// Reports whether anything was evicted.
func (c *Cache) evictOne(node cluster.NodeID) bool {
	for el := c.lruList.Back(); el != nil; el = el.Prev() {
		if e := el.Value.(*entry); e.node == node {
			c.remove(e, true)
			return true
		}
	}
	return false
}

// remove deletes an entry, optionally dropping the replica from the DFS
// registry (stale entries skip the drop: the replica is already gone).
func (c *Cache) remove(e *entry, dropReplica bool) {
	if dropReplica {
		c.fs.DropMem(e.block.ID, e.node)
		c.Evictions++
	}
	c.lruList.Remove(e.lru)
	delete(c.entries, e.block.ID)
	c.used[e.node] -= e.block.Size
}

// Flush drops every cached block, least recently used first, so the
// evict instants DropMem records come in a deterministic order.
func (c *Cache) Flush() {
	for el := c.lruList.Back(); el != nil; el = c.lruList.Back() {
		e := el.Value.(*entry)
		c.fs.DropMem(e.block.ID, e.node)
		c.lruList.Remove(el)
		c.used[e.node] -= e.block.Size
	}
	c.entries = make(map[dfs.BlockID]*entry)
}

// HitRate reports hits / (hits + misses).
func (c *Cache) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}
