package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"dyrs/internal/cluster"
	"dyrs/internal/experiments"
	"dyrs/internal/sim"
)

// shardNode, shardRack and shardMaster mirror the partitioned model of
// experiments.RunScaleShard (untraced): per-node disks homed on rack
// shards, a master on shard 0, every master<->rack interaction a Send.
type shardNode struct {
	id          int
	disk        *sim.Resource
	outstanding int
	resident    int
	rng         *rand.Rand
	unloaded    sim.Duration // one block read alone on this disk
}

type shardRack struct {
	sh        *sim.Engine
	nodes     []*shardNode
	reads     uint64
	readBytes sim.Bytes
	migrated  int
	migBytes  sim.Bytes
	evicted   int

	// Benchmark-side observations, touched only on the rack's home shard.
	readIdeal  sim.Duration // summed unloaded read times of completed reads
	readActual sim.Duration // summed simulated latencies of completed reads
	peakQueued int          // traced run: largest queue seen at a heartbeat
	flows      *flowCounter
}

type shardLoad struct {
	id          int
	outstanding int
}

type shardMaster struct {
	est        []float64
	requested  int
	migrated   int
	heartbeats int
}

// shardRun is one set-up sharded preset, ready to run.
type shardRun struct {
	opt    experiments.ScaleShardOptions
	l      *ledger
	se     *sim.ShardedEngine
	m      *shardMaster
	racks  []*shardRack
	shards int
}

// shardWorkers caps the sharded engine's execution lanes at two, and at
// the machine's CPU count when that is lower.
func shardWorkers() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// setupShard builds the partitioned model and schedules its initial
// events: everything RunScaleShard does before se.RunUntil.
func setupShard(opt experiments.ScaleShardOptions, l *ledger) (*shardRun, error) {
	if opt.SampleEvery > 1 || opt.TraceOut != nil {
		return nil, fmt.Errorf("scaleshard %s: the benchmark driver runs the untraced preset only", opt.Scenario)
	}
	if opt.Nodes <= 0 || opt.Racks <= 0 || opt.Jobs <= 0 || opt.BlocksPerJob <= 0 {
		return nil, fmt.Errorf("scaleshard %s: non-positive size parameter", opt.Scenario)
	}
	look := cluster.MinLookahead(opt.ControlLatency, 0, opt.Heartbeat)
	dataShards := opt.DataShards
	if dataShards <= 0 {
		dataShards = opt.Racks
	}
	part := cluster.PartitionByRack(opt.Nodes, opt.Racks, dataShards, look)
	se := sim.NewShardedEngine(opt.Seed, part.Shards(), look)
	if opt.Workers > 0 {
		se.SetWorkers(opt.Workers)
	} else {
		se.SetWorkers(runtime.GOMAXPROCS(0))
	}
	r := &shardRun{opt: opt, l: l, se: se, shards: part.Shards()}
	master := se.Shard(0)
	span := sim.Time(opt.Virtual)

	m := &shardMaster{est: make([]float64, opt.Nodes)}
	r.m = m
	racks := make([]*shardRack, part.Shards())
	for s := 1; s < part.Shards(); s++ {
		rk := &shardRack{sh: se.Shard(s)}
		if l != nil {
			rk.flows = &flowCounter{}
			rk.sh.SetFlowSink(rk.flows)
		}
		racks[s] = rk
	}
	r.racks = racks

	setupRng := sim.NewEngine(opt.Seed + 1).Rand()
	nodeCfg := cluster.DefaultNodeConfig()
	home := make([]*shardNode, opt.Nodes)
	for i := 0; i < opt.Nodes; i++ {
		scale := 1 - 0.65*setupRng.Float64()
		rk := racks[part.NodeShard(cluster.NodeID(i))]
		n := &shardNode{
			id:   i,
			disk: sim.NewResource(rk.sh, fmt.Sprintf("disk:%d", i), nodeCfg.DiskBandwidth*scale, sim.SeekEfficiency(nodeCfg.DiskSeekPenalty)),
			rng:  rand.New(rand.NewSource(opt.Seed ^ int64(uint64(i+1)*0x9E3779B97F4A7C15))),
		}
		n.unloaded = sim.Duration(float64(opt.BlockSize) / n.disk.Capacity() * float64(time.Second))
		rk.nodes = append(rk.nodes, n)
		home[i] = n
	}

	var startRead func(rk *shardRack, n *shardNode)
	scheduleRead := func(rk *shardRack, n *shardNode) {
		at := rk.sh.Now().Add(sim.Duration(n.rng.ExpFloat64() * float64(opt.ReadEvery)))
		if at >= span {
			return
		}
		rk.sh.At(at, func() { startRead(rk, n) })
	}
	startRead = func(rk *shardRack, n *shardNode) {
		n.outstanding++
		t0 := rk.sh.Now()
		n.disk.Start(opt.BlockSize, func(*sim.Flow) {
			n.outstanding--
			rk.reads++
			rk.readBytes += opt.BlockSize
			rk.readIdeal += n.unloaded
			rk.readActual += rk.sh.Now().Sub(t0)
			scheduleRead(rk, n)
		})
	}
	for s := 1; s < part.Shards(); s++ {
		rk := racks[s]
		for _, n := range rk.nodes {
			scheduleRead(rk, n)
		}
	}

	var beat func(rk *shardRack)
	beat = func(rk *shardRack) {
		if l != nil {
			if p := rk.sh.Pending(); p > rk.peakQueued {
				rk.peakQueued = p
			}
		}
		report := make([]shardLoad, len(rk.nodes))
		for i, n := range rk.nodes {
			report[i] = shardLoad{id: n.id, outstanding: n.outstanding}
		}
		rk.sh.Send(0, opt.ControlLatency, func() {
			m.heartbeats++
			for _, ld := range report {
				m.est[ld.id] = 0.7*m.est[ld.id] + 0.3*float64(ld.outstanding)
			}
		})
		next := rk.sh.Now().Add(opt.Heartbeat)
		if next < span {
			rk.sh.At(next, func() { beat(rk) })
		}
	}
	for s := 1; s < part.Shards(); s++ {
		rk := racks[s]
		rk.sh.At(sim.Time(opt.Heartbeat), func() { beat(rk) })
	}

	const migWeight = 0.3
	migrate := func(rk *shardRack, n *shardNode) {
		n.disk.StartWeighted(opt.BlockSize, migWeight, func(*sim.Flow) {
			rk.migrated++
			rk.migBytes += opt.BlockSize
			n.resident++
			rk.sh.Schedule(opt.Residency, func() {
				n.resident--
				rk.evicted++
			})
			id := n.id
			rk.sh.Send(0, opt.ControlLatency, func() {
				m.migrated++
				m.est[id] *= 0.8
			})
		})
	}

	blockCost := float64(opt.BlockSize) / nodeCfg.DiskBandwidth
	arrivalSpan := 0.75 * float64(opt.Virtual)
	for j := 0; j < opt.Jobs; j++ {
		submit := sim.Time(arrivalSpan * float64(j) / float64(opt.Jobs))
		master.At(submit, func() {
			m.requested += opt.BlocksPerJob
			batches := make([][]*shardNode, part.Shards())
			for k := 0; k < opt.BlocksPerJob; k++ {
				best := 0
				for i := 1; i < opt.Nodes; i++ {
					if m.est[i] < m.est[best] {
						best = i
					}
				}
				m.est[best] += blockCost
				s := part.NodeShard(cluster.NodeID(best))
				batches[s] = append(batches[s], home[best])
			}
			for s, batch := range batches {
				if len(batch) == 0 {
					continue
				}
				rk, batch := racks[s], batch
				master.Send(s, opt.ControlLatency, func() {
					for _, n := range batch {
						migrate(rk, n)
					}
				})
			}
		})
	}
	return r, nil
}

// run executes the span and the drain, then checks RunScaleShard's
// end-of-run invariants.
func (r *shardRun) run() (experiments.ScaleShardRow, error) {
	opt, se, m, l := r.opt, r.se, r.m, r.l
	row := experiments.ScaleShardRow{
		Scenario:     opt.Scenario,
		Nodes:        opt.Nodes,
		Racks:        opt.Racks,
		Shards:       r.shards,
		VirtualHours: time.Duration(opt.Virtual).Hours(),
	}
	l.span(spanRun, func() { se.RunUntil(sim.Time(opt.Virtual)) })
	l.span(spanRun, se.Run)

	row.EventsFired = se.EventsFired()
	row.Digest = fmt.Sprintf("%016x", se.Digest())
	row.Heartbeats = m.heartbeats
	prof := se.Profile()
	row.Rounds = prof.Rounds
	row.SoloRounds = prof.SoloRounds
	row.CrossShardMsgs = prof.Delivered
	for _, s := range prof.Stalled {
		row.LookaheadStalls += s
	}
	row.Requested = m.requested
	row.Migrated = m.migrated
	rackMigrated := 0
	for _, rk := range r.racks[1:] {
		row.Reads += rk.reads
		row.ReadTB += float64(rk.readBytes) / float64(sim.TB)
		row.Evicted += rk.evicted
		row.MigratedTB += float64(rk.migBytes) / float64(sim.TB)
		rackMigrated += rk.migrated
		for _, n := range rk.nodes {
			if n.resident != 0 {
				return row, fmt.Errorf("scaleshard %s: node %d still buffers %d blocks after drain", opt.Scenario, n.id, n.resident)
			}
		}
	}
	if rackMigrated != m.requested || m.migrated != m.requested {
		return row, fmt.Errorf("scaleshard %s: requested %d, rack-migrated %d, master-acked %d",
			opt.Scenario, m.requested, rackMigrated, m.migrated)
	}
	if row.Evicted != rackMigrated {
		return row, fmt.Errorf("scaleshard %s: migrated %d but evicted %d", opt.Scenario, rackMigrated, row.Evicted)
	}
	return row, nil
}

// shardWorkload is the `sharded` workload: the ScaleShard1k preset on
// the sharded engine with at most two execution workers.
func shardWorkload(seed int64, l *ledger) (func() (*passResult, error), error) {
	opt := experiments.ScaleShard1kOptions(seed)
	opt.Workers = shardWorkers()
	r, err := setupShard(opt, l)
	if err != nil {
		return nil, err
	}
	return func() (*passResult, error) {
		row, err := r.run()
		if err != nil {
			return nil, err
		}
		res := newPassResult(row)
		if row.Reads == 0 {
			return nil, fmt.Errorf("sharded: no reads completed")
		}
		var ideal, actual sim.Duration
		var flows, cancels, peakFlows, peakQueue int64
		for _, rk := range r.racks[1:] {
			ideal += rk.readIdeal
			actual += rk.readActual
			if rk.flows != nil {
				flows += rk.flows.flows
				cancels += rk.flows.cancels
				peakFlows = max(peakFlows, rk.flows.peak)
			}
			peakQueue = max(peakQueue, int64(rk.peakQueued))
		}
		// Read efficiency: the summed time the completed reads would have
		// taken alone on their disks over the time they took, so it falls
		// as migrations and other reads contend for the disks.
		res.outcome = float64(ideal) / float64(actual)
		res.note("sim_read_efficiency", res.outcome, "ratio")
		res.note("events", float64(row.EventsFired), "count")
		res.layer("sim.engine.events", float64(row.EventsFired))
		res.layer("sim.engine.peak_queue", float64(peakQueue))
		res.layer("sim.resource.flows", float64(flows))
		res.layer("sim.resource.cancels", float64(cancels))
		res.layer("sim.resource.peak_active", float64(peakFlows))
		res.layer("sim.shard.windows", float64(row.Rounds))
		res.layer("sim.shard.solo_rounds", float64(row.SoloRounds))
		res.layer("sim.shard.stalls", float64(row.LookaheadStalls))
		res.layer("sim.shard.msgs", float64(row.CrossShardMsgs))
		res.layer("migration.requested", float64(row.Requested))
		res.layer("migration.migrated", float64(row.Migrated))
		return res, nil
	}, nil
}
