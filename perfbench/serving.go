package main

import (
	"fmt"
	"sort"
	"time"

	"dyrs/internal/cache"
	"dyrs/internal/cluster"
	"dyrs/internal/compute"
	"dyrs/internal/dfs"
	"dyrs/internal/experiments"
	"dyrs/internal/migration"
	"dyrs/internal/policy"
	"dyrs/internal/sim"
	"dyrs/internal/trace"
	"dyrs/internal/workload"
)

// servingRun is one set-up serving preset under the DYRS policy. Set-up
// reproduces experiments.NewEnv(DYRS, {Trace: true, MigBinder: "dyrs"})
// and the first half of experiments.RunServingLoad; run reproduces the
// rest, so the row equals the "dyrs" row of experiments.RunServing.
type servingRun struct {
	opt     experiments.ServingOptions
	load    experiments.ServingLoadOptions
	l       *ledger
	eng     *sim.Engine
	fs      *dfs.FS
	coord   *migration.Coordinator
	binder  *migration.PolicyBinder
	pol     *timedPolicy
	flows   *flowCounter
	cache   *cache.Cache
	tenants []workload.TenantClass

	hot        []int
	epochs     int
	latHists   []*trace.Hist
	issued     []int
	served     []int
	memReads   []int
	within     []int
	latencies  []int64 // traced run only: every served read's simulated latency
	peakQueued int
}

const servingJobBase = migration.JobID(1 << 20)

func setupServing(opt experiments.ServingOptions, l *ledger) (*servingRun, error) {
	if opt.Shards > 1 {
		return nil, fmt.Errorf("serving %s: the benchmark driver runs the sequential engine only", opt.Scenario)
	}
	if opt.Spec.Files == 0 {
		opt.Spec = workload.DefaultServingSpec()
	}
	load := opt.Load
	if load.CacheBudget == 0 {
		load = experiments.DefaultServingLoadOptions()
	}
	r := &servingRun{opt: opt, load: load, l: l}

	var stream *workload.ServingStream
	l.span(spanGen, func() { stream = workload.GenerateServing(opt.Spec, opt.Seed) })

	// Environment, as experiments.NewEnv builds it for a traced DYRS run.
	workers := opt.Workers
	if workers <= 0 {
		workers = 7
	}
	eng := sim.NewEngine(opt.Seed)
	r.eng = eng
	tr := trace.New(eng)
	tr.SetSampling(0, uint64(opt.Seed))
	if l != nil {
		// trace.New installed the tracer as the flow sink; chain in front
		// of it so the run's own trace stays unchanged.
		r.flows = &flowCounter{next: tr}
		eng.SetFlowSink(r.flows)
	}
	cl := cluster.New(eng, workers, func(int) cluster.NodeConfig { return cluster.DefaultNodeConfig() })
	if opt.Racks > 1 {
		cl.ConfigureRacks(opt.Racks, 0)
	}
	rackOf := make([]int, workers)
	for i := range rackOf {
		rackOf[i] = cl.Rack(cluster.NodeID(i))
	}
	tr.SetTopology(rackOf)
	fsCfg := dfs.DefaultConfig()
	if fsCfg.Replication > workers {
		fsCfg.Replication = workers
	}
	r.fs = dfs.New(cl, fsCfg)
	pol, tp := wrapPolicy(policy.NewDYRS(), l)
	r.pol = tp
	r.binder = migration.NewPolicyBinder(pol)
	r.coord = migration.NewCoordinator(r.fs, migration.DefaultConfig(), r.binder)
	fw := compute.New(r.fs, r.coord)
	r.coord.SetScheduler(fw)

	// Population, cache and schedule, as experiments.RunServingLoad sets
	// them up.
	spec := stream.Spec
	r.tenants = spec.Tenants
	if len(r.tenants) == 0 {
		r.tenants = workload.DefaultTenants()
	}
	blockSize := r.fs.Config().BlockSize
	fileBlocks := make([][]dfs.BlockID, spec.Files)
	for i := 0; i < spec.Files; i++ {
		name := spec.FileName(i)
		l.begin(spanCreate)
		_, err := r.fs.CreateFile(name, sim.Bytes(spec.BlocksPerFile)*blockSize)
		l.end()
		if err != nil {
			return nil, err
		}
		f, err := r.fs.File(name)
		if err != nil {
			return nil, err
		}
		fileBlocks[i] = f.Blocks
	}
	ch, err := cache.New(r.fs, load.CacheBudget, cache.LRU)
	if err != nil {
		return nil, err
	}
	r.cache = ch

	r.hot = stream.HotFiles(load.PrefetchFrac)
	hotSet := make([]bool, spec.Files)
	hotNames := make([]string, len(r.hot))
	for i, f := range r.hot {
		hotSet[f] = true
		hotNames[i] = spec.FileName(f)
	}
	currentJob := migration.JobID(0)
	r.epochs = load.Epochs
	if r.epochs <= 0 {
		r.epochs = 1
	}
	coord := r.coord
	if len(r.hot) > 0 {
		for e := 0; e < r.epochs; e++ {
			e := e
			eng.At(sim.Time(spec.Horizon/time.Duration(r.epochs)*time.Duration(e)), func() {
				job := servingJobBase + migration.JobID(e)
				l.begin(spanMigrate)
				err := coord.Migrate(job, hotNames, false)
				l.end()
				if err == nil {
					currentJob = job
				}
				if e > 0 {
					l.span(spanEvict, func() { coord.Evict(servingJobBase + migration.JobID(e-1)) })
				}
			})
		}
	}

	n := len(r.tenants)
	r.latHists = make([]*trace.Hist, n)
	for i, tc := range r.tenants {
		r.latHists[i] = tr.Hist("serving.lat_ns." + tc.Name)
	}
	r.issued, r.served = make([]int, n), make([]int, n)
	r.memReads, r.within = make([]int, n), make([]int, n)
	fs := r.fs
	for i, req := range stream.Requests {
		req := req
		at := cluster.NodeID((i + req.Tenant) % workers)
		id := fileBlocks[req.File][req.Block]
		tenant := req.Tenant
		target := r.tenants[tenant].LatencyTarget
		// The open-loop generator is never late in virtual time: each
		// request is issued exactly at its due time, so a read's latency
		// (measured from ReadBlock) is also its latency from due time.
		eng.At(sim.Time(req.At), func() {
			r.issued[tenant]++
			if l != nil {
				if p := eng.Pending(); p > r.peakQueued {
					r.peakQueued = p
				}
			}
			if currentJob != 0 && hotSet[req.File] {
				l.begin(spanNoteRead)
				coord.NoteRead(currentJob, id)
				l.end()
			}
			l.begin(spanRead)
			// A synchronous error (no live replica) leaves the request
			// unserved, as in RunServingLoad.
			_ = fs.ReadBlock(at, id, func(res dfs.ReadResult) {
				l.begin(spanReadDone)
				r.readDone(tenant, target, res)
				l.end()
			})
			l.end()
		})
	}
	return r, nil
}

func (r *servingRun) readDone(tenant int, target time.Duration, res dfs.ReadResult) {
	if res.Failed {
		return
	}
	r.served[tenant]++
	if res.Source.FromMemory() {
		r.memReads[tenant]++
	}
	lat := time.Duration(res.Duration())
	r.latHists[tenant].Observe(int64(lat))
	if r.l != nil {
		r.latencies = append(r.latencies, int64(lat))
	}
	if lat <= target {
		r.within[tenant]++
	}
}

// run simulates the horizon plus drain, scores the policy row exactly as
// RunServingLoad does, flushes the cache, shuts the framework down and
// checks the end-of-run invariants.
func (r *servingRun) run() (*experiments.ServingPolicyRow, error) {
	spec, eng, coord, l := r.opt.Spec, r.eng, r.coord, r.l
	l.span(spanRun, func() { eng.RunUntil(sim.Time(spec.Horizon)) })
	if len(r.hot) > 0 {
		l.span(spanEvict, func() { coord.Evict(servingJobBase + migration.JobID(r.epochs-1)) })
	}
	l.span(spanRun, func() { eng.RunFor(sim.Duration(r.load.Drain)) })
	coord.ScavengeAll()
	l.span(spanRun, func() { eng.RunFor(sim.Duration(5 * time.Second)) })

	ch := r.cache
	row := &experiments.ServingPolicyRow{
		Policy:      "dyrs",
		CacheHits:   ch.Hits,
		CacheMisses: ch.Misses,
		CacheRate:   ch.HitRate(),
	}
	for i, tc := range r.tenants {
		ts := experiments.TenantScore{
			Tenant:   tc.Name,
			Issued:   r.issued[i],
			Served:   r.served[i],
			MemReads: r.memReads[i],
			TargetMs: float64(tc.LatencyTarget) / float64(time.Millisecond),
			P99Ms:    r.latHists[i].Quantile(0.99) / float64(time.Millisecond),
		}
		if ts.Served > 0 {
			ts.HitRate = float64(ts.MemReads) / float64(ts.Served)
			ts.WithinTarget = float64(r.within[i]) / float64(ts.Served)
		}
		row.Issued += ts.Issued
		row.Served += ts.Served
		row.MemReads += ts.MemReads
		row.Tenants = append(row.Tenants, ts)
	}
	if row.Served > 0 {
		row.HitRate = float64(row.MemReads) / float64(row.Served)
	}
	st := coord.Stats()
	row.Migrated = st.Migrated
	row.MemoryHits = st.MemoryHits
	row.MissedReads = st.MissedReads
	row.Dropped = st.Dropped
	if lead := trace.FromEngine(eng).Hist("migration.lead_ns"); lead.Count() > 0 {
		row.LeadP50Sec = lead.Quantile(0.5) / float64(time.Second)
		row.LeadP99Sec = lead.Quantile(0.99) / float64(time.Second)
	}
	ch.Flush()
	coord.Shutdown()

	if errs := r.fs.Fsck(); len(errs) > 0 {
		return row, fmt.Errorf("serving %s: fsck found %d issue(s), first: %v", r.opt.Scenario, len(errs), errs[0])
	}
	if n := r.fs.MemReplicaCount(); n != 0 {
		return row, fmt.Errorf("serving %s: %d blocks still buffered after flush", r.opt.Scenario, n)
	}
	if pend, queued, migr, inMem := coord.StateCounts(); pend != 0 || queued != 0 || migr != 0 || inMem != 0 {
		return row, fmt.Errorf("serving %s: non-zero final state counts %d/%d/%d/%d", r.opt.Scenario, pend, queued, migr, inMem)
	}
	return row, nil
}

// quantileMs is the exact q-quantile (nearest rank) of simulated
// latencies in nanoseconds, in milliseconds.
func quantileMs(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return float64(s[i]) / float64(time.Millisecond)
}

// servingWorkload is the `serving` workload: the Serving1k preset under
// DYRS, with the coordinated cache starting empty.
func servingWorkload(seed int64, l *ledger) (func() (*passResult, error), error) {
	r, err := setupServing(experiments.Serving1kOptions(seed), l)
	if err != nil {
		return nil, err
	}
	return func() (*passResult, error) {
		row, err := r.run()
		if err != nil {
			return nil, err
		}
		res := newPassResult(row)
		if row.Issued == 0 || row.Served == 0 {
			return nil, fmt.Errorf("serving: %d issued, %d served", row.Issued, row.Served)
		}
		within := 0
		for _, w := range r.within {
			within += w
		}
		res.outcome = float64(within) / float64(row.Issued)
		unserved := row.Issued - row.Served
		res.note("sim_qos_frac", res.outcome, "ratio")
		res.note("sim_mem_read_frac", float64(row.MemReads)/float64(row.Served), "ratio")
		res.note("unserved", float64(unserved), "count")
		for i, ts := range row.Tenants {
			share := float64(r.within[i]) / float64(ts.Issued)
			res.note(ts.Tenant+".within_target", share, "ratio")
			res.note(ts.Tenant+".p99_ms", ts.P99Ms, "ms")
			res.layer("serving."+ts.Tenant+".within_target", share)
			res.layer("serving."+ts.Tenant+".p99_ms", ts.P99Ms)
		}
		res.layer("sim.engine.events", float64(r.eng.EventsFired()))
		res.layer("sim.engine.peak_queue", float64(r.peakQueued))
		res.layer("dfs.read_p50_ms", quantileMs(r.latencies, 0.50))
		res.layer("dfs.read_p99_ms", quantileMs(r.latencies, 0.99))
		res.layer("dfs.read_unserved", float64(unserved))
		res.layer("cache.hits", float64(row.CacheHits))
		res.layer("cache.misses", float64(row.CacheMisses))
		res.layer("cache.hit_rate", row.CacheRate)
		res.migrationLayers(r.coord, r.binder)
		res.policyLayers(r.pol)
		res.flowLayers(r.flows)
		return res, nil
	}, nil
}
