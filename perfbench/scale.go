package main

import (
	"fmt"
	"time"

	"dyrs/internal/cluster"
	"dyrs/internal/dfs"
	"dyrs/internal/experiments"
	"dyrs/internal/gtrace"
	"dyrs/internal/migration"
	"dyrs/internal/policy"
	"dyrs/internal/sim"
)

// scaleRun is one set-up Scale preset, ready to run. Its set-up and run
// halves reproduce experiments.RunScale step for step, through the same
// public constructors, so that set-up and the simulated run can be timed
// apart and each layer call can be wrapped. equivalence_test.go holds
// the two to byte-identical rows.
type scaleRun struct {
	opt    experiments.ScaleOptions
	l      *ledger
	eng    *sim.Engine
	fs     *dfs.FS
	coord  *migration.Coordinator
	binder *migration.PolicyBinder
	pol    *timedPolicy
	flows  *flowCounter
	peak   int
}

// scaleMigrationConfig mirrors the unexported tunables RunScale uses:
// 10 s heartbeats, 5 s Algorithm 1 passes, no per-slave estimate series.
func scaleMigrationConfig() migration.Config {
	cfg := migration.DefaultConfig()
	cfg.Heartbeat = 10 * time.Second
	cfg.TargetUpdateInterval = 5 * time.Second
	cfg.DisableEstimateSeries = true
	return cfg
}

// setupScale builds the cluster, places the namespace, draws the
// workload and schedules it: everything before the first simulated
// event.
func setupScale(opt experiments.ScaleOptions, l *ledger) (*scaleRun, error) {
	if opt.Shards > 1 || opt.SampleEvery > 1 || opt.TraceOut != nil {
		return nil, fmt.Errorf("scale %s: the benchmark driver runs the plain sequential preset only", opt.Scenario)
	}
	if opt.Nodes <= 0 || opt.Files <= 0 || opt.BlocksPerFile <= 0 || opt.Jobs <= 0 {
		return nil, fmt.Errorf("scale %s: non-positive size parameter", opt.Scenario)
	}
	r := &scaleRun{opt: opt, l: l, eng: sim.NewEngine(opt.Seed)}
	eng := r.eng
	if l != nil {
		r.flows = &flowCounter{}
		eng.SetFlowSink(r.flows)
	}

	var tr *gtrace.Trace
	l.span(spanGen, func() {
		tr = gtrace.Generate(gtrace.Config{
			Servers:         opt.Nodes,
			Duration:        24 * time.Hour,
			BinWidth:        5 * time.Minute,
			Jobs:            opt.Jobs,
			MeanLeadSeconds: 8.8,
			Seed:            opt.Seed + 1,
			ActivityMedian:  0.008,
			ActivitySigma:   1.3,
		})
	})
	meanUtil := make([]float64, opt.Nodes)
	for i, series := range tr.Util {
		sum := 0.0
		for _, u := range series {
			sum += u
		}
		meanUtil[i] = sum / float64(len(series))
	}

	cl := cluster.New(eng, opt.Nodes, func(i int) cluster.NodeConfig {
		cfg := cluster.DefaultNodeConfig()
		scale := 1 - 2*meanUtil[i]
		if scale < 0.35 {
			scale = 0.35
		}
		cfg.DiskScale = scale
		return cfg
	})
	if opt.Racks > 1 {
		cl.ConfigureRacks(opt.Racks, 40*float64(sim.GB))
	}

	r.fs = dfs.New(cl, dfs.Config{BlockSize: opt.BlockSize, Replication: 3})
	fileNames := make([]string, opt.Files)
	for i := range fileNames {
		fileNames[i] = fmt.Sprintf("scale-%05d", i)
	}
	size := sim.Bytes(opt.BlocksPerFile) * opt.BlockSize
	for _, name := range fileNames {
		l.begin(spanCreate)
		_, err := r.fs.CreateFile(name, size)
		l.end()
		if err != nil {
			return nil, fmt.Errorf("scale %s: %w", opt.Scenario, err)
		}
	}

	pol, tp := wrapPolicy(policy.NewDYRS(), l)
	r.pol = tp
	r.binder = migration.NewPolicyBinder(pol)
	r.coord = migration.NewCoordinator(r.fs, scaleMigrationConfig(), r.binder)
	coord := r.coord

	span := float64(opt.Virtual)
	arrivalSpan := 0.75 * span
	sample := func() {
		if p := eng.Pending(); p > r.peak {
			r.peak = p
		}
	}
	for j := 0; j < opt.Jobs; j++ {
		job := migration.JobID(j + 1)
		tj := tr.Jobs[j%len(tr.Jobs)]
		submit := sim.Time(arrivalSpan * float64(j) / float64(opt.Jobs))

		files := make([]string, opt.FilesPerJob)
		for k := range files {
			files[k] = fileNames[(j*opt.FilesPerJob+k)%opt.Files]
		}
		ids, err := r.fs.FileBlockIDs(files)
		if err != nil {
			return nil, fmt.Errorf("scale %s: %w", opt.Scenario, err)
		}

		lead := sim.Duration(2 * tj.LeadSeconds * float64(time.Second))
		readSpan := 5 * tj.ReadSeconds
		if readSpan < 120 {
			readSpan = 120
		}
		if readSpan > 1800 {
			readSpan = 1800
		}
		readStart := submit.Add(lead)
		eng.At(submit, func() {
			sample()
			l.begin(spanMigrate)
			coord.Migrate(job, files, true)
			l.end()
		})
		for k, id := range ids {
			id := id
			at := readStart.Add(sim.Duration(readSpan * float64(k) / float64(len(ids)) * float64(time.Second)))
			eng.At(at, func() {
				l.begin(spanNoteRead)
				coord.NoteRead(job, id)
				l.end()
			})
		}
		evictAt := readStart.Add(sim.Duration((readSpan + 60) * float64(time.Second)))
		eng.At(evictAt, func() {
			l.begin(spanEvict)
			coord.Evict(job)
			l.end()
		})
	}
	sample()
	return r, nil
}

// run executes the scheduled workload, then checks the end-of-run
// invariants RunScale checks: fsck clean, nothing buffered, zero final
// state counts.
func (r *scaleRun) run() (experiments.ScaleRow, error) {
	opt, eng, coord, l := r.opt, r.eng, r.coord, r.l
	row := experiments.ScaleRow{
		Scenario:     opt.Scenario,
		Nodes:        opt.Nodes,
		Racks:        opt.Racks,
		Blocks:       opt.Files * opt.BlocksPerFile,
		Jobs:         opt.Jobs,
		VirtualHours: time.Duration(opt.Virtual).Hours(),
	}
	l.span(spanRun, func() { eng.RunUntil(sim.Time(opt.Virtual)) })
	coord.ScavengeAll()
	coord.Shutdown()
	l.span(spanRun, eng.Run)

	st := coord.Stats()
	row.EventsFired = eng.EventsFired()
	row.PeakQueued = r.peak
	row.Requested = st.Requested
	row.Migrated = st.Migrated
	row.MemoryHits = st.MemoryHits
	row.MissedReads = st.MissedReads
	row.Dropped = st.Dropped
	row.Evicted = st.Evicted
	row.BytesMigratedTB = float64(st.BytesMigrated) / float64(sim.TB)
	row.BinderUpdates = r.binder.Updates
	row.BinderSkipped = r.binder.SkippedUpdates

	if errs := r.fs.Fsck(); len(errs) > 0 {
		return row, fmt.Errorf("scale %s: fsck found %d issue(s), first: %v", opt.Scenario, len(errs), errs[0])
	}
	if n := r.fs.MemReplicaCount(); n != 0 {
		return row, fmt.Errorf("scale %s: %d blocks still buffered after final eviction", opt.Scenario, n)
	}
	if pend, queued, migr, inMem := coord.StateCounts(); pend != 0 || queued != 0 || migr != 0 || inMem != 0 {
		return row, fmt.Errorf("scale %s: non-zero final state counts %d/%d/%d/%d", opt.Scenario, pend, queued, migr, inMem)
	}
	return row, nil
}

// scaleWorkload is the `scale` workload: the Scale1k preset.
func scaleWorkload(seed int64, l *ledger) (func() (*passResult, error), error) {
	r, err := setupScale(experiments.Scale1kOptions(seed), l)
	if err != nil {
		return nil, err
	}
	return func() (*passResult, error) {
		row, err := r.run()
		if err != nil {
			return nil, err
		}
		res := newPassResult(row)
		reads := row.MemoryHits + row.MissedReads
		if reads == 0 {
			return nil, fmt.Errorf("scale: no reads of requested blocks")
		}
		res.outcome = float64(row.MemoryHits) / float64(reads)
		res.note("sim_mem_read_frac", res.outcome, "ratio")
		res.note("events", float64(row.EventsFired), "count")
		res.layer("sim.engine.events", float64(row.EventsFired))
		res.layer("sim.engine.peak_queue", float64(row.PeakQueued))
		res.migrationLayers(r.coord, r.binder)
		res.policyLayers(r.pol)
		res.flowLayers(r.flows)
		return res, nil
	}, nil
}
