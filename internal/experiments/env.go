// Package experiments assembles full simulated environments and runs the
// paper's evaluation: one entry point per table and figure (Figs. 1-11,
// Tables I-II), each returning typed rows plus a text rendering that
// mirrors the published presentation.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"dyrs/internal/cluster"
	"dyrs/internal/compute"
	"dyrs/internal/dfs"
	"dyrs/internal/migration"
	"dyrs/internal/policy"
	"dyrs/internal/sim"
	"dyrs/internal/trace"
)

// Policy names one evaluated configuration: the four file systems
// compared in §V-A, the naive balancer of Fig. 10, and the CostAware
// heuristic of the policy lab. Every name resolves through policyTable.
type Policy string

// The evaluated configurations.
const (
	HDFS      Policy = "HDFS"               // default file system, no migration
	RAM       Policy = "HDFS-Inputs-in-RAM" // inputs pinned in memory (upper bound)
	Ignem     Policy = "Ignem"              // random immediate binding
	DYRS      Policy = "DYRS"               // the paper's scheme
	Naive     Policy = "Naive"              // DYRS minus straggler avoidance
	CostAware Policy = "CostAware"          // marginal-cost heuristic (policy lab)
)

// AllPolicies lists the four headline configurations in table order.
var AllPolicies = []Policy{HDFS, RAM, Ignem, DYRS}

// policyRow is one configuration: the target-selection policy its
// coordinator runs (nil: no migration framework) and the migration
// config preset it applies on top of the base config (nil: none).
type policyRow struct {
	name   Policy
	policy func() policy.Policy
	preset func(*migration.Config)
}

// policyTable is the one place a configuration name gains meaning.
var policyTable = []policyRow{
	{name: HDFS},
	{name: RAM},
	{name: Ignem, policy: func() policy.Policy { return policy.NewIgnem() },
		// Ignem binds blindly at submission and never reconsiders — it
		// has no missed-read handling (§VI), copies at full IO priority,
		// and mlocks every bound block at once instead of serializing
		// migrations the way DYRS does (§III-B).
		preset: func(c *migration.Config) {
			c.CancelOnMissedRead = false
			c.IOWeight = 1.0
			c.MaxConcurrent = 6
		}},
	{name: DYRS, policy: func() policy.Policy { return policy.NewDYRS() }},
	{name: Naive, policy: func() policy.Policy { return policy.NewNaive() }},
	{name: CostAware, policy: func() policy.Policy { return policy.NewCostAware() }},
}

// row returns the policy's table row; an unlisted name behaves as a
// configuration without migration.
func (p Policy) row() policyRow {
	for _, r := range policyTable {
		if r.name == p {
			return r
		}
	}
	return policyRow{name: p}
}

// Migrates reports whether the policy runs a migration framework.
func (p Policy) Migrates() bool { return p.row().policy != nil }

// Policies lists every configuration in table order.
func Policies() []Policy {
	out := make([]Policy, len(policyTable))
	for i, r := range policyTable {
		out[i] = r.name
	}
	return out
}

// ParsePolicy resolves a configuration name, case-insensitively, so
// flag spellings such as "dyrs" and "HDFS-Inputs-in-RAM" both work.
func ParsePolicy(name string) (Policy, error) {
	for _, r := range policyTable {
		if strings.EqualFold(name, string(r.name)) {
			return r.name, nil
		}
	}
	return "", fmt.Errorf("unknown policy %q (valid: %v)", name, Policies())
}

// Options configures an experiment environment.
type Options struct {
	// Workers is the number of storage/compute nodes (the paper's
	// testbed has 7 workers plus a master).
	Workers int
	// Seed drives all randomness; identical seeds give identical runs.
	Seed int64
	// SlowNodes maps node index to a disk capacity scale (<1 = slower
	// hardware). Fixed heterogeneity, as opposed to interference.
	SlowNodes map[int]float64
	// NodeConfig optionally overrides the per-node hardware config
	// before SlowNodes scaling is applied.
	NodeConfig *cluster.NodeConfig
	// MigrationConfig optionally overrides migration framework tunables.
	MigrationConfig *migration.Config
	// Racks, when >1, partitions the cluster into racks with HDFS-style
	// rack-aware replica placement; CoreBandwidth is the cross-rack core
	// switch capacity in bytes/sec (0 = non-blocking).
	Racks         int
	CoreBandwidth float64
	// Trace attaches a trace.Tracer to the run so migrations, reads and
	// tasks record spans; retrieve it with Env.Tracer.
	Trace bool
	// SampleEvery, when >1 (and Trace is on), keeps 1-in-N root spans
	// and instants via the tracer's deterministic sampler; counters and
	// histograms stay exact. The sampled trace is byte-identical across
	// shard and worker counts.
	SampleEvery int
	// Shards, when >1, runs the environment on a sim.ShardedEngine with
	// that many logical shards. The whole model is pinned to shard 0, so
	// it executes on the sharded engine's solo fast path and every
	// output stays byte-identical to Shards<=1 — this is the cheap
	// differential lever dyrs-sim/dyrs-fuzz -shards pulls to prove the
	// sharded executor against the sequential one.
	Shards int
}

// DefaultOptions mirrors the paper's 7-worker testbed.
func DefaultOptions(seed int64) Options {
	return Options{Workers: 7, Seed: seed}
}

// Env is one fully wired simulated deployment: engine, cluster, DFS,
// optional migration framework, and the compute framework.
type Env struct {
	Policy Policy
	Eng    *sim.Engine
	Cl     *cluster.Cluster
	FS     *dfs.FS
	Coord  *migration.Coordinator // nil for HDFS and RAM
	FW     *compute.Framework

	doneCount  int
	waitTarget *compute.Job
	waitCount  int
}

// NewEnv builds an environment for the given policy.
func NewEnv(pol Policy, opt Options) *Env {
	if opt.Workers <= 0 {
		opt.Workers = 7
	}
	var eng *sim.Engine
	if opt.Shards > 1 {
		eng = sim.NewShardedEngine(opt.Seed, opt.Shards, time.Millisecond).Shard(0)
	} else {
		eng = sim.NewEngine(opt.Seed)
	}
	if opt.Trace {
		// Attach before any component constructs: they capture the run's
		// tracer once at construction time.
		tr := trace.New(eng)
		tr.SetSampling(opt.SampleEvery, uint64(opt.Seed))
	}
	cl := cluster.New(eng, opt.Workers, func(i int) cluster.NodeConfig {
		cfg := cluster.DefaultNodeConfig()
		if opt.NodeConfig != nil {
			cfg = *opt.NodeConfig
		}
		if s, ok := opt.SlowNodes[i]; ok {
			cfg.DiskScale = s
		}
		return cfg
	})
	if opt.Racks > 1 {
		cl.ConfigureRacks(opt.Racks, opt.CoreBandwidth)
	}
	if tr := trace.FromEngine(eng); tr.Enabled() {
		rackOf := make([]int, opt.Workers)
		for i := range rackOf {
			rackOf[i] = cl.Rack(cluster.NodeID(i))
		}
		tr.SetTopology(rackOf)
	}
	fsCfg := dfs.DefaultConfig()
	if fsCfg.Replication > opt.Workers {
		fsCfg.Replication = opt.Workers
	}
	fs := dfs.New(cl, fsCfg)

	var mgr migration.Manager = migration.None{}
	var coord *migration.Coordinator
	if row := pol.row(); row.policy != nil {
		mcfg := migration.DefaultConfig()
		if opt.MigrationConfig != nil {
			mcfg = *opt.MigrationConfig
		}
		if row.preset != nil {
			row.preset(&mcfg)
		}
		coord = migration.NewCoordinator(fs, mcfg, migration.NewPolicyBinder(row.policy()))
		mgr = coord
	}
	fw := compute.New(fs, mgr)
	if coord != nil {
		coord.SetScheduler(fw)
	}
	e := &Env{Policy: pol, Eng: eng, Cl: cl, FS: fs, Coord: coord, FW: fw}
	fw.OnJobDone(func(j *compute.Job) {
		e.doneCount++
		if (e.waitTarget != nil && j == e.waitTarget) ||
			(e.waitCount > 0 && e.doneCount >= e.waitCount) {
			eng.Stop()
		}
	})
	return e
}

// Tracer returns the run's tracer, or nil when Options.Trace was off.
// The nil result is safe to use: trace methods no-op on nil.
func (e *Env) Tracer() *trace.Tracer { return trace.FromEngine(e.Eng) }

// CreateInput creates a DFS file and, under the RAM policy, pins it in
// memory up front (the vmtouch step of §V-A).
func (e *Env) CreateInput(name string, size sim.Bytes) error {
	if _, err := e.FS.CreateFile(name, size); err != nil {
		return err
	}
	if e.Policy == RAM {
		if _, err := migration.PinFiles(e.FS, []string{name}); err != nil {
			return err
		}
	}
	return nil
}

// Prepare adapts a job spec to the environment's policy: migrating
// policies request migration at submission; HDFS and RAM do not.
func (e *Env) Prepare(spec compute.JobSpec) compute.JobSpec {
	spec.Migrate = e.Policy.Migrates()
	return spec
}

// WaitJob runs the simulation until the job completes or the horizon
// passes. It returns an error on timeout.
func (e *Env) WaitJob(j *compute.Job, horizon sim.Duration) error {
	if j.State == compute.JobDone {
		return nil
	}
	e.waitTarget = j
	defer func() { e.waitTarget = nil }()
	e.Eng.RunUntil(e.Eng.Now().Add(horizon))
	if j.State != compute.JobDone {
		return fmt.Errorf("experiments: job %q did not finish within %v", j.Spec.Name, horizon)
	}
	return nil
}

// WaitJobs runs the simulation until n jobs have completed in total or
// the horizon passes.
func (e *Env) WaitJobs(n int, horizon sim.Duration) error {
	if e.doneCount >= n {
		return nil
	}
	e.waitCount = n
	defer func() { e.waitCount = 0 }()
	e.Eng.RunUntil(e.Eng.Now().Add(horizon))
	if e.doneCount < n {
		return fmt.Errorf("experiments: only %d of %d jobs finished within %v", e.doneCount, n, horizon)
	}
	return nil
}

// Close shuts down background tickers so the environment can be dropped.
func (e *Env) Close() {
	if e.Coord != nil {
		e.Coord.Shutdown()
	}
}

// WarmupEstimates migrates (and then evicts) a scratch file so every
// slave's migration-time estimator reflects current cluster conditions
// before the measured workload starts. This mimics a long-running
// production deployment, where DYRS "uses past migrations to estimate how
// long future migrations will take" (§III-A2) — in the paper's testbed
// the estimators carry history from preceding runs.
func (e *Env) WarmupEstimates() error {
	if e.Coord == nil {
		return nil
	}
	const warmupJob migration.JobID = 1 << 30
	name := "__estimator_warmup__"
	size := sim.Bytes(3*e.Cl.Size()) * e.FS.Config().BlockSize
	if _, err := e.FS.CreateFile(name, size); err != nil {
		return err
	}
	if err := e.Coord.Migrate(warmupJob, []string{name}, false); err != nil {
		return err
	}
	e.Eng.RunFor(60 * time.Second)
	e.Coord.Evict(warmupJob)
	return nil
}

// SlowNodeInterference starts the paper's dd-style persistent
// interference on the given node and returns a stop function (§V-C).
// Two O_DIRECT dd readers issuing large sequential requests get generous
// scheduler quanta, so each carries more fair-share weight than a task
// read stream.
func (e *Env) SlowNodeInterference(node cluster.NodeID) func() {
	inf := e.Cl.Node(node).StartInterference(2, 2.5)
	return inf.Stop
}

// Hour is a convenient long horizon for WaitJob(s).
const Hour = time.Hour
