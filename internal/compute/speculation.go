package compute

import (
	"sort"
	"time"

	"dyrs/internal/cluster"
	"dyrs/internal/dfs"
	"dyrs/internal/sim"
)

// Speculative execution: Hadoop-style straggler mitigation. When a map
// task has been running much longer than the job's typical task, a
// duplicate is launched on a different node and the first copy to finish
// wins. It interacts with DYRS in an interesting way: migration removes
// the slow-disk stragglers that speculation exists to paper over, so
// DYRS runs launch far fewer speculative copies.

// SpeculationConfig tunes the mechanism.
type SpeculationConfig struct {
	// Enabled turns speculation on for map tasks.
	Enabled bool
	// SlowdownFactor is how many times the job's median completed-task
	// duration a task must exceed before a copy launches.
	SlowdownFactor float64
	// MinRuntime is the minimum elapsed time before a task can be
	// speculated, so short jobs don't thrash.
	MinRuntime time.Duration
	// CheckInterval is how often running tasks are scanned.
	CheckInterval time.Duration
}

// DefaultSpeculation mirrors Hadoop's defaults in spirit.
func DefaultSpeculation() SpeculationConfig {
	return SpeculationConfig{
		Enabled:        true,
		SlowdownFactor: 1.5,
		MinRuntime:     5 * time.Second,
		CheckInterval:  time.Second,
	}
}

// runningMap tracks one executing copy of a map task.
type runningMap struct {
	task       *task
	node       cluster.NodeID
	started    sim.Time
	speculated bool // a duplicate has been launched for this block
}

// EnableSpeculation turns on speculative execution for all subsequently
// running jobs. Call before submitting work.
func (fw *Framework) EnableSpeculation(cfg SpeculationConfig) {
	if !cfg.Enabled {
		return
	}
	if cfg.SlowdownFactor <= 1 {
		cfg.SlowdownFactor = 1.5
	}
	if cfg.CheckInterval <= 0 {
		cfg.CheckInterval = time.Second
	}
	fw.specCfg = cfg
	if fw.specTicker == nil {
		fw.specTicker = sim.NewTicker(fw.eng, cfg.CheckInterval, fw.speculate)
	}
}

// StopSpeculation halts the scanner (end of experiment).
func (fw *Framework) StopSpeculation() {
	if fw.specTicker != nil {
		fw.specTicker.Stop()
		fw.specTicker = nil
	}
}

// speculate scans running map tasks and duplicates stragglers. Jobs
// are scanned in ID order and each job's running copies in (start time,
// block ID) order, so the duplicates join the pending list — and win
// slots — in an order that never depends on map iteration.
func (fw *Framework) speculate() {
	now := fw.eng.Now()
	jobs := make([]*Job, 0, len(fw.jobs))
	for _, j := range fw.jobs {
		if j.State == JobRunning && len(j.Tasks) > 0 {
			jobs = append(jobs, j)
		}
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].ID < jobs[b].ID })
	var copies []*runningMap
	for _, j := range jobs {
		// Median completed map duration for this job.
		med := medianTaskSeconds(j.Tasks)
		if med <= 0 {
			continue
		}
		threshold := med * fw.specCfg.SlowdownFactor
		copies = copies[:0]
		for _, rm := range j.running {
			copies = append(copies, rm)
		}
		sort.Slice(copies, func(a, b int) bool {
			x, y := copies[a], copies[b]
			if x.started != y.started {
				return x.started < y.started
			}
			if x.task.block.ID != y.task.block.ID {
				return x.task.block.ID < y.task.block.ID
			}
			return x.node < y.node
		})
		for _, rm := range copies {
			if rm.speculated || j.doneBlocks[rm.task.block.ID] {
				continue
			}
			elapsed := now.Sub(rm.started)
			if elapsed < fw.specCfg.MinRuntime || elapsed.Seconds() < threshold {
				continue
			}
			rm.speculated = true
			j.SpeculativeLaunched++
			dup := &task{
				job:    j,
				block:  rm.task.block,
				isMap:  true,
				queued: now,
				avoid:  rm.node,
			}
			fw.pending = append(fw.pending, dup)
		}
		if j.SpeculativeLaunched > 0 {
			fw.trySchedule()
		}
	}
}

func medianTaskSeconds(tasks []TaskResult) float64 {
	if len(tasks) == 0 {
		return 0
	}
	ds := make([]float64, 0, len(tasks))
	for _, t := range tasks {
		ds = append(ds, t.Duration().Seconds())
	}
	// Insertion sort: task lists are small and this avoids pulling in a
	// dependency on sort for a hot path.
	for i := 1; i < len(ds); i++ {
		for k := i; k > 0 && ds[k] < ds[k-1]; k-- {
			ds[k], ds[k-1] = ds[k-1], ds[k]
		}
	}
	return ds[len(ds)/2]
}

// blockDone reports whether the job already has a winning copy for the
// block; used to discard losers of speculative races.
func (j *Job) blockDone(id dfs.BlockID) bool { return j.doneBlocks[id] }
