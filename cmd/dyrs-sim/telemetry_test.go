package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"dyrs/internal/cluster"
	"dyrs/internal/compute"
	"dyrs/internal/dfs"
	"dyrs/internal/metrics"
	"dyrs/internal/migration"
	"dyrs/internal/sim"
	"dyrs/internal/workload"
)

// startSampler arms a one-second ticker driving a fresh sampler, as run
// does for -telemetry.
func startSampler(cl *cluster.Cluster, fs *dfs.FS) (*sampler, *sim.Ticker) {
	s := newSampler(cl, fs)
	return s, sim.NewTicker(cl.Engine(), sim.Duration(time.Second), s.sample)
}

func TestCollectorSamplesUtilization(t *testing.T) {
	eng := sim.NewEngine(1)
	cl := cluster.New(eng, 2, nil)
	cfg := dfs.DefaultConfig()
	cfg.Replication = 2
	fs := dfs.New(cl, cfg)
	col, tick := startSampler(cl, fs)

	// Saturate node 0's disk for 5s; node 1 stays idle.
	cl.Node(0).Disk.Start(5*130*sim.MB, nil)
	eng.RunUntil(sim.Time(10 * time.Second))
	tick.Stop()

	busy := timeWeightedMean(col.disk[0])
	idle := timeWeightedMean(col.disk[1])
	if busy < 0.4 || busy > 0.7 {
		t.Errorf("node0 mean util = %.2f, want ~0.5", busy)
	}
	if idle != 0 {
		t.Errorf("node1 util = %.2f, want 0", idle)
	}
	if len(col.disk[0]) != 10 {
		t.Errorf("samples = %d, want 10", len(col.disk[0]))
	}
	// First 5 samples ~1.0, rest ~0.
	pts := col.disk[0]
	if pts[0].V < 0.95 || pts[9].V > 0.05 {
		t.Errorf("window utilization wrong: first=%.2f last=%.2f", pts[0].V, pts[9].V)
	}
}

func TestCollectorMemorySeries(t *testing.T) {
	eng := sim.NewEngine(2)
	cl := cluster.New(eng, 2, nil)
	cfg := dfs.DefaultConfig()
	cfg.Replication = 2
	fs := dfs.New(cl, cfg)
	col, tick := startSampler(cl, fs)
	f, _ := fs.CreateFile("x", 256*sim.MB)
	eng.Schedule(2500*time.Millisecond, func() { fs.RegisterMem(f.Blocks[0], 0) })
	eng.RunUntil(sim.Time(5 * time.Second))
	tick.Stop()
	pts := col.mem[0]
	if pts[1].V != 0 {
		t.Errorf("early sample nonzero: %v", pts[1].V)
	}
	if pts[4].V != float64(256*sim.MB) {
		t.Errorf("late sample = %v, want 256MB", pts[4].V)
	}
}

func TestRenderDiskAndCSV(t *testing.T) {
	eng := sim.NewEngine(3)
	cl := cluster.New(eng, 2, nil)
	cfg := dfs.DefaultConfig()
	cfg.Replication = 2
	fs := dfs.New(cl, cfg)
	col, tick := startSampler(cl, fs)
	cl.Node(1).Disk.Start(3*130*sim.MB, nil)
	eng.RunUntil(sim.Time(6 * time.Second))
	tick.Stop()

	var chart bytes.Buffer
	if err := col.renderDisk(&chart, 20); err != nil {
		t.Fatal(err)
	}
	out := chart.String()
	if !strings.Contains(out, "node0") || !strings.Contains(out, "node1") {
		t.Errorf("chart missing nodes:\n%s", out)
	}

	var csv bytes.Buffer
	if err := col.writeCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	// header + (disk+nic+mem) * 2 nodes * 6 samples
	want := 1 + 3*2*6
	if len(lines) != want {
		t.Errorf("csv lines = %d, want %d", len(lines), want)
	}
	if lines[0] != "series,seconds,value" {
		t.Errorf("header = %q", lines[0])
	}
}

// Under a real migrating workload the collector must see all three
// signals: disks busy with reads and migration copies, memory filling
// with pinned blocks, and NICs carrying remote reads and shuffle.
func TestSeriesUnderMigrationTraffic(t *testing.T) {
	eng := sim.NewEngine(11)
	cl := cluster.New(eng, 4, nil)
	cfg := dfs.DefaultConfig()
	if cfg.Replication > 4 {
		cfg.Replication = 4
	}
	fs := dfs.New(cl, cfg)
	coord := migration.NewCoordinator(fs, migration.DefaultConfig(), migration.NewDYRSBinder())
	defer coord.Shutdown()
	fw := compute.New(fs, coord)
	coord.SetScheduler(fw)

	col, tick := startSampler(cl, fs)
	defer tick.Stop()

	if _, err := fs.CreateFile("input", 2*sim.GB); err != nil {
		t.Fatal(err)
	}
	spec := workload.SortSpec("input", 8, true)
	spec.ExtraLeadTime = 5 * time.Second
	j, err := fw.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(20 * time.Minute))
	if j.State != compute.JobDone {
		t.Fatal("job did not finish")
	}
	if coord.Stats().Migrated == 0 {
		t.Fatal("no migrations happened; test exercises nothing")
	}

	var memPeak, nicPeak, diskPeak float64
	for _, n := range cl.Nodes() {
		for _, p := range col.mem[n.ID] {
			if p.V > memPeak {
				memPeak = p.V
			}
		}
		for _, p := range col.nic[n.ID] {
			if p.V > nicPeak {
				nicPeak = p.V
			}
		}
		for _, p := range col.disk[n.ID] {
			if p.V > diskPeak {
				diskPeak = p.V
			}
		}
	}
	blockSize := float64(fs.Config().BlockSize)
	if memPeak < blockSize {
		t.Errorf("peak buffered memory %.0fB never reached one block (%.0fB); migrations invisible to telemetry", memPeak, blockSize)
	}
	if nicPeak <= 0 {
		t.Error("NIC series flat at zero despite remote reads and shuffle")
	}
	if diskPeak < 0.5 {
		t.Errorf("peak disk utilization %.2f; expected busy disks under sort+migration", diskPeak)
	}

	// Memory must drain after the job's implicit eviction.
	finalMem := 0.0
	for _, n := range cl.Nodes() {
		pts := col.mem[n.ID]
		if len(pts) > 0 {
			finalMem += pts[len(pts)-1].V
		}
	}
	if finalMem != 0 {
		t.Errorf("buffered memory %.0fB left after job completion + eviction", finalMem)
	}
}

// Golden CSV: a fully pinned-down one-node scenario must produce this
// exact document — the CSV contract consumed by plotting scripts.
func TestWriteCSVGolden(t *testing.T) {
	eng := sim.NewEngine(12)
	cl := cluster.New(eng, 1, nil)
	cfg := dfs.DefaultConfig()
	cfg.Replication = 1
	fs := dfs.New(cl, cfg)
	col, tick := startSampler(cl, fs)

	// A persistent unit load saturates the disk (util exactly 1.0 per
	// window); one 256 MB block registered in memory at t=0.
	cl.Node(0).Disk.StartLoad(1)
	f, err := fs.CreateFile("x", 256*sim.MB)
	if err != nil {
		t.Fatal(err)
	}
	fs.RegisterMem(f.Blocks[0], 0)

	eng.RunUntil(sim.Time(3 * time.Second))
	tick.Stop()

	var buf bytes.Buffer
	if err := col.writeCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "series,seconds,value\n" +
		"disk:node0,1.000,1.000000\n" +
		"disk:node0,2.000,1.000000\n" +
		"disk:node0,3.000,1.000000\n" +
		"nic:node0,1.000,0.000000\n" +
		"nic:node0,2.000,0.000000\n" +
		"nic:node0,3.000,0.000000\n" +
		"mem:node0,1.000,268435456.000000\n" +
		"mem:node0,2.000,268435456.000000\n" +
		"mem:node0,3.000,268435456.000000\n"
	if got := buf.String(); got != want {
		t.Errorf("CSV mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestTimeWeightedMean(t *testing.T) {
	if timeWeightedMean(nil) != 0 {
		t.Error("empty series mean not zero")
	}
	pts := []metrics.TimePoint{{T: 0, V: 10}, {T: 1, V: 20}, {T: 3, V: 30}}
	// Time-weighted mean: 10*1 + 20*2 over span 3 = 50/3.
	if m := timeWeightedMean(pts); math.Abs(m-50.0/3) > 1e-12 {
		t.Errorf("timeWeightedMean = %v", m)
	}
}
