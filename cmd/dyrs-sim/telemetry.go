package main

import (
	"fmt"
	"io"
	"strings"

	"dyrs/internal/cluster"
	"dyrs/internal/dfs"
	"dyrs/internal/metrics"
	"dyrs/internal/sim"
)

// sampler records per-node time series for -telemetry and
// -telemetry-csv: the fraction of each sampling window a node's disk and
// NIC were busy, and its buffered migration bytes. It is the simulated
// analogue of the dstat/iostat traces the paper's figures were drawn
// from. The run's ticker calls sample once per simulated second.
type sampler struct {
	cl *cluster.Cluster
	fs *dfs.FS

	disk, nic, mem    [][]metrics.TimePoint // indexed by node ID
	lastDisk, lastNIC []sim.Duration
	last              sim.Time
}

func newSampler(cl *cluster.Cluster, fs *dfs.FS) *sampler {
	n := cl.Size()
	s := &sampler{
		cl:       cl,
		fs:       fs,
		disk:     make([][]metrics.TimePoint, n),
		nic:      make([][]metrics.TimePoint, n),
		mem:      make([][]metrics.TimePoint, n),
		lastDisk: make([]sim.Duration, n),
		lastNIC:  make([]sim.Duration, n),
		last:     cl.Engine().Now(),
	}
	for _, node := range cl.Nodes() {
		s.lastDisk[node.ID] = node.Disk.BusyTime()
		s.lastNIC[node.ID] = node.NIC.BusyTime()
	}
	return s
}

// sample appends one point to every series, covering the window since
// the previous sample.
func (s *sampler) sample() {
	now := s.cl.Engine().Now()
	window := now.Sub(s.last)
	if window <= 0 {
		return
	}
	t := now.Seconds()
	for _, node := range s.cl.Nodes() {
		i := int(node.ID)
		disk, nic := node.Disk.BusyTime(), node.NIC.BusyTime()
		s.disk[i] = append(s.disk[i], metrics.TimePoint{T: t, V: float64(disk-s.lastDisk[i]) / float64(window)})
		s.nic[i] = append(s.nic[i], metrics.TimePoint{T: t, V: float64(nic-s.lastNIC[i]) / float64(window)})
		s.mem[i] = append(s.mem[i], metrics.TimePoint{T: t, V: float64(s.fs.DataNode(node.ID).MemUsed())})
		s.lastDisk[i], s.lastNIC[i] = disk, nic
	}
	s.last = now
}

// renderDisk writes an ASCII strip chart of every node's disk
// utilization (one row per node, one column per sample, 0-9 scale).
func (s *sampler) renderDisk(w io.Writer, maxCols int) error {
	for _, node := range s.cl.Nodes() {
		var b strings.Builder
		for _, p := range metrics.Downsample(s.disk[node.ID], maxCols) {
			b.WriteByte(byte('0' + min(max(int(p.V*9.999), 0), 9)))
		}
		if _, err := fmt.Fprintf(w, "%-6s disk |%s| mean %4.0f%%\n",
			node.ID, b.String(), timeWeightedMean(s.disk[node.ID])*100); err != nil {
			return err
		}
	}
	return nil
}

// writeCSV emits every sample as series name, time seconds, value: each
// node's disk, NIC and memory series in node order.
func (s *sampler) writeCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "series,seconds,value"); err != nil {
		return err
	}
	kinds := [...]string{"disk", "nic", "mem"}
	for _, node := range s.cl.Nodes() {
		for k, series := range [...][][]metrics.TimePoint{s.disk, s.nic, s.mem} {
			for _, p := range series[node.ID] {
				if _, err := fmt.Fprintf(w, "%s:%s,%.3f,%.6f\n", kinds[k], node.ID, p.T, p.V); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// timeWeightedMean reports the time-weighted mean of a series, treating
// each sample as holding until the next. A series spanning no time
// reports its first value, and an empty one 0.
func timeWeightedMean(pts []metrics.TimePoint) float64 {
	var area, span float64
	for i := 0; i+1 < len(pts); i++ {
		dt := pts[i+1].T - pts[i].T
		area += pts[i].V * dt
		span += dt
	}
	switch {
	case span != 0:
		return area / span
	case len(pts) == 0:
		return 0
	}
	return pts[0].V
}
