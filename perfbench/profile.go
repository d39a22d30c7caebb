package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
)

// profileGroups maps the package-path prefixes of the simulator's layers
// to the cpu.* metric each one's self CPU is summed into.
var profileGroups = []struct{ prefix, group string }{
	{"dyrs/internal/sim.", "sim"},
	{"dyrs/internal/migration.", "migration"},
	{"dyrs/internal/dfs.", "dfs"},
	{"dyrs/internal/policy.", "policy"},
	{"dyrs/internal/cache.", "cache"},
	{"dyrs/internal/compute.", "compute"},
	{"dyrs/internal/trace.", "trace"},
	{"runtime.", "runtime"},
	{"runtime/", "runtime"},
	{"internal/runtime/", "runtime"},
}

// profiler records the CPU profile of selected passes, one file per
// pass, and attributes them together at the end.
type profiler struct {
	dir, prefix string
	paths       []string
	f           *os.File
}

func newProfiler(dir, workload string, seed int64) *profiler {
	return &profiler{dir: dir, prefix: fmt.Sprintf("perfbench-%s-%d", workload, seed)}
}

// start begins recording the next pass's profile.
func (p *profiler) start() error {
	path := filepath.Join(p.dir, fmt.Sprintf("%s-%d.pprof", p.prefix, len(p.paths)))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p.paths = append(p.paths, path)
	p.f = f
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("cpu profile: %w", err)
	}
	return nil
}

// stop ends the current pass's profile.
func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	return nil
}

// shares attributes the self ("flat") CPU samples of every recorded
// profile to the simulator's layers with the toolchain's own `go tool
// pprof`, which merges the files, and removes them. It returns each
// group's share of all samples; every group is present.
func (p *profiler) shares() (map[string]float64, error) {
	defer func() {
		for _, path := range p.paths {
			os.Remove(path)
		}
	}()
	args := append([]string{"tool", "pprof", "-top", "-unit=ms", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0"}, p.paths...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	text, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return attribute(text)
}

// attribute sums the flat column of `pprof -top -unit=ms` output by
// profileGroups and normalises by the total.
func attribute(top []byte) (map[string]float64, error) {
	shares := map[string]float64{}
	for _, g := range profileGroups {
		shares[g.group] = 0
	}
	total := 0.0
	inTable := false
	sc := bufio.NewScanner(bytes.NewReader(top))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "flat" && fields[1] == "flat%" {
			inTable = true
			continue
		}
		if !inTable || len(fields) < 6 {
			continue
		}
		flat, err := strconv.ParseFloat(strings.TrimSuffix(fields[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof output: %q: %v", sc.Text(), err)
		}
		total += flat
		fn := fields[5]
		for _, g := range profileGroups {
			if strings.HasPrefix(fn, g.prefix) {
				shares[g.group] += flat
				break
			}
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof output: no samples")
	}
	for g := range shares {
		shares[g] /= total
	}
	return shares, nil
}
