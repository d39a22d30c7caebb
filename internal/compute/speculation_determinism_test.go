package compute_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"dyrs/internal/compute"
	"dyrs/internal/experiments"
	"dyrs/internal/sim"
	"dyrs/internal/workload"
)

// TestSpeculationDeterministic runs one seeded DYRS scenario with
// speculation on — three concurrent sorts over two slow nodes, with a
// lead-time too short to migrate every input block, so the scanner sees
// several running jobs and many straggling copies at once — twenty
// times, and demands one outcome. The scanner used to range over
// the job and running-copy maps, so which stragglers it duplicated first,
// and hence where the copies ran, followed map order.
func TestSpeculationDeterministic(t *testing.T) {
	var launched, migrated int
	run := func() string {
		env := experiments.NewEnv(experiments.DYRS, experiments.Options{
			Workers:   7,
			Seed:      1,
			SlowNodes: map[int]float64{1: 0.2, 4: 0.3},
		})
		defer env.Close()
		env.FW.EnableSpeculation(compute.DefaultSpeculation())
		defer env.FW.StopSpeculation()
		for i := 0; i < 3; i++ {
			name := fmt.Sprintf("in%d", i)
			if err := env.CreateInput(name, 8*sim.GB); err != nil {
				t.Fatal(err)
			}
			spec := workload.SortSpec(name, 4, true)
			spec.Name = fmt.Sprintf("sort%d", i)
			spec.ExtraLeadTime = 10 * time.Second
			if _, err := env.FW.Submit(env.Prepare(spec)); err != nil {
				t.Fatal(err)
			}
		}
		if err := env.WaitJobs(3, 2*time.Hour); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		launched = 0
		for _, j := range env.FW.Results() {
			launched += j.SpeculativeLaunched
			fmt.Fprintf(&b, "%s map=%v dur=%v spec=%d tasks=%d\n",
				j.Spec.Name, j.MapPhase(), j.Duration(), j.SpeculativeLaunched, len(j.Tasks))
		}
		migrated = env.Coord.Stats().Migrated
		fmt.Fprintf(&b, "%+v end=%v", env.Coord.Stats(), env.Eng.Now())
		return b.String()
	}
	outcomes := map[string]int{}
	for i := 0; i < 20; i++ {
		outcomes[run()]++
	}
	if len(outcomes) != 1 {
		t.Fatalf("20 identical runs gave %d distinct outcomes", len(outcomes))
	}
	if launched == 0 || migrated == 0 {
		t.Fatalf("%d speculative copies, %d migrations: the scenario must exercise both the scanner and DYRS",
			launched, migrated)
	}
}
