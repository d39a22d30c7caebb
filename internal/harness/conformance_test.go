package harness

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"

	"dyrs/internal/experiments"
	"dyrs/internal/migration"
	"dyrs/internal/sim"
)

// The conformance suites pin every whole-simulation observable of the
// DYRS configuration — canonical trace hash, migration stats, tracer
// counters, completion set, end time and requests served — to a
// committed golden digest, testdata/conformance_golden.json: 60
// Generate seeds and 12 GenerateServing seeds, rotating the engine shard
// count through {1, 2, 4} so the digest holds sequential and sharded.
//
// The file was produced before the frozen reference paths left
// production code: at that commit the extracted DYRS policy, the frozen
// pre-extraction binder and the reference-mode fair-share resources all
// matched every entry. The live references now sit one layer down, in
// internal/migration (TestPolicyBinderMatchesReference) and internal/sim
// (the lockstep container check in the resource differential and fuzz
// tests).
//
// Regenerate with
//
//	go test ./internal/harness -run Conformance -update-golden
//
// only together with a CHANGES.md entry naming the observable that moved
// and why (see TESTING.md).
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/conformance_golden.json from the current code")

const goldenPath = "testdata/conformance_golden.json"

const (
	conformanceSeeds        = 60
	conformanceServingSeeds = 12
)

// goldenEntry is one scenario's digest.
type goldenEntry struct {
	Serving        bool             `json:"serving"`
	Seed           int64            `json:"seed"`
	Shards         int              `json:"shards"`
	TraceHash      string           `json:"trace_hash"`
	Stats          migration.Stats  `json:"stats"`
	Counters       map[string]int64 `json:"counters"`
	Completed      []string         `json:"completed"`
	EndTime        sim.Time         `json:"end_time"`
	RequestsServed int              `json:"requests_served"`
}

type goldenKey struct {
	serving bool
	seed    int64
}

// conformanceScenario draws the scenario for one golden entry.
func conformanceScenario(serving bool, seed int64) Scenario {
	sc := Generate(seed)
	if serving {
		sc = GenerateServing(seed)
	}
	sc.Shards = shardRotationFor(seed)
	return sc
}

// shardRotationFor mirrors the fuzz sweep's shard schedule so the
// conformance matrix covers 1, 2 and 4 shards in equal measure.
func shardRotationFor(seed int64) int {
	return [...]int{1, 2, 4}[seed%3]
}

// digest extracts the golden observables of one run.
func digest(sc Scenario, res *RunResult) goldenEntry {
	counters := res.Counters
	if counters == nil {
		counters = map[string]int64{}
	}
	return goldenEntry{
		Serving:        sc.Serving,
		Seed:           sc.Seed,
		Shards:         sc.Shards,
		TraceHash:      res.TraceHash,
		Stats:          res.Stats,
		Counters:       counters,
		Completed:      res.Completed,
		EndTime:        res.EndTime,
		RequestsServed: res.RequestsServed,
	}
}

var (
	goldenOnce sync.Once
	golden     map[goldenKey]goldenEntry
	goldenErr  error
)

// loadGolden reads the committed digest, first rewriting it from the
// current code when -update-golden is set.
func loadGolden(t *testing.T) map[goldenKey]goldenEntry {
	t.Helper()
	goldenOnce.Do(func() {
		if *updateGolden {
			goldenErr = writeGolden()
			if goldenErr != nil {
				return
			}
		}
		raw, err := os.ReadFile(goldenPath)
		if err != nil {
			goldenErr = err
			return
		}
		var entries []goldenEntry
		if err := json.Unmarshal(raw, &entries); err != nil {
			goldenErr = err
			return
		}
		golden = make(map[goldenKey]goldenEntry, len(entries))
		for _, e := range entries {
			golden[goldenKey{e.Serving, e.Seed}] = e
		}
	})
	if goldenErr != nil {
		t.Fatalf("golden digest: %v", goldenErr)
	}
	return golden
}

// writeGolden runs every conformance scenario under the DYRS
// configuration and rewrites the digest file.
func writeGolden() error {
	var entries []goldenEntry
	add := func(serving bool, n int) {
		for seed := int64(1); seed <= int64(n); seed++ {
			sc := conformanceScenario(serving, seed)
			entries = append(entries, digest(sc, RunScenario(sc, experiments.DYRS)))
		}
	}
	add(false, conformanceSeeds)
	add(true, conformanceServingSeeds)
	raw, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(raw, '\n'), 0o644)
}

// checkGolden runs one scenario with the given binder name and compares
// its digest to the committed entry.
func checkGolden(t *testing.T, serving bool, seed int64, binder string) {
	t.Helper()
	want, ok := loadGolden(t)[goldenKey{serving, seed}]
	if !ok {
		t.Fatalf("no golden entry for serving=%v seed=%d", serving, seed)
	}
	sc := conformanceScenario(serving, seed)
	sc.Policy = binder
	got := digest(sc, RunScenario(sc, experiments.DYRS))
	diffDigest(t, got, want)
}

// runGoldenSuite checks seeds 1..n of one envelope against the digest.
func runGoldenSuite(t *testing.T, serving bool, n int, binder string) {
	if testing.Short() {
		t.Skip("golden conformance suite is not short")
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d/shards=%d", seed, shardRotationFor(seed)), func(t *testing.T) {
			t.Parallel()
			checkGolden(t, serving, seed, binder)
		})
	}
}

// The four suites below share the one digest. They cover the two ways
// production code builds the DYRS binder — by name through policy.New
// (Options.MigBinder, the dyrs-fuzz -policy path) and as the
// experiment's built-in binder (no override) — and keep the names the
// live differential suites had, so their test IDs stay stable.

// TestDYRSPolicyConformance pins DYRS bound by name through policy.New
// to the golden digest over the Generate envelope.
func TestDYRSPolicyConformance(t *testing.T) {
	runGoldenSuite(t, false, conformanceSeeds, "dyrs")
}

// TestDYRSPolicyConformanceServing is the serving-envelope half: the
// open-loop request stream, epoch prefetch cycle and coordinated cache.
func TestDYRSPolicyConformanceServing(t *testing.T) {
	runGoldenSuite(t, true, conformanceServingSeeds, "dyrs")
}

// TestResourceModelConformance pins the experiment's built-in DYRS
// binder to the golden digest over the Generate envelope — the digest
// the reference-mode fair-share resources also produced.
func TestResourceModelConformance(t *testing.T) {
	runGoldenSuite(t, false, conformanceSeeds, "")
}

// TestResourceModelConformanceServing is the serving-envelope half: the
// dense same-instant flow churn on hot replica holders' NICs is the
// fair-share core's worst case.
func TestResourceModelConformanceServing(t *testing.T) {
	runGoldenSuite(t, true, conformanceServingSeeds, "")
}

// diffDigest reports every observable where a run departs from its
// golden entry.
func diffDigest(t *testing.T, got, want goldenEntry) {
	t.Helper()
	if got.TraceHash != want.TraceHash {
		t.Errorf("trace hash: got %.12s…, golden %.12s…", got.TraceHash, want.TraceHash)
	}
	if got.Stats != want.Stats {
		t.Errorf("stats: got %+v, golden %+v", got.Stats, want.Stats)
	}
	if !reflect.DeepEqual(got.Counters, want.Counters) {
		for k, v := range got.Counters {
			if want.Counters[k] != v {
				t.Errorf("counter %s: got %d, golden %d", k, v, want.Counters[k])
			}
		}
		for k, v := range want.Counters {
			if _, ok := got.Counters[k]; !ok {
				t.Errorf("counter %s: only in golden (%d)", k, v)
			}
		}
	}
	if !reflect.DeepEqual(got.Completed, want.Completed) {
		t.Errorf("completed: got %v, golden %v", got.Completed, want.Completed)
	}
	if got.EndTime != want.EndTime {
		t.Errorf("end time: got %v, golden %v", got.EndTime, want.EndTime)
	}
	if got.RequestsServed != want.RequestsServed {
		t.Errorf("requests served: got %d, golden %d", got.RequestsServed, want.RequestsServed)
	}
}
