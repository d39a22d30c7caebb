package experiments

import (
	"reflect"
	"testing"

	"dyrs/internal/workload"
)

// TestServingSmokeScorecard runs the CI preset once and checks the
// scorecard is structurally sound: every policy row scored against the
// same stream, tenants present, and the migrating policies actually
// migrated and recorded lead time.
func TestServingSmokeScorecard(t *testing.T) {
	rep, err := RunServing(ServingSmokeOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 {
		t.Fatal("empty stream")
	}
	wantPolicies := []string{"hdfs", "costaware", "dyrs", "ignem"}
	if len(rep.Rows) != len(wantPolicies) {
		t.Fatalf("rows = %d, want %d", len(rep.Rows), len(wantPolicies))
	}
	for i, row := range rep.Rows {
		if row.Policy != wantPolicies[i] {
			t.Errorf("row %d policy %q, want %q", i, row.Policy, wantPolicies[i])
		}
		if row.Issued != rep.Requests {
			t.Errorf("%s issued %d, want the full stream (%d)", row.Policy, row.Issued, rep.Requests)
		}
		if row.Served == 0 || row.HitRate <= 0 {
			t.Errorf("%s served=%d hitRate=%f", row.Policy, row.Served, row.HitRate)
		}
		if len(row.Tenants) != 3 {
			t.Errorf("%s has %d tenant scores", row.Policy, len(row.Tenants))
		}
		for _, ts := range row.Tenants {
			if ts.Served > 0 && ts.P99Ms <= 0 {
				t.Errorf("%s/%s: served %d but p99 %f", row.Policy, ts.Tenant, ts.Served, ts.P99Ms)
			}
		}
		if row.Policy == "hdfs" {
			if row.Migrated != 0 || row.LeadP99Sec != 0 {
				t.Errorf("hdfs row carries migration numbers: %+v", row)
			}
		} else {
			if row.Migrated == 0 {
				t.Errorf("%s migrated nothing", row.Policy)
			}
			if row.LeadP50Sec <= 0 {
				t.Errorf("%s recorded no lead time", row.Policy)
			}
		}
	}
	if rep.String() == "" {
		t.Error("empty rendering")
	}
}

// TestServingDeterminismAndShardInvariance: the serving experiment sits
// in the determinism gate, so two sequential runs must be deeply equal,
// and a run pinned to shard 0 of a 2-shard engine must match them too.
func TestServingDeterminismAndShardInvariance(t *testing.T) {
	opt := ServingSmokeOptions(7)
	a, err := RunServing(opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunServing(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("serving smoke is nondeterministic across identical runs")
	}
	opt.Shards = 2
	c, err := RunServing(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, c) {
		t.Error("serving smoke diverges on the sharded engine's solo fast path")
	}
}

// TestServingRowIsTheNamedConfiguration: each serving row runs exactly
// the configuration its name parses to. The "ignem" row must be Ignem
// under its own migration preset, as in Table I and Fig. 8, not the
// Ignem policy under DYRS's config.
func TestServingRowIsTheNamedConfiguration(t *testing.T) {
	opt := ServingSmokeOptions(3)
	opt.Policies = []string{"ignem"}
	rep, err := RunServing(opt)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(Ignem, Options{Workers: opt.Workers, Racks: opt.Racks, Seed: opt.Seed, Trace: true})
	defer env.Close()
	direct, err := RunServingLoad(env, workload.GenerateServing(opt.Spec, opt.Seed), DefaultServingLoadOptions())
	if err != nil {
		t.Fatal(err)
	}
	direct.Policy = "ignem"
	if !reflect.DeepEqual(rep.Rows[0], *direct) {
		t.Errorf("serving ignem row differs from NewEnv(Ignem) run:\n row    %+v\n direct %+v", rep.Rows[0], *direct)
	}
	if _, err := RunServing(ServingOptions{Policies: []string{"bogus"}}); err == nil {
		t.Error("unknown serving policy accepted")
	}
}
