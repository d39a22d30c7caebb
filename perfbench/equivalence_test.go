package main

import (
	"fmt"
	"reflect"
	"testing"

	"dyrs/internal/experiments"
)

// The benchmark's drivers re-assemble the scale, serving and sharded
// models from public constructors so set-up and run can be timed apart
// and layer calls wrapped. These tests hold each driver to the row the
// experiments package produces for the same options, with the timing
// wrappers off (nil ledger) and on: the benchmark measures the shipped
// model, and tracing does not perturb it. -short swaps the benchmark's
// presets for the CI-sized ones.

var equivalenceSeeds = []int64{42, 1042}

func tracedModes(t *testing.T, seed int64, fn func(t *testing.T, l *ledger)) {
	t.Run(fmt.Sprintf("seed%d/untraced", seed), func(t *testing.T) { fn(t, nil) })
	t.Run(fmt.Sprintf("seed%d/traced", seed), func(t *testing.T) { fn(t, &ledger{}) })
}

func TestScaleDriverReproducesRunScale(t *testing.T) {
	preset := experiments.Scale1kOptions
	if testing.Short() {
		preset = experiments.Scale100Options
	}
	for _, seed := range equivalenceSeeds {
		opt := preset(seed)
		want, err := experiments.RunScale(opt)
		if err != nil {
			t.Fatal(err)
		}
		tracedModes(t, seed, func(t *testing.T, l *ledger) {
			r, err := setupScale(opt, l)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

func TestServingDriverReproducesRunServing(t *testing.T) {
	preset := experiments.Serving1kOptions
	if testing.Short() {
		preset = experiments.ServingSmokeOptions
	}
	for _, seed := range equivalenceSeeds {
		opt := preset(seed)
		opt.Policies = []string{"dyrs"}
		rep, err := experiments.RunServing(opt)
		if err != nil {
			t.Fatal(err)
		}
		want := rep.Rows[0]
		tracedModes(t, seed, func(t *testing.T, l *ledger) {
			r, err := setupServing(opt, l)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*got, want) {
				t.Errorf("\n got %+v\nwant %+v", *got, want)
			}
		})
	}
}

func TestShardDriverReproducesRunScaleShard(t *testing.T) {
	preset := experiments.ScaleShard1kOptions
	if testing.Short() {
		preset = experiments.ScaleShardSmokeOptions
	}
	for _, seed := range equivalenceSeeds {
		opt := preset(seed)
		opt.Workers = shardWorkers()
		want, err := experiments.RunScaleShard(opt)
		if err != nil {
			t.Fatal(err)
		}
		tracedModes(t, seed, func(t *testing.T, l *ledger) {
			r, err := setupShard(opt, l)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

func TestPaperErrorIsZeroOnTheReference(t *testing.T) {
	ref := make([]float64, len(paperReference))
	for i, r := range paperReference {
		ref[i] = r.paper
	}
	if e := paperErrPP(ref); e != 0 {
		t.Fatalf("error of the reference against itself = %v", e)
	}
	ref[0] += 7
	if e, want := paperErrPP(ref), 7/float64(len(ref)); e != want {
		t.Fatalf("one number off by 7pp: error %v, want %v", e, want)
	}
}

func TestAttributeSumsFlatCPUByLayer(t *testing.T) {
	top := []byte(`File: perfbench
Type: cpu
Showing nodes accounting for 1000ms, 100% of 1000ms total
      flat  flat%   sum%        cum   cum%
     500ms 50.00% 50.00%      600ms 60.00%  dyrs/internal/sim.(*Engine).step
     200ms 20.00% 70.00%      200ms 20.00%  runtime.mallocgc
     100ms 10.00% 80.00%      100ms 10.00%  internal/runtime/maps.(*Map).getWithKey
     100ms 10.00% 90.00%      100ms 10.00%  dyrs/internal/migration.(*Coordinator).NoteRead (inline)
     100ms 10.00%   100%      900ms 90.00%  main.main
         0     0%   100%     1000ms   100%  runtime.main
`)
	got, err := attribute(top)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim": 0.5, "runtime": 0.3, "migration": 0.1,
		"dfs": 0, "policy": 0, "cache": 0, "compute": 0, "trace": 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}
