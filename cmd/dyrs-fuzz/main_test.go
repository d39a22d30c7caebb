package main

import (
	"strings"
	"testing"
)

func TestSweepSmall(t *testing.T) {
	var out, errb strings.Builder
	if err := run([]string{"-seeds", "3"}, &out, &errb); err != nil {
		t.Fatalf("sweep failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "ok: 3 seeds") {
		t.Errorf("missing summary in output:\n%s", out.String())
	}
}

func TestSingleSeedVerbose(t *testing.T) {
	var out, errb strings.Builder
	if err := run([]string{"-seed", "7"}, &out, &errb); err != nil {
		t.Fatalf("seed check failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{"scenario:", "job[0]", "dyrs run:", "passed all oracles"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestSingleSeedServing(t *testing.T) {
	var out, errb strings.Builder
	if err := run([]string{"-seed", "3", "-serving", "-policy", "costaware"}, &out, &errb); err != nil {
		t.Fatalf("serving seed check failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{"serving", "costaware run: served=", "passed all oracles"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestReproReplay(t *testing.T) {
	var out, errb strings.Builder
	if err := run([]string{"-seed", "7", "-repro", "jobs=0"}, &out, &errb); err != nil {
		t.Fatalf("repro replay failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "jobs=1") {
		t.Errorf("mask not applied:\n%s", out.String())
	}
}

func TestFlagValidation(t *testing.T) {
	var out, errb strings.Builder
	if err := run([]string{"-repro", "jobs=0"}, &out, &errb); err == nil {
		t.Error("-repro without -seed accepted")
	}
	if err := run([]string{"-badflag"}, &out, &errb); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-policy", "bogus"}, &out, &errb); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := run([]string{"-large", "-serving", "-seeds", "1"}, &out, &errb); err == nil {
		t.Error("-large with -serving accepted")
	}
}

// TestPolicyFlagRejectsNonMigrating pins the -policy validation: the
// retired reference binder name and the non-migrating configurations
// must be refused up front with an error listing the migrating ones,
// never panic.
func TestPolicyFlagRejectsNonMigrating(t *testing.T) {
	for _, name := range []string{"dyrs-ref", "hdfs", "HDFS-Inputs-in-RAM"} {
		t.Run(name, func(t *testing.T) {
			var out, errb strings.Builder
			var err error
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("-policy %s panicked: %v", name, r)
					}
				}()
				err = run([]string{"-policy", name, "-seed", "1"}, &out, &errb)
			}()
			if err == nil {
				t.Fatalf("-policy %s accepted", name)
			}
			want := "(valid: costaware, dyrs, ignem, naive)"
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not list the valid names %s", err, want)
			}
		})
	}
}
