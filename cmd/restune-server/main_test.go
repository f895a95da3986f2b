package main

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/restune"
)

// TestPickWorkloadsAcceptsEveryListedName: the server resolves the same
// workload names as restune-tune, sysbench-100g included.
func TestPickWorkloadsAcceptsEveryListedName(t *testing.T) {
	names := restune.WorkloadNames()
	ws, err := pickWorkloads(strings.Join(names, ", "))
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != len(names) {
		t.Fatalf("%d workloads for %d names", len(ws), len(names))
	}
}

// TestSyntheticTargetPerWorkload: every session of one workload tunes towards
// the same unit-norm target, and different workloads towards different ones.
func TestSyntheticTargetPerWorkload(t *testing.T) {
	const seed, dim = 3, 5
	a := syntheticTarget(seed, "tpcc", dim)
	if b := syntheticTarget(seed, "tpcc", dim); !reflect.DeepEqual(a, b) {
		t.Fatalf("one workload, two targets: %v and %v", a, b)
	}
	norm := 0.0
	for _, x := range a {
		norm += x * x
	}
	if math.Abs(math.Sqrt(norm)-1) > 1e-12 {
		t.Fatalf("target norm %v, want 1", math.Sqrt(norm))
	}
	if c := syntheticTarget(seed, "twitter", dim); reflect.DeepEqual(a, c) {
		t.Fatalf("workloads tpcc and twitter share target %v", a)
	}
}
