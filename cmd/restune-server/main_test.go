package main

import (
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
