package minidb

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dbsim"
	"repro/internal/workload"
)

// measurementBits renders every field of a measurement as raw float64 bits.
func measurementBits(m dbsim.Measurement) string {
	var b strings.Builder
	for _, v := range []float64{m.TPS, m.LatencyP99Ms, m.CPUUtilPct, m.IOBps, m.IOPS, m.MemoryBytes, m.HitRatio} {
		fmt.Fprintf(&b, "%016x ", math.Float64bits(v))
	}
	b.WriteString("|")
	for _, v := range m.Internal {
		fmt.Fprintf(&b, " %016x", math.Float64bits(v))
	}
	return b.String()
}

// TestDeterministicMeasurementsPinned fixes deterministic measurements to
// literals: the default RealEngineSpace() configuration and two
// Latin-hypercube points (core.LHSInit(2, dim, 1)) at seed 1, for the
// benchmark's two sweep shapes. golden_test.go only compares a session with
// itself, so an engine change that moves behaviour consistently passes it;
// this test fails instead. The literals were generated on commit 0e13483 —
// a PR that means to change engine behaviour regenerates them from the
// failure output and says so.
func TestDeterministicMeasurementsPinned(t *testing.T) {
	space := realSpace()
	design := [][]float64{space.Defaults()}
	for _, u := range core.LHSInit(2, space.Dim(), 1) {
		design = append(design, space.Denormalize(space.Quantize(u)))
	}
	for _, tc := range []struct {
		name string
		w    workload.Workload
		txn  bool
		dur  time.Duration // the benchmark sweeps' replay windows
		want [3]string
	}{
		{"sysbench10", workload.Sysbench(10), false, 250 * time.Millisecond, [3]string{
			"40ad47651fd0466b 3ff0e11dbca9691b 4055b979a4a7cd86 0000000000000000 409aefc36f3040c9 41f817a120000000 3fefc1683468263c | 3fefc1683468263c 0000000000000000 0000000000000000 0000000000000000 409aefc36f3040c9 0000000000000000 40ad47651fd0466b 3ff0e11dbca9691b 4055b979a4a7cd86",
			"40b099ad517b0c3d 3ff0681ecd4aa10e 4058f493ada1b0cd 0000000000000000 408be375183f5c3d 41bd3378ae000000 3fefc1378bc33749 | 3fefc1378bc33749 0000000000000000 0000000000000000 0000000000000000 408be375183f5c3d 0000000000000000 40b099ad517b0c3d 3ff0681ecd4aa10e 4058f493ada1b0cd",
			"40b2b26df4b2957b 3ff0666666666666 4059000000000000 0000000000000000 0000000000000000 41fa9188ad300000 3fefbe74404f2657 | 3fefbe74404f2657 0000000000000000 0000000000000000 0000000000000000 0000000000000000 0000000000000000 40b2b26df4b2957b 3ff0666666666666 4059000000000000",
		}},
		{"tpcc200-txn", workload.TPCC(200), true, 100 * time.Millisecond, [3]string{
			"40b16aa9a1bc6c20 3fcfced916872b02 4041571da8298658 40e64b1691950548 40c0c9093e1cf3ba 41f817a120000000 3fef64c181b51b75 | 3fef64c181b51b75 0000000000000000 0000000000000000 0000000000000000 40c0c9093e1cf3ba 40e64b1691950548 40b16aa9a1bc6c20 3fcfced916872b02 4041571da8298658",
			"40c7eb22e29de587 3fba9b7bf1e8e608 4058685797da914b 0000000000000000 40c7242264363478 41bd3378ae000000 3fef615d42ac4db4 | 3fef615d42ac4db4 0000000000000000 0000000000000000 0000000000000000 40c7242264363478 0000000000000000 40c7eb22e29de587 3fba9b7bf1e8e608 4058685797da914b",
			"40c91c2e5f97ff47 3fba29c779a6b50b 4058ef8b3a2a0ba2 4100120932f0a361 4040120932f0a361 41fa9188ad300000 3fef649dff373c77 | 3fef649dff373c77 0000000000000000 0000000000000000 0000000000000000 4040120932f0a361 4100120932f0a361 40c91c2e5f97ff47 3fba29c779a6b50b 4058ef8b3a2a0ba2",
		}},
	} {
		ev := NewEvaluator(t.TempDir(), space, dbsim.IOPS, tc.w, 1)
		ev.Deterministic = true
		ev.Rows = 2000
		ev.TxnMode = tc.txn
		ev.Duration = tc.dur
		for i, native := range design {
			if got := measurementBits(ev.Measure(native)); got != tc.want[i] {
				t.Errorf("%s point %d:\n got %s\nwant %s", tc.name, i, got, tc.want[i])
			}
		}
	}
}
