package minidb

import (
	"testing"
	"time"

	"repro/internal/bo"
	"repro/internal/core"
	"repro/internal/dbsim"
	"repro/internal/knobs"
	"repro/internal/workload"
)

// realSpace is the engine-relevant knob subset used for real-engine tests.
func realSpace() *knobs.Space {
	return knobs.RealEngineSpace()
}

func smallEvaluator(t *testing.T, kind dbsim.ResourceKind) *Evaluator {
	t.Helper()
	w := workload.Sysbench(10).WithRequestRate(800)
	ev := NewEvaluator(t.TempDir(), realSpace(), kind, w, 1)
	ev.Rows = 400
	ev.Duration = 120 * time.Millisecond
	ev.Workers = 4
	return ev
}

func TestEvaluatorMeasuresRealReplay(t *testing.T) {
	ev := smallEvaluator(t, dbsim.IOPS)
	native := ev.DefaultNative()
	m := ev.Measure(native)
	if m.TPS <= 0 {
		t.Fatalf("no throughput measured: %+v", m)
	}
	if m.LatencyP99Ms <= 0 {
		t.Fatalf("no latency measured: %+v", m)
	}
	if m.HitRatio <= 0 || m.HitRatio > 1 {
		t.Fatalf("hit ratio %v", m.HitRatio)
	}
	if len(m.Internal) == 0 {
		t.Fatal("internal metrics missing")
	}
	// The default policy fsyncs per commit: IO must be observed.
	if m.IOPS <= 0 {
		t.Fatalf("no IO measured: %+v", m)
	}
}

// TestEvaluatorKnobsMoveRealIO verifies the headline resource-oriented
// effect on the real engine: relaxing the commit policy cuts measured IO
// operations.
func TestEvaluatorKnobsMoveRealIO(t *testing.T) {
	ev := smallEvaluator(t, dbsim.IOPS)
	space := ev.Space()

	strict := ev.DefaultNative()
	strict[space.Index("innodb_flush_log_at_trx_commit")] = 1
	relaxed := ev.DefaultNative()
	relaxed[space.Index("innodb_flush_log_at_trx_commit")] = 0

	mStrict := ev.Measure(strict)
	mRelaxed := ev.Measure(relaxed)
	if mRelaxed.IOPS >= mStrict.IOPS {
		t.Fatalf("relaxed commit policy should cut IOPS: %.0f vs %.0f",
			mRelaxed.IOPS, mStrict.IOPS)
	}
}

// TestRealEngineTuningSession runs a short end-to-end ResTune session with
// every measurement coming from real replays against minidb.
func TestRealEngineTuningSession(t *testing.T) {
	if testing.Short() {
		t.Skip("real-engine session takes seconds")
	}
	ev := smallEvaluator(t, dbsim.IOPS)
	cfg := core.DefaultConfig(1)
	cfg.InitIters = 4
	cfg.SLATolerance = 0.30 // real measurements are noisy at tiny windows
	cfg.Acq = bo.OptimizerConfig{RandomCandidates: 32, LocalStarts: 2, LocalSteps: 4, StepScale: 0.15}
	res, err := core.New(cfg).Run(ev, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) != 9 {
		t.Fatalf("iterations: %d", len(res.Iterations))
	}
	best, ok := res.BestFeasible()
	if !ok {
		t.Fatal("no feasible configuration on the real engine")
	}
	if best.Res <= 0 {
		t.Fatal("nonsense best resource")
	}
	t.Logf("real engine: default %.0f IOPS -> best feasible %.0f IOPS (%.1f%%)",
		res.Iterations[0].Observation.Res, best.Res, res.ImprovementPct())
}

func TestEvaluatorTxnMode(t *testing.T) {
	w := workload.Sysbench(10).WithRequestRate(150) // 150 txns/s of 18 stmts
	ev := NewEvaluator(t.TempDir(), realSpace(), dbsim.IOPS, w, 2)
	ev.Rows = 300
	ev.Duration = 150 * time.Millisecond
	ev.Workers = 4
	ev.TxnMode = true
	m := ev.Measure(ev.DefaultNative())
	if m.TPS <= 0 {
		t.Fatalf("no transactional throughput: %+v", m)
	}
	// 18 statements per transaction: the transactional rate is far below
	// the single-statement rate at the same wall budget.
	if m.TPS > 2000 {
		t.Fatalf("TPS %f suspiciously high for 18-statement transactions", m.TPS)
	}
}
