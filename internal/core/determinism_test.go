package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bo"
	"repro/internal/gp"
	"repro/internal/meta"
	"repro/internal/obs"
)

// sessionTrace flattens the parts of a session result that every stochastic
// component feeds into: evaluated configurations, measured metrics, ensemble
// weights and phases, printed at full float precision.
func sessionTrace(res *Result) string {
	s := fmt.Sprintf("sla=%x/%x\n", res.SLA.LambdaTps, res.SLA.LambdaLat)
	for _, it := range res.Iterations {
		s += fmt.Sprintf("%d %s theta=%x res=%x tps=%x lat=%x w=%x\n",
			it.Index, it.Phase, it.Observation.Theta,
			it.Observation.Res, it.Observation.Tps, it.Observation.Lat, it.Weights)
	}
	return s
}

// TestSessionDeterministicAcrossGOMAXPROCS is the regression test for the
// deterministic fan-out contract end to end: a full ResTune session — GP
// hyperparameter search, parallel acquisition optimization, dynamic RGPE
// weights, dilution guard — must produce a bit-identical iteration trace at
// GOMAXPROCS=1 and at an oversubscribed worker count, and across repeated
// runs at the same setting. The non-LHS iterations all score probes through
// the batched acquisition path (both TriGP and the ensemble implement
// bo.BatchSurrogate, so the tuner loop always installs the CEIBatch hook —
// see TestSessionUsesBatchedAcquisition), which makes this test also pin the
// batch path's bit-identity under parallel block scoring. Every run carries
// a live (non-Nop) recorder, pinning the DESIGN.md §8 contract that
// telemetry is write-only: recording spans and metrics must not perturb a
// single tuning decision.
func TestSessionDeterministicAcrossGOMAXPROCS(t *testing.T) {
	run := func(procs int) string {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)

		// Base learners are built inside the run so their surrogate fits
		// (parallel hyperparameter search) are covered by the contract too.
		var base []*meta.BaseLearner
		for i, off := range []float64{0.2, 0.6} {
			h := sampleHistory(twitterEvaluator(int64(10+i)), 12, off)
			bl, err := meta.NewBaseLearnerSparse(fmt.Sprintf("task%d", i), "w", "A",
				[]float64{off, 1 - off}, h, 3, int64(20+i), gp.SparseConfig{})
			if err != nil {
				t.Fatal(err)
			}
			base = append(base, bl)
		}

		cfg := DefaultConfig(7)
		cfg.InitIters = 3
		cfg.Acq = fastAcq()
		cfg.Corpus = meta.NewCorpus(meta.TasksOf(base...), meta.CorpusOptions{})
		cfg.TargetMetaFeature = []float64{0.25, 0.75}
		cfg.DynamicSamples = 40
		cfg.DilutionGuard = true
		rec := obs.NewJSONL(io.Discard)
		cfg.Recorder = rec
		res, err := New(cfg).Run(twitterEvaluator(7), 9)
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.Close(); err != nil {
			t.Fatalf("telemetry sink: %v", err)
		}
		return sessionTrace(res)
	}

	serial := run(1)
	if again := run(1); again != serial {
		t.Fatalf("session not deterministic at GOMAXPROCS=1:\n%s\nvs\n%s", serial, again)
	}
	procs := runtime.NumCPU()
	if procs < 4 {
		procs = 4 // oversubscribe single-core hosts so goroutines interleave
	}
	if parallel := run(procs); parallel != serial {
		t.Fatalf("session trace differs between GOMAXPROCS=1 and %d:\n%s\nvs\n%s",
			procs, serial, parallel)
	}
}

// TestSessionUsesBatchedAcquisition pins the wiring assumption the
// determinism test above relies on: every surrogate the tuner loop builds
// (plain TriGP and the meta ensemble) satisfies bo.BatchSurrogate, and the
// batched CEI hook the loop installs scores a probe block bit-identically to
// the point-wise acquisition at GOMAXPROCS 1 and 8.
func TestSessionUsesBatchedAcquisition(t *testing.T) {
	ev := twitterEvaluator(3)
	h := sampleHistory(ev, 14, 0.1)
	tri := bo.NewTriGP(ev.Space().Dim(), 3)
	if err := tri.FitWithBudget(h, 0); err != nil {
		t.Fatal(err)
	}
	bl, err := meta.NewBaseLearnerSparse("b", "w", "A", []float64{0.5, 0.5}, h, ev.Space().Dim(), 4, gp.SparseConfig{})
	if err != nil {
		t.Fatal(err)
	}
	target := meta.NewBaseLearnerFromSurrogate("target", "t", "A", []float64{0.4, 0.6}, h, tri)
	ens := meta.NewEnsemble([]*meta.BaseLearner{bl}, target, []float64{0.3, 0.7})

	for name, s := range map[string]bo.Surrogate{"trigp": tri, "ensemble": ens} {
		bs, ok := s.(bo.BatchSurrogate)
		if !ok {
			t.Fatalf("%s surrogate does not batch: the tuner loop would fall back to point-wise scoring", name)
		}
		sla := bo.SLA{LambdaTps: 5000, LambdaLat: 10}
		cons := tri.RawConstraints(sla)
		best := tri.Standardizer(bo.Res).Apply(55)
		f := func(x []float64) float64 { return bo.CEI(s, x, best, cons) }
		fb := func(X [][]float64, out []float64) { bo.CEIBatch(bs, X, best, cons, out) }
		cfg := fastAcq()
		var want []float64
		for _, procs := range []int{1, 8} {
			old := runtime.GOMAXPROCS(procs)
			got := bo.OptimizeAcqBatch(f, fb, ev.Space().Dim(), cfg, nil, rand.New(rand.NewSource(11)))
			point := bo.OptimizeAcqBatch(f, nil, ev.Space().Dim(), cfg, nil, rand.New(rand.NewSource(11)))
			runtime.GOMAXPROCS(old)
			if fmt.Sprintf("%x", got) != fmt.Sprintf("%x", point) {
				t.Fatalf("%s at GOMAXPROCS=%d: batched %x != point-wise %x", name, procs, got, point)
			}
			if want == nil {
				want = got
			} else if fmt.Sprintf("%x", got) != fmt.Sprintf("%x", want) {
				t.Fatalf("%s: batched recommendation varies with GOMAXPROCS", name)
			}
		}
	}
}

// canonicalJSONL re-serializes a JSONL trace with wall-clock fields removed
// (event timestamps, span durations, and *_ms timing attributes): everything
// left — event kinds, order, names, thetas, weights, metric values — is part
// of the deterministic trace contract. Map re-marshaling sorts keys, so the
// canonical form is byte-comparable.
func canonicalJSONL(t *testing.T, raw []byte) string {
	t.Helper()
	var out strings.Builder
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		delete(m, "ts")
		delete(m, "dur_us")
		if attrs, ok := m["attrs"].(map[string]any); ok {
			for k := range attrs {
				if strings.HasSuffix(k, "_ms") || strings.HasSuffix(k, "_per_sec") {
					delete(attrs, k)
				}
			}
			if len(attrs) == 0 {
				delete(m, "attrs")
			}
		}
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(b)
		out.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestFleetSessionTracesBitIdenticalSoloVsConcurrent is the ISSUE's fleet
// determinism gate: each session's full JSONL telemetry stream (canonicalized
// modulo wall-clock fields) must be bit-identical whether the session runs
// solo on one goroutine or interleaved with N concurrent sessions on the
// fleet's worker pool — at GOMAXPROCS 1 and 8. The sessions share one
// SharedCorpus (per-session views), so this also pins that the single-flight
// fit cache is trace-invisible: which session pays a fit never shows up in
// any session's stream.
func TestFleetSessionTracesBitIdenticalSoloVsConcurrent(t *testing.T) {
	const nTasks, nSessions, iters = 5, 3, 6

	hists := make([]bo.History, nTasks)
	metas := make([][]float64, nTasks)
	for i := 0; i < nTasks; i++ {
		off := float64(i) / float64(nTasks)
		hists[i] = sampleHistory(twitterEvaluator(int64(100+i)), 8, off)
		metas[i] = []float64{off, 1 - off}
	}
	newTasks := func() []meta.CorpusTask {
		tasks := make([]meta.CorpusTask, nTasks)
		for i := 0; i < nTasks; i++ {
			i := i
			tasks[i] = meta.CorpusTask{
				ID:          fmt.Sprintf("task%02d", i),
				MetaFeature: metas[i],
				Fit: func() (*meta.BaseLearner, error) {
					return meta.NewBaseLearnerSparse(fmt.Sprintf("task%02d", i), "w", "A",
						metas[i], hists[i], 3, int64(200+i), gp.SparseConfig{})
				},
			}
		}
		return tasks
	}
	newSpec := func(sc *meta.SharedCorpus, s int, rec obs.Recorder) SessionSpec {
		cfg := DefaultConfig(int64(7 + s))
		cfg.InitIters = 3
		cfg.Acq = fastAcq()
		cfg.TargetMetaFeature = []float64{0.25, 0.75}
		cfg.DynamicSamples = 30
		cfg.DilutionGuard = true
		cfg.Corpus = sc.NewSession(meta.CorpusOptions{Recorder: rec})
		cfg.Recorder = rec
		return SessionSpec{
			Name:      fmt.Sprintf("s%d", s),
			Config:    cfg,
			Evaluator: twitterEvaluator(int64(7 + s)),
			Iters:     iters,
		}
	}

	soloTraces := func() []string {
		traces := make([]string, nSessions)
		for s := 0; s < nSessions; s++ {
			var buf bytes.Buffer
			rec := obs.NewJSONL(&buf)
			spec := newSpec(meta.NewSharedCorpus(newTasks(), nil), s, rec)
			if _, err := New(spec.Config).Run(spec.Evaluator, spec.Iters); err != nil {
				t.Fatal(err)
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
			traces[s] = canonicalJSONL(t, buf.Bytes())
		}
		return traces
	}

	fleetTraces := func(workers int) []string {
		sc := meta.NewSharedCorpus(newTasks(), nil)
		bufs := make([]*bytes.Buffer, nSessions)
		recs := make([]*obs.JSONL, nSessions)
		specs := make([]SessionSpec, nSessions)
		for s := 0; s < nSessions; s++ {
			bufs[s] = &bytes.Buffer{}
			recs[s] = obs.NewJSONL(bufs[s])
			specs[s] = newSpec(sc, s, recs[s])
		}
		for _, r := range NewFleet(FleetConfig{Workers: workers}).Run(specs) {
			if r.Err != nil {
				t.Fatalf("session %s: %v", r.Name, r.Err)
			}
		}
		traces := make([]string, nSessions)
		for s := 0; s < nSessions; s++ {
			if err := recs[s].Close(); err != nil {
				t.Fatal(err)
			}
			traces[s] = canonicalJSONL(t, bufs[s].Bytes())
		}
		if hr := sc.HitRate(); hr <= 0.5 {
			t.Fatalf("shared-fit hit rate = %.3f, want > 0.5", hr)
		}
		return traces
	}

	solo := soloTraces()
	for _, procs := range []int{1, 8} {
		old := runtime.GOMAXPROCS(procs)
		fleet := fleetTraces(nSessions)
		runtime.GOMAXPROCS(old)
		for s := 0; s < nSessions; s++ {
			if fleet[s] != solo[s] {
				t.Fatalf("GOMAXPROCS=%d: session %d trace differs solo vs %d-concurrent:\n--- solo\n%s\n--- fleet\n%s",
					procs, s, nSessions, solo[s], fleet[s])
			}
		}
	}
}

// sampleHistory evaluates a small deterministic grid shifted by off, giving
// each base learner a distinct but reproducible observation track.
func sampleHistory(ev *SimEvaluator, n int, off float64) bo.History {
	space := ev.Space()
	var h bo.History
	for i := 0; i < n; i++ {
		theta := make([]float64, space.Dim())
		for d := range theta {
			theta[d] = clampUnit(off + float64(i)/float64(n) + 0.07*float64(d))
		}
		theta = space.Quantize(theta)
		m := ev.Measure(space.Denormalize(theta))
		h = append(h, bo.Observation{Theta: theta, Res: m.Resource(ev.Resource()), Tps: m.TPS, Lat: m.LatencyP99Ms})
	}
	return h
}

func clampUnit(v float64) float64 {
	for v > 1 {
		v -= 1
	}
	if v < 0 {
		v = 0
	}
	return v
}
