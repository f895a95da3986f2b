package baselines

import (
	"testing"
)

func TestPenaltyBORuns(t *testing.T) {
	res, err := newMethod("Penalty-BO", 3, nil).Run(twitterEv(3), 25)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "Penalty-BO" {
		t.Fatal(res.Method)
	}
	if len(res.Iterations) != 26 {
		t.Fatalf("iterations %d", len(res.Iterations))
	}
	if res.Iterations[1].Phase != "lhs" || res.Iterations[12].Phase != "penalty-ei" {
		t.Fatalf("phases: %s %s", res.Iterations[1].Phase, res.Iterations[12].Phase)
	}
	// The penalty keeps it roughly honest: it should find some feasible
	// improvement on Twitter's wide feasible region.
	if res.ImprovementPct() <= 0 {
		t.Fatalf("penalty BO found no improvement: %v%%", res.ImprovementPct())
	}
}
