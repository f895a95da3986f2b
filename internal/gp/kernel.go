// Package gp implements Gaussian-process regression: the Matérn-5/2
// covariance kernel, exact inference via Cholesky factorization,
// marginal-likelihood hyperparameter fitting, and leave-one-out posteriors
// (needed by the meta-learner's target base-learner evaluation, paper
// Section 6.4.2).
//
// Inputs are points of the normalized configuration space [0,1]^m and
// outputs are standardized metrics, so unit-scale hyperparameter priors work
// across all tuning tasks.
package gp

import (
	"math"

	"repro/internal/mat"
)

// Matern52 is the isotropic Matérn-5/2 kernel, the standard choice for
// Bayesian optimization surrogates (BoTorch's default, which the paper builds
// on) and the one covariance every GP runs:
//
//	k(a, b) = σ²·(1 + r + r²/3)·exp(−r),  r = √5·‖a − b‖ / l.
type Matern52 struct {
	// Variance is the signal variance σ².
	Variance float64
	// LengthScale is the length scale l, shared by every dimension.
	LengthScale float64
}

// NewMatern52 returns a Matérn-5/2 kernel.
func NewMatern52(variance, lengthScale float64) *Matern52 {
	return &Matern52{Variance: variance, LengthScale: lengthScale}
}

// invSq returns 1/l², the factor every squared difference is scaled by. Eval
// and the vector rows (row) both take it from here, so their distances carry
// the same bits.
func (k *Matern52) invSq() float64 { return 1 / (k.LengthScale * k.LengthScale) }

// Eval returns k(a, b).
func (k *Matern52) Eval(a, b []float64) float64 {
	inv, s := k.invSq(), 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d * inv
	}
	r := math.Sqrt(5 * s)
	return k.Variance * (1 + r + 5*s/3) * math.Exp(-r)
}

// row fills row[j] = k(x, column j of xt) in two vector passes that replay
// Eval's op sequence per column: the scaled squared distance (sub, square,
// scale by the hoisted 1/(l·l), add over ascending dimensions; see
// mat.SqDistColsTo), then, in place, r = sqrt(5·s) and
// v·(1+r+5·s/3)·exp(−r) (mat.MaternTo). Every entry matches Eval(x, column)
// bit for bit.
func (k *Matern52) row(row, x []float64, xt *mat.Dense) {
	mat.SqDistColsTo(row, x, xt, 0, k.invSq())
	mat.MaternTo(row, k.Variance)
}

// Params returns the hyperparameters in log space: log variance, then log
// length scale.
func (k *Matern52) Params() []float64 {
	return []float64{math.Log(k.Variance), math.Log(k.LengthScale)}
}

// SetParams installs hyperparameters from log space, in Params' order.
func (k *Matern52) SetParams(logp []float64) {
	k.Variance, k.LengthScale = math.Exp(logp[0]), math.Exp(logp[1])
}
