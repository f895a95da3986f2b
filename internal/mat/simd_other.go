//go:build !amd64 || purego

package mat

// simdOn is a constant false off amd64, and on amd64 under the purego build
// tag (go test -tags purego runs every caller on the scalar loops), so the
// compiler removes every vector branch and the stubs below are never
// reached.
const simdOn = false

// maternRow is nil here: MaternTo runs the scalar expression.
var maternRow maternKernel

// avx2 is false here: CountPairs runs its scalar loop.
const avx2 = false

func fwdSubRow(di, lrow, data *float64, k, stride, w int, lii float64) {
	panic("mat: simd stub called")
}

func sqDistRow(s, x, xt *float64, dim, stride, w int, inv float64) {
	panic("mat: simd stub called")
}

func axpyRow(dst, src *float64, a float64, w int) {
	panic("mat: simd stub called")
}

func sqAccumRow(dst, src *float64, w int) {
	panic("mat: simd stub called")
}

func countPairsRow(a *float64, w int) (gt, eq int) {
	panic("mat: simd stub called")
}
