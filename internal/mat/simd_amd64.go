//go:build !purego

package mat

import "math"

// simdOn gates the AVX vector kernels under every batched primitive. The
// vector paths are bit-identical to the scalar loops they replace: each AVX
// lane performs exactly the per-column IEEE op sequence (mul, sub, add, div,
// sqrt — never FMA, which would skip an intermediate rounding), and columns
// never interact, so enabling or disabling SIMD cannot change a single
// output bit. It is a variable, not a constant, so the differential tests in
// this package can force the scalar path on AVX hardware.
var simdOn = detectAVX()

// detectAVX reports whether the CPU and OS support 256-bit AVX state. The
// kernels use only AVX1 float instructions (broadcasts are from memory), so
// AVX2 is not required.
func detectAVX() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 1 {
		return false
	}
	_, _, ecx, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	// The OS must save/restore XMM and YMM state across context switches.
	lo, _ := xgetbv()
	return lo&0x6 == 0x6
}

// maternRow is the vector Matérn pass MaternTo uses, nil for none.
var maternRow = pickMaternRow()

// pickMaternRow returns the vector kernel that reproduces the scalar Matérn
// expression (matern) in this process. CPUID only says which kernels can
// execute; which of math.Exp's two branches the runtime took is not CPUID's
// to say — GODEBUG=cpu.fma=off clears math.useFMA on a CPU that has FMA, and
// a later Go release may change the algorithm altogether. So each runnable
// kernel is held against matern on a fixed probe set whose exponents
// −r = −√(5s) cover the vector range [−708, 0] (math.Exp's two branches
// disagree, by one ulp, on about a tenth of it), and the first to match
// every bit is used; if none does, MaternTo stays scalar.
func pickMaternRow() maternKernel {
	kernels := runnableMaternKernels()
	if len(kernels) == 0 {
		return nil
	}
	const probes, v = 1024, 1.7
	src := make([]float64, probes)
	want := make([]float64, probes)
	for j := range src {
		// An irrational stride over the kernels' whole range, so the probes
		// share no pattern with the reduction constants.
		r := math.Mod(float64(j)*math.Pi*7, 708)
		src[j] = r * r / 5
		want[j] = matern(src[j], v)
	}
	got := make([]float64, probes)
next:
	for _, k := range kernels {
		copy(got, src)
		if k(&got[0], v, probes) != probes {
			continue
		}
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				continue next
			}
		}
		return k
	}
	return nil
}

// avx2 reports whether the CPU also has the 256-bit integer instructions the
// maternRow kernels and countPairsRow need.
var avx2 = detectAVX2()

func detectAVX2() bool {
	if !simdOn {
		return false
	}
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const avx2Bit = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2Bit != 0
}

// fma3 reports whether the CPU also has the fused multiply-add
// maternRowFMA needs.
var fma3 = detectFMA3()

func detectFMA3() bool {
	const fmaBit = 1 << 12
	_, _, ecx, _ := cpuid(1, 0)
	return avx2 && ecx&fmaBit != 0
}

// runnableMaternKernels lists the maternRow kernels this CPU can execute:
// both need AVX2 (the integer half of ldexp), maternRowFMA needs FMA as well.
func runnableMaternKernels() []maternKernel {
	switch {
	case !simdOn || !avx2:
		return nil
	case !fma3:
		return []maternKernel{maternRowMul}
	}
	return []maternKernel{maternRowFMA, maternRowMul}
}

// cpuid executes the CPUID instruction.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0).
func xgetbv() (lo, hi uint32)

// fwdSubRow performs one row of blocked forward substitution over w
// right-hand-side columns, w a positive multiple of 8:
//
//	di[j] = (di[j] - Σ_{t<k, ascending} lrow[t]·data[t·stride+j]) / lii
//
// The subtraction order over t and the final division match the per-column
// scalar solve exactly; lanes are independent columns.
//
//go:noescape
func fwdSubRow(di, lrow, data *float64, k, stride, w int, lii float64)

// sqDistRow fills s[j] = Σ_{d<dim, ascending} ((x[d]-xt[d·stride+j])²)·inv
// for w columns, w a positive multiple of 8, accumulating from 0.0 in the
// same per-element op order (sub, square, scale, add) as the scalar loop.
//
//go:noescape
func sqDistRow(s, x, xt *float64, dim, stride, w int, inv float64)

// axpyRow performs dst[j] += a·src[j] for w columns, w a positive multiple
// of 8.
//
//go:noescape
func axpyRow(dst, src *float64, a float64, w int)

// sqAccumRow performs dst[j] += src[j]·src[j] for w columns, w a positive
// multiple of 8.
//
//go:noescape
func sqAccumRow(dst, src *float64, w int)

// maternRowFMA is the maternKernel following the branch math.Exp takes
// under math.useFMA.
//
//go:noescape
func maternRowFMA(row *float64, v float64, w int) int

// maternRowMul is the maternKernel following math.Exp's multiply-then-add
// branch.
//
//go:noescape
func maternRowMul(row *float64, v float64, w int) int

// countPairsRow counts, over the pairs i < j of a[0:w], a[i] > a[j] into gt
// and a[i] == a[j] into eq, w a positive multiple of 4. It needs AVX2.
//
//go:noescape
func countPairsRow(a *float64, w int) (gt, eq int)
