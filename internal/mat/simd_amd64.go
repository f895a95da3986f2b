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

// expRow is the vector exponential ExpTo uses, nil for none.
var expRow = pickExpRow()

// pickExpRow returns the vector kernel that reproduces math.Exp in this
// process. CPUID only says which kernels can execute; which of math.Exp's
// two branches the runtime took is not CPUID's to say —
// GODEBUG=cpu.fma=off clears math.useFMA on a CPU that has FMA, and a later
// Go release may change the algorithm altogether. So each runnable kernel is
// held against math.Exp on a fixed probe set (the two branches disagree, by
// one ulp, on about a tenth of it) and the first to match every bit is used;
// if none does, ExpTo stays scalar.
func pickExpRow() expKernel {
	kernels := runnableExpKernels()
	if len(kernels) == 0 {
		return nil
	}
	const probes = 1024
	src := make([]float64, probes)
	want := make([]float64, probes)
	for j := range src {
		// An irrational stride over the kernels' whole range, so the probes
		// share no pattern with the reduction constants.
		src[j] = math.Mod(float64(j)*math.Pi*7, 1417) - 708
		want[j] = math.Exp(src[j])
	}
	got := make([]float64, probes)
next:
	for _, k := range kernels {
		if k(&got[0], &src[0], probes) != probes {
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
// expRow kernels and countPairsRow need.
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

// runnableExpKernels lists the expRow kernels this CPU can execute: both
// need AVX2 (the integer half of ldexp), expRowFMA needs FMA as well.
func runnableExpKernels() []expKernel {
	if !simdOn || !avx2 {
		return nil
	}
	const fma = 1 << 12
	if _, _, ecx, _ := cpuid(1, 0); ecx&fma == 0 {
		return []expKernel{expRowMul}
	}
	return []expKernel{expRowFMA, expRowMul}
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

// sqrtScaleRow fills r[j] = sqrt(c·s[j]) for w columns, w a positive
// multiple of 8.
//
//go:noescape
func sqrtScaleRow(r, s *float64, c float64, w int)

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

// expRowFMA is the expKernel following the branch math.Exp takes under math.useFMA.
//
//go:noescape
func expRowFMA(dst, src *float64, w int) int

// expRowMul is the expKernel following math.Exp's multiply-then-add branch.
//
//go:noescape
func expRowMul(dst, src *float64, w int) int

// countPairsRow counts, over the pairs i < j of a[0:w], a[i] > a[j] into gt
// and a[i] == a[j] into eq, w a positive multiple of 4. It needs AVX2.
//
//go:noescape
func countPairsRow(a *float64, w int) (gt, eq int)
