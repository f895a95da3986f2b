//go:build !purego

// AVX vector kernels for the batched math primitives. Every loop processes
// independent columns in 256-bit lanes using only correctly-rounded IEEE-754
// instructions (VMULPD, VSUBPD, VADDPD, VDIVPD, VSQRTPD) in exactly the
// per-column op order of the scalar Go loops — no FMA, no horizontal
// reductions — so the vector paths are bit-identical to the scalar ones.
// All w arguments are positive multiples of 8; callers handle tails in Go.
// The Matérn and pair-counting kernels at the end of the file have their own
// notes.

#include "textflag.h"

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (lo, hi uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, lo+0(FP)
	MOVL DX, hi+4(FP)
	RET

// func fwdSubRow(di, lrow, data *float64, k, stride, w int, lii float64)
//
// One row of blocked forward substitution:
//   di[j] = (di[j] - sum_{t<k} lrow[t]*data[t*stride+j]) / lii
// Columns j are 16-wide (four ymm accumulators) while >=16 remain, then one
// 8-wide pass. The t-loop is innermost so accumulators stay in registers.
TEXT ·fwdSubRow(SB), NOSPLIT, $0-56
	MOVQ di+0(FP), DI
	MOVQ lrow+8(FP), SI
	MOVQ data+16(FP), DX
	MOVQ k+24(FP), CX
	MOVQ stride+32(FP), R8
	SHLQ $3, R8                   // row stride in bytes
	MOVQ w+40(FP), R9
	SHLQ $3, R9                   // column limit in bytes
	VBROADCASTSD lii+48(FP), Y15
	XORQ R10, R10                 // current column offset in bytes

fs_chunk16:
	MOVQ R9, R12
	SUBQ R10, R12                 // bytes remaining
	CMPQ R12, $128
	JLT  fs_chunk8
	VMOVUPD 0(DI)(R10*1), Y0
	VMOVUPD 32(DI)(R10*1), Y1
	VMOVUPD 64(DI)(R10*1), Y2
	VMOVUPD 96(DI)(R10*1), Y3
	LEAQ 0(DX)(R10*1), R13        // &data[0*stride + jc]
	XORQ R14, R14                 // t

fs_k16:
	CMPQ R14, CX
	JGE  fs_k16done
	VBROADCASTSD 0(SI)(R14*8), Y4 // lrow[t]
	VMULPD 0(R13), Y4, Y5
	VSUBPD Y5, Y0, Y0
	VMULPD 32(R13), Y4, Y6
	VSUBPD Y6, Y1, Y1
	VMULPD 64(R13), Y4, Y7
	VSUBPD Y7, Y2, Y2
	VMULPD 96(R13), Y4, Y8
	VSUBPD Y8, Y3, Y3
	ADDQ R8, R13
	INCQ R14
	JMP  fs_k16

fs_k16done:
	VDIVPD Y15, Y0, Y0
	VDIVPD Y15, Y1, Y1
	VDIVPD Y15, Y2, Y2
	VDIVPD Y15, Y3, Y3
	VMOVUPD Y0, 0(DI)(R10*1)
	VMOVUPD Y1, 32(DI)(R10*1)
	VMOVUPD Y2, 64(DI)(R10*1)
	VMOVUPD Y3, 96(DI)(R10*1)
	ADDQ $128, R10
	JMP  fs_chunk16

fs_chunk8:
	CMPQ R12, $0
	JLE  fs_done
	VMOVUPD 0(DI)(R10*1), Y0
	VMOVUPD 32(DI)(R10*1), Y1
	LEAQ 0(DX)(R10*1), R13
	XORQ R14, R14

fs_k8:
	CMPQ R14, CX
	JGE  fs_k8done
	VBROADCASTSD 0(SI)(R14*8), Y4
	VMULPD 0(R13), Y4, Y5
	VSUBPD Y5, Y0, Y0
	VMULPD 32(R13), Y4, Y6
	VSUBPD Y6, Y1, Y1
	ADDQ R8, R13
	INCQ R14
	JMP  fs_k8

fs_k8done:
	VDIVPD Y15, Y0, Y0
	VDIVPD Y15, Y1, Y1
	VMOVUPD Y0, 0(DI)(R10*1)
	VMOVUPD Y1, 32(DI)(R10*1)
	ADDQ $64, R10
	MOVQ R9, R12
	SUBQ R10, R12
	JMP  fs_chunk8

fs_done:
	VZEROUPPER
	RET

// func sqDistRow(s, x, xt *float64, dim, stride, w int, inv float64)
//
// s[j] = sum_{d<dim} ((x[d]-xt[d*stride+j])^2)*inv, accumulating from 0.0
// with the scalar op order: sub, square, scale by inv, add.
TEXT ·sqDistRow(SB), NOSPLIT, $0-56
	MOVQ s+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ xt+16(FP), DX
	MOVQ dim+24(FP), CX
	MOVQ stride+32(FP), R8
	SHLQ $3, R8
	MOVQ w+40(FP), R9
	SHLQ $3, R9
	VBROADCASTSD inv+48(FP), Y15
	XORQ R10, R10

sd_chunk16:
	MOVQ R9, R12
	SUBQ R10, R12
	CMPQ R12, $128
	JLT  sd_chunk8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	LEAQ 0(DX)(R10*1), R13
	XORQ R14, R14

sd_d16:
	CMPQ R14, CX
	JGE  sd_d16done
	VBROADCASTSD 0(SI)(R14*8), Y4 // x[d]
	VMOVUPD 0(R13), Y5
	VSUBPD Y5, Y4, Y5             // x[d] - xt[d][j]
	VMULPD Y5, Y5, Y5             // d*d
	VMULPD Y15, Y5, Y5            // *inv
	VADDPD Y5, Y0, Y0
	VMOVUPD 32(R13), Y6
	VSUBPD Y6, Y4, Y6
	VMULPD Y6, Y6, Y6
	VMULPD Y15, Y6, Y6
	VADDPD Y6, Y1, Y1
	VMOVUPD 64(R13), Y7
	VSUBPD Y7, Y4, Y7
	VMULPD Y7, Y7, Y7
	VMULPD Y15, Y7, Y7
	VADDPD Y7, Y2, Y2
	VMOVUPD 96(R13), Y8
	VSUBPD Y8, Y4, Y8
	VMULPD Y8, Y8, Y8
	VMULPD Y15, Y8, Y8
	VADDPD Y8, Y3, Y3
	ADDQ R8, R13
	INCQ R14
	JMP  sd_d16

sd_d16done:
	VMOVUPD Y0, 0(DI)(R10*1)
	VMOVUPD Y1, 32(DI)(R10*1)
	VMOVUPD Y2, 64(DI)(R10*1)
	VMOVUPD Y3, 96(DI)(R10*1)
	ADDQ $128, R10
	JMP  sd_chunk16

sd_chunk8:
	CMPQ R12, $0
	JLE  sd_done
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	LEAQ 0(DX)(R10*1), R13
	XORQ R14, R14

sd_d8:
	CMPQ R14, CX
	JGE  sd_d8done
	VBROADCASTSD 0(SI)(R14*8), Y4
	VMOVUPD 0(R13), Y5
	VSUBPD Y5, Y4, Y5
	VMULPD Y5, Y5, Y5
	VMULPD Y15, Y5, Y5
	VADDPD Y5, Y0, Y0
	VMOVUPD 32(R13), Y6
	VSUBPD Y6, Y4, Y6
	VMULPD Y6, Y6, Y6
	VMULPD Y15, Y6, Y6
	VADDPD Y6, Y1, Y1
	ADDQ R8, R13
	INCQ R14
	JMP  sd_d8

sd_d8done:
	VMOVUPD Y0, 0(DI)(R10*1)
	VMOVUPD Y1, 32(DI)(R10*1)
	ADDQ $64, R10
	MOVQ R9, R12
	SUBQ R10, R12
	JMP  sd_chunk8

sd_done:
	VZEROUPPER
	RET

// func axpyRow(dst, src *float64, a float64, w int)
//
// dst[j] += a*src[j]: one rounded multiply, one rounded add.
TEXT ·axpyRow(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	VBROADCASTSD a+16(FP), Y15
	MOVQ w+24(FP), R9
	SHLQ $3, R9
	XORQ R10, R10

ax_loop:
	CMPQ R10, R9
	JGE  ax_done
	VMULPD 0(SI)(R10*1), Y15, Y0
	VMOVUPD 0(DI)(R10*1), Y1
	VADDPD Y0, Y1, Y1
	VMULPD 32(SI)(R10*1), Y15, Y2
	VMOVUPD 32(DI)(R10*1), Y3
	VADDPD Y2, Y3, Y3
	VMOVUPD Y1, 0(DI)(R10*1)
	VMOVUPD Y3, 32(DI)(R10*1)
	ADDQ $64, R10
	JMP  ax_loop

ax_done:
	VZEROUPPER
	RET

// func sqAccumRow(dst, src *float64, w int)
//
// dst[j] += src[j]*src[j]: one rounded multiply, one rounded add.
TEXT ·sqAccumRow(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ w+16(FP), R9
	SHLQ $3, R9
	XORQ R10, R10

sq_loop:
	CMPQ R10, R9
	JGE  sq_done
	VMOVUPD 0(SI)(R10*1), Y0
	VMULPD Y0, Y0, Y0
	VMOVUPD 0(DI)(R10*1), Y1
	VADDPD Y0, Y1, Y1
	VMOVUPD 32(SI)(R10*1), Y2
	VMULPD Y2, Y2, Y2
	VMOVUPD 32(DI)(R10*1), Y3
	VADDPD Y2, Y3, Y3
	VMOVUPD Y1, 0(DI)(R10*1)
	VMOVUPD Y3, 32(DI)(R10*1)
	ADDQ $64, R10
	JMP  sq_loop

sq_done:
	VZEROUPPER
	RET

// The two maternRow kernels turn squared distances s into Matérn-5/2
// covariances in place, four lanes to a register, each lane performing
// exactly the scalar expression v*(1 + r + 5*s/3)*math.Exp(-r) with
// r = math.Sqrt(5*s): one rounded multiply, one rounded square root, an
// exact sign flip, math.Exp, then one add, one divide, one add and two
// multiplies, each rounded.
//
// The exponential is math.Exp's amd64 body (the SLEEF algorithm,
// $GOROOT/src/math/exp_amd64.s) with every scalar instruction replaced by
// its packed twin: the same operations on the same constants in the same
// order per lane, so a lane's exp is the scalar routine's. maternRowFMA
// follows the branch math.Exp takes when math.useFMA is set, maternRowMul
// the other one; which of them (if either) this process uses is decided by
// comparing against the scalar expression at start-up, see pickMaternRow.
//
// Only math.Exp's straight-line path is ported. A block is processed only
// if all four exponents -r lie in [-708, 0], inside which the scaled
// exponent is in [-1021, 0] and math.Exp takes neither its denormal nor its
// overflow exit; -r is never above +0, so one comparison suffices. The
// first block that fails it (NaN fails it; s = +Inf gives -r = -Inf) ends
// the call, and the caller hands that block to the scalar expression.

// EXPV lays one constant out four times, a packed memory operand.
#define EXPV(o, v) \
	DATA expv<>+(o+0)(SB)/8, $v;  \
	DATA expv<>+(o+8)(SB)/8, $v;  \
	DATA expv<>+(o+16)(SB)/8, $v; \
	DATA expv<>+(o+24)(SB)/8, $v

EXPV(0, -708.0)
EXPV(32, 1.4426950408889634073599246810018920)
EXPV(64, 0.69314718055966295651160180568695068359375)
EXPV(96, 0.28235290563031577122588448175013436025525412068e-12)
EXPV(128, 0.0625)
EXPV(160, 2.4801587301587301587e-5)
EXPV(192, 1.9841269841269841270e-4)
EXPV(224, 1.3888888888888888889e-3)
EXPV(256, 8.3333333333333333333e-3)
EXPV(288, 4.1666666666666666667e-2)
EXPV(320, 1.6666666666666666667e-1)
EXPV(352, 0.5)
EXPV(384, 1.0)
EXPV(416, 2.0)
EXPV(448, 5.0)
EXPV(480, 3.0)
DATA expv<>+512(SB)/8, $0x8000000000000000
DATA expv<>+520(SB)/8, $0x8000000000000000
DATA expv<>+528(SB)/8, $0x8000000000000000
DATA expv<>+536(SB)/8, $0x8000000000000000
GLOBL expv<>(SB), RODATA, $544

#define EXP_LO    expv<>+0(SB)
#define EXP_LOG2E expv<>+32(SB)
#define EXP_LN2U  expv<>+64(SB)
#define EXP_LN2L  expv<>+96(SB)
#define EXP_16TH  expv<>+128(SB)
#define EXP_C8    expv<>+160(SB)
#define EXP_C7    expv<>+192(SB)
#define EXP_C6    expv<>+224(SB)
#define EXP_C5    expv<>+256(SB)
#define EXP_C4    expv<>+288(SB)
#define EXP_C3    expv<>+320(SB)
#define EXP_HALF  expv<>+352(SB)
#define EXP_ONE   expv<>+384(SB)
#define EXP_TWO   expv<>+416(SB)
#define MAT_FIVE  expv<>+448(SB)
#define MAT_THREE expv<>+480(SB)
#define MAT_SIGN  expv<>+512(SB)

DATA expbias<>+0(SB)/4, $0x3FF
DATA expbias<>+4(SB)/4, $0x3FF
DATA expbias<>+8(SB)/4, $0x3FF
DATA expbias<>+12(SB)/4, $0x3FF
GLOBL expbias<>(SB), RODATA, $16

// MATERN_LOAD reads the next four distances s and leaves 5*s in Y6,
// r = sqrt(5*s) in Y7 and the exponent argument -r in Y0, leaving the loop
// at label out unless -708 <= -r holds in every lane (predicate 9,
// not-greater-or-equal, is true on NaN). Then Y1 = the exponent
// round(-r*LOG2E) as a float and X2 holds it as four int32.
#define MATERN_LOAD(out) \
	VMOVUPD 0(DI)(R10*1), Y6; \
	VMULPD MAT_FIVE, Y6, Y6; \
	VSQRTPD Y6, Y7; \
	VXORPD MAT_SIGN, Y7, Y0; \
	VCMPPD $9, EXP_LO, Y0, Y3; \
	VMOVMSKPD Y3, AX; \
	TESTL AX, AX; \
	JNZ out; \
	VMULPD EXP_LOG2E, Y0, Y1; \
	VCVTPD2DQY Y1, X2; \
	VCVTDQ2PD X2, Y1

// MATERN_STORE scales the exp fraction in Y0 by 2**exponent — the biased
// exponent shifted into place as a float, math.Exp's ldexp — then forms
// v*(1 + r + 5*s/3)*exp(-r), v in Y15, and stores four results.
#define MATERN_STORE \
	VPADDD expbias<>(SB), X2, X2; \
	VPMOVZXDQ X2, Y2; \
	VPSLLQ $52, Y2, Y2; \
	VMULPD Y2, Y0, Y0; \
	VADDPD EXP_ONE, Y7, Y7; \
	VDIVPD MAT_THREE, Y6, Y6; \
	VADDPD Y6, Y7, Y7; \
	VMULPD Y15, Y7, Y7; \
	VMULPD Y0, Y7, Y0; \
	VMOVUPD Y0, 0(DI)(R10*1); \
	ADDQ $32, R10

// func maternRowFMA(row *float64, v float64, w int) int
TEXT ·maternRowFMA(SB), NOSPLIT, $0-32
	MOVQ row+0(FP), DI
	VBROADCASTSD v+8(FP), Y15
	MOVQ w+16(FP), R9
	SHLQ $3, R9
	XORQ R10, R10

mf_loop:
	CMPQ R10, R9
	JGE  mf_done
	MATERN_LOAD(mf_done)
	VFNMADD231PD EXP_LN2U, Y1, Y0 // x - exponent*LN2U, one rounding
	VFNMADD231PD EXP_LN2L, Y1, Y0
	VMULPD EXP_16TH, Y0, Y0
	VMOVUPD EXP_C8, Y1
	VFMADD213PD EXP_C7, Y0, Y1    // Y1 = Y0*Y1 + c
	VFMADD213PD EXP_C6, Y0, Y1
	VFMADD213PD EXP_C5, Y0, Y1
	VFMADD213PD EXP_C4, Y0, Y1
	VFMADD213PD EXP_C3, Y0, Y1
	VFMADD213PD EXP_HALF, Y0, Y1
	VFMADD213PD EXP_ONE, Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD EXP_TWO, Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD EXP_TWO, Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD EXP_TWO, Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD EXP_TWO, Y0, Y1
	VFMADD213PD EXP_ONE, Y1, Y0   // Y0 = Y1*Y0 + 1
	MATERN_STORE
	JMP  mf_loop

mf_done:
	SHRQ $3, R10
	MOVQ R10, ret+24(FP)
	VZEROUPPER
	RET

// func maternRowMul(row *float64, v float64, w int) int
TEXT ·maternRowMul(SB), NOSPLIT, $0-32
	MOVQ row+0(FP), DI
	VBROADCASTSD v+8(FP), Y15
	MOVQ w+16(FP), R9
	SHLQ $3, R9
	XORQ R10, R10

mm_loop:
	CMPQ R10, R9
	JGE  mm_done
	MATERN_LOAD(mm_done)
	VMULPD EXP_LN2U, Y1, Y5       // X2 keeps the exponent for MATERN_STORE
	VSUBPD Y5, Y0, Y0
	VMULPD EXP_LN2L, Y1, Y5
	VSUBPD Y5, Y0, Y0
	VMULPD EXP_16TH, Y0, Y0
	VMOVUPD EXP_C8, Y1
	VMULPD Y0, Y1, Y1
	VADDPD EXP_C7, Y1, Y1
	VMULPD Y0, Y1, Y1
	VADDPD EXP_C6, Y1, Y1
	VMULPD Y0, Y1, Y1
	VADDPD EXP_C5, Y1, Y1
	VMULPD Y0, Y1, Y1
	VADDPD EXP_C4, Y1, Y1
	VMULPD Y0, Y1, Y1
	VADDPD EXP_C3, Y1, Y1
	VMULPD Y0, Y1, Y1
	VADDPD EXP_HALF, Y1, Y1
	VMULPD Y0, Y1, Y1
	VADDPD EXP_ONE, Y1, Y1
	VMULPD Y1, Y0, Y0
	VADDPD EXP_TWO, Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD EXP_TWO, Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD EXP_TWO, Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD EXP_TWO, Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD EXP_ONE, Y0, Y0
	MATERN_STORE
	JMP  mm_loop

mm_done:
	SHRQ $3, R10
	MOVQ R10, ret+24(FP)
	VZEROUPPER
	RET

// Lane masks for the pairs inside one block of four: row l keeps the lanes
// above l, so lane l is compared only with the elements after it.
DATA pairmask<>+0(SB)/8, $0
DATA pairmask<>+8(SB)/8, $-1
DATA pairmask<>+16(SB)/8, $-1
DATA pairmask<>+24(SB)/8, $-1
DATA pairmask<>+32(SB)/8, $0
DATA pairmask<>+40(SB)/8, $0
DATA pairmask<>+48(SB)/8, $-1
DATA pairmask<>+56(SB)/8, $-1
DATA pairmask<>+64(SB)/8, $0
DATA pairmask<>+72(SB)/8, $0
DATA pairmask<>+80(SB)/8, $0
DATA pairmask<>+88(SB)/8, $-1
GLOBL pairmask<>(SB), RODATA, $96

// PAIRS compares the broadcast element in bx with the four in Y4, adding
// one per lane where bx > Y4 (predicate 30, GT_OQ) to gt and one per lane
// where bx == Y4 (predicate 0, EQ_OQ) to eq. Both predicates are false on
// NaN. A true lane is all ones, -1 as an int64, so subtracting it counts.
#define PAIRS(bx, gt, eq) \
	VCMPPD $30, Y4, bx, Y5; \
	VPSUBQ Y5, gt, gt; \
	VCMPPD $0, Y4, bx, Y6; \
	VPSUBQ Y6, eq, eq

// PAIRSIN is PAIRS for a block against itself: mask keeps the lanes after
// the broadcast one.
#define PAIRSIN(bx, mask) \
	VCMPPD $30, Y4, bx, Y5; \
	VANDPD mask, Y5, Y5; \
	VPSUBQ Y5, Y12, Y12; \
	VCMPPD $0, Y4, bx, Y6; \
	VANDPD mask, Y6, Y6; \
	VPSUBQ Y6, Y13, Y13

// func countPairsRow(a *float64, w int) (gt, eq int)
//
// Over the pairs i < j of a[0:w], w a positive multiple of 4, counts
// a[i] > a[j] into gt and a[i] == a[j] into eq. Block b's four elements
// are broadcast once, compared with each other under pairmask, then with
// every later block; the counts accumulate per lane in Y12/Y14 (gt) and
// Y13/Y15 (eq) and are summed across lanes at the end.
TEXT ·countPairsRow(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ w+8(FP), R9
	SHLQ $3, R9
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	VXORPD Y14, Y14, Y14
	VXORPD Y15, Y15, Y15
	XORQ R10, R10                 // block b, in bytes

cp_block:
	CMPQ R10, R9
	JGE  cp_sum
	VMOVUPD 0(SI)(R10*1), Y4
	VBROADCASTSD 0(SI)(R10*1), Y0
	VBROADCASTSD 8(SI)(R10*1), Y1
	VBROADCASTSD 16(SI)(R10*1), Y2
	VBROADCASTSD 24(SI)(R10*1), Y3
	PAIRSIN(Y0, pairmask<>+0(SB))
	PAIRSIN(Y1, pairmask<>+32(SB))
	PAIRSIN(Y2, pairmask<>+64(SB))
	LEAQ 32(R10), R11             // later block, in bytes

cp_later:
	CMPQ R11, R9
	JGE  cp_next
	VMOVUPD 0(SI)(R11*1), Y4
	PAIRS(Y0, Y12, Y13)
	PAIRS(Y1, Y14, Y15)
	PAIRS(Y2, Y12, Y13)
	PAIRS(Y3, Y14, Y15)
	ADDQ $32, R11
	JMP  cp_later

cp_next:
	ADDQ $32, R10
	JMP  cp_block

cp_sum:
	VPADDQ Y14, Y12, Y12
	VPADDQ Y15, Y13, Y13
	VEXTRACTI128 $1, Y12, X0
	VPADDQ X0, X12, X0
	VPSHUFD $0x4E, X0, X1
	VPADDQ X1, X0, X0
	VMOVQ X0, AX
	VEXTRACTI128 $1, Y13, X2
	VPADDQ X2, X13, X2
	VPSHUFD $0x4E, X2, X3
	VPADDQ X3, X2, X2
	VMOVQ X2, BX
	MOVQ AX, gt+16(FP)
	MOVQ BX, eq+24(FP)
	VZEROUPPER
	RET
