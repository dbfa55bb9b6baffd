#include "textflag.h"

// The passes of kernel.go and rows.go in 256-bit registers: radix4AVX2 runs a
// twiddled radix-4 pass along one line, two butterflies (j, j+1) per
// iteration; pairsRowsAVX2, quadsRowsAVX2 and radix4RowsAVX2 run the first
// stage and the twiddled pass across the rows of a group of adjacent lines,
// two lines per iteration. Each performs exactly the IEEE operations the
// compiler emits for the Go loop it stands in for (radix4Pass / radix4PassTo,
// pairsRows, quadsRows, radix4Rows), in the same association, so every output
// bit matches the Go reference: a complex product is re = ar·tr − ai·ti,
// im = ai·tr + ar·ti (two VMULPD, one VPERMILPD, one VADDSUBPD), a product
// with ∓i is a VPERMILPD and a sign flip (VXORPD), butterflies are plain
// VADDPD/VSUBPD. No fused multiply-add anywhere — it rounds once where the
// reference rounds twice — and nothing wider than YMM.

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

// func pairsRowsAVX2(tile, data *complex128, w, pitch int, rev *int32, n int)
//
// Tile rows i and i+1 (w elements each, packed) = data rows rev[i] ± rev[i+1]
// (pitch elements apart). Requires w even and >= 2, n even and >= 2, n entries
// at rev each below n, n·w elements at tile and (n−1)·pitch + w at data; the Go
// wrapper pairsRowsVec checks them.
TEXT ·pairsRowsAVX2(SB), NOSPLIT, $0-48
	MOVQ tile+0(FP), DI
	MOVQ data+8(FP), SI
	MOVQ w+16(FP), R8
	MOVQ pitch+24(FP), R9
	MOVQ rev+32(FP), BX
	MOVQ n+40(FP), DX
	SHLQ $4, R8                       // tile row in bytes
	SHLQ $4, R9                       // data row pitch in bytes

pairsrow:
	MOVLQSX (BX), R10
	MOVLQSX 4(BX), R11
	IMULQ   R9, R10
	IMULQ   R9, R11
	ADDQ    SI, R10                   // row a
	ADDQ    SI, R11                   // row b
	XORQ    AX, AX

pairslane:
	VMOVUPD (R10)(AX*1), Y4
	VMOVUPD (R11)(AX*1), Y5
	VADDPD  Y5, Y4, Y6                // a + b
	VSUBPD  Y5, Y4, Y7                // a − b
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, (DI)(R8*1)
	ADDQ    $32, DI
	ADDQ    $32, AX
	CMPQ    AX, R8
	JLT     pairslane
	ADDQ    R8, DI                    // skip the row just written
	ADDQ    $8, BX
	SUBQ    $2, DX
	JNZ     pairsrow
	VZEROUPPER
	RET

// signs<> flips the sign of the imaginary parts when loaded at offset 0 and of
// the real parts at offset 8.
DATA signs<>+0(SB)/8, $0x0000000000000000
DATA signs<>+8(SB)/8, $0x8000000000000000
DATA signs<>+16(SB)/8, $0x0000000000000000
DATA signs<>+24(SB)/8, $0x8000000000000000
DATA signs<>+32(SB)/8, $0x0000000000000000
GLOBL signs<>(SB), RODATA|NOPTR, $40

// func quadsRowsAVX2(tile, data *complex128, w, pitch int, rev *int32, n int, fwd bool)
//
// Tile rows i … i+3 = the 4-point DFTs of data rows rev[i] … rev[i+3], forward
// (twiddle −i) or inverse (+i). Requires what pairsRowsAVX2 requires with n a
// positive multiple of 4; the Go wrapper quadsRowsVec checks it.
TEXT ·quadsRowsAVX2(SB), NOSPLIT, $0-49
	MOVQ    tile+0(FP), DI
	MOVQ    data+8(FP), SI
	MOVQ    w+16(FP), R8
	MOVQ    pitch+24(FP), R9
	MOVQ    rev+32(FP), BX
	MOVQ    n+40(FP), DX
	MOVBLZX fwd+48(FP), AX
	VMOVUPD signs<>+8(SB), Y15        // ·(+i): (−im, re)
	TESTQ   AX, AX
	JZ      quadssetup
	VMOVUPD signs<>+0(SB), Y15        // ·(−i): (im, −re)

quadssetup:
	SHLQ $4, R8                       // tile row in bytes
	SHLQ $4, R9                       // data row pitch in bytes
	LEAQ (R8)(R8*2), CX               // three tile rows

quadsrow:
	MOVLQSX (BX), R10
	MOVLQSX 4(BX), R11
	MOVLQSX 8(BX), R12
	MOVLQSX 12(BX), R13
	IMULQ   R9, R10
	IMULQ   R9, R11
	IMULQ   R9, R12
	IMULQ   R9, R13
	ADDQ    SI, R10                   // row a
	ADDQ    SI, R11                   // row b
	ADDQ    SI, R12                   // row c
	ADDQ    SI, R13                   // row d
	XORQ    AX, AX

quadslane:
	VMOVUPD   (R10)(AX*1), Y4
	VMOVUPD   (R11)(AX*1), Y5
	VMOVUPD   (R12)(AX*1), Y6
	VMOVUPD   (R13)(AX*1), Y7
	VADDPD    Y5, Y4, Y8              // e0 = a + b
	VSUBPD    Y5, Y4, Y9              // e1 = a − b
	VADDPD    Y7, Y6, Y10             // f0 = c + d
	VSUBPD    Y7, Y6, Y11             // c − d
	VPERMILPD $5, Y11, Y11
	VXORPD    Y15, Y11, Y11           // f1 = (c − d)·(∓i)
	VADDPD    Y10, Y8, Y4             // e0 + f0
	VADDPD    Y11, Y9, Y5             // e1 + f1
	VSUBPD    Y10, Y8, Y6             // e0 − f0
	VSUBPD    Y11, Y9, Y7             // e1 − f1
	VMOVUPD   Y4, (DI)
	VMOVUPD   Y5, (DI)(R8*1)
	VMOVUPD   Y6, (DI)(R8*2)
	VMOVUPD   Y7, (DI)(CX*1)
	ADDQ      $32, DI
	ADDQ      $32, AX
	CMPQ      AX, R8
	JLT       quadslane
	ADDQ      CX, DI                  // skip the three rows just written
	ADDQ      $16, BX
	SUBQ      $4, DX
	JNZ       quadsrow
	VZEROUPPER
	RET

// func radix4RowsAVX2(dst *complex128, dpitch int, src *complex128, w, n, s int, tw *twiddle3, scale float64, scaled bool)
//
// One twiddled radix-4 pass over n rows of w elements: src rows are packed
// (pitch w), dst rows are dpitch elements apart; row j of a quarter-block uses
// twiddle record j in every lane, broadcast once per row. Requires w even and
// >= 2, s >= 1, n a positive multiple of 4s, s twiddle3 records at tw, n·w
// elements at src, (n−1)·dpitch + w at dst with dpitch >= w, and dst == src
// with dpitch == w or no overlap; the Go wrapper radix4RowsVec checks what it
// can see.
TEXT ·radix4RowsAVX2(SB), NOSPLIT, $0-65
	MOVQ         dst+0(FP), DI
	MOVQ         dpitch+8(FP), R12
	MOVQ         src+16(FP), SI
	MOVQ         w+24(FP), R8
	MOVQ         n+32(FP), DX
	MOVQ         s+40(FP), R13
	VBROADCASTSD scale+56(FP), Y14    // (scale, 0) as re/im multiplier pair
	VXORPD       Y15, Y15, Y15
	MOVQ         R13, R10
	IMULQ        R12, R10
	SHLQ         $4, R10              // dst quarter-block pitch in bytes
	LEAQ         (R10)(R10*2), R11    // three quarters
	SUBQ         R8, R12
	SHLQ         $4, R12              // from the end of a dst row to the next
	IMULQ        R13, R8
	SHLQ         $4, R8               // src quarter-block pitch in bytes
	LEAQ         (R8)(R8*2), R9       // three quarters
	SHLQ         $2, R13              // 4s rows per block

rowsblock:
	MOVQ tw+48(FP), BX
	MOVQ s+40(FP), CX

rowsrow:
	VBROADCASTSD 0(BX), Y8            // t1
	VBROADCASTSD 8(BX), Y9
	VBROADCASTSD 16(BX), Y10          // t2
	VBROADCASTSD 24(BX), Y11
	VBROADCASTSD 32(BX), Y12          // t3
	VBROADCASTSD 40(BX), Y13
	MOVQ         w+24(FP), AX
	SHRQ         $1, AX               // two lanes per iteration

rowslane:
	VMOVUPD (SI), Y4                  // a
	VMOVUPD (SI)(R8*1), Y5            // b
	VMOVUPD (SI)(R8*2), Y6            // c
	VMOVUPD (SI)(R9*1), Y7            // d
	CMUL(Y5, Y8, Y9, Y5)              // b·t1
	CMUL(Y7, Y8, Y9, Y7)              // d·t1
	VADDPD  Y5, Y4, Y2                // e0 = a + b
	VSUBPD  Y5, Y4, Y3                // e1 = a − b
	VADDPD  Y7, Y6, Y4                // c + d
	VSUBPD  Y7, Y6, Y5                // c − d
	CMUL(Y4, Y10, Y11, Y6)            // f0 = (c + d)·t2
	CMUL(Y5, Y12, Y13, Y7)            // f1 = (c − d)·t3
	VADDPD  Y6, Y2, Y4                // e0 + f0
	VADDPD  Y7, Y3, Y5                // e1 + f1
	VSUBPD  Y6, Y2, Y6                // e0 − f0
	VSUBPD  Y7, Y3, Y7                // e1 − f1
	CMPB    scaled+64(FP), $0
	JEQ     rowsstore
	CMUL(Y4, Y14, Y15, Y4)
	CMUL(Y5, Y14, Y15, Y5)
	CMUL(Y6, Y14, Y15, Y6)
	CMUL(Y7, Y14, Y15, Y7)

rowsstore:
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, (DI)(R10*1)
	VMOVUPD Y6, (DI)(R10*2)
	VMOVUPD Y7, (DI)(R11*1)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    AX
	JNZ     rowslane
	ADDQ    R12, DI
	ADDQ    $48, BX
	DECQ    CX
	JNZ     rowsrow
	ADDQ    R9, SI                    // skip the three quarters just read
	ADDQ    R11, DI
	SUBQ    R13, DX
	JNZ     rowsblock
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
