#include "textflag.h"

// The passes of kernel.go and rows.go in 256-bit registers: radix4AVX2 runs a
// twiddled radix-4 pass along one line, two butterflies (j, j+1) per
// iteration; pairsRowsAVX2, quadsRowsAVX2 and radix4RowsAVX2 run the first
// stage and the twiddled pass across the rows of a group of lines, two lines
// (lanes) per iteration — one 256-bit load or store when the lanes are
// adjacent, two 128-bit halves (VINSERTF128, VEXTRACTF128) when they are
// lane elements apart. Each performs exactly the IEEE operations the
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

// LANES2 loads lanes l and l+1 of a data row into one YMM: at (row) and
// (row)(lane*1) when the lanes are lane bytes apart (lane ≠ 16).
#define LANES2(row, lane, y, x) \
	VMOVUPD     (row), x; \
	VINSERTF128 $1, (row)(lane*1), y, y

// PAIRROWS points R10 and R11 at data rows rev[i] and rev[i+1] (BX, SI, R9)
// and clears the lane offset AX.
#define PAIRROWS \
	MOVLQSX (BX), R10;  \
	MOVLQSX 4(BX), R11; \
	IMULQ   R9, R10;    \
	IMULQ   R9, R11;    \
	ADDQ    SI, R10;    \
	ADDQ    SI, R11;    \
	XORQ    AX, AX

// PAIRS stores a + b and a − b (a, b in Y4, Y5) to tile rows i and i+1 at DI
// (R8 bytes apart) and steps DI and AX to the next lane pair.
#define PAIRS \
	VADDPD  Y5, Y4, Y6;     \
	VSUBPD  Y5, Y4, Y7;     \
	VMOVUPD Y6, (DI);       \
	VMOVUPD Y7, (DI)(R8*1); \
	ADDQ    $32, DI;        \
	ADDQ    $32, AX

// NEXTPAIRS skips the tile row just written and goes to row pair i+2 at
// label row, or returns.
#define NEXTPAIRS(row) \
	ADDQ R8, DI; \
	ADDQ $8, BX; \
	SUBQ $2, DX; \
	JNZ  row;    \
	VZEROUPPER;  \
	RET

// func pairsRowsAVX2(tile, data *complex128, w, pitch, lane int, rev *int32, n int)
//
// Tile rows i and i+1 (w elements each, packed) = data rows rev[i] ± rev[i+1],
// lane l of row r at data[r·pitch + l·lane]: one 256-bit load per two lanes
// when lane == 1, else two 128-bit halves; the lane test is made once per
// call. Requires w even and >= 2, n even and >= 2, n entries at rev each
// below n, n·w elements at tile and (n−1)·pitch + (w−1)·lane + 1 at data; the
// Go wrapper pairsRowsVec checks them.
TEXT ·pairsRowsAVX2(SB), NOSPLIT, $0-56
	MOVQ tile+0(FP), DI
	MOVQ data+8(FP), SI
	MOVQ w+16(FP), R8
	MOVQ pitch+24(FP), R9
	MOVQ lane+32(FP), R14
	MOVQ rev+40(FP), BX
	MOVQ n+48(FP), DX
	SHLQ $4, R8                       // tile row in bytes
	SHLQ $4, R9                       // data row pitch in bytes
	SHLQ $4, R14                      // data lane in bytes
	CMPQ R14, $16
	JNE  pairsgrow

pairsrow:
	PAIRROWS

pairslane:
	VMOVUPD (R10)(AX*1), Y4
	VMOVUPD (R11)(AX*1), Y5
	PAIRS
	CMPQ    AX, R8
	JLT     pairslane
	NEXTPAIRS(pairsrow)

// Lanes lane elements apart: two 128-bit halves per YMM.
pairsgrow:
	PAIRROWS

pairsglane:
	LANES2(R10, R14, Y4, X4)
	LANES2(R11, R14, Y5, X5)
	PAIRS
	LEAQ (R10)(R14*2), R10
	LEAQ (R11)(R14*2), R11
	CMPQ AX, R8
	JLT  pairsglane
	NEXTPAIRS(pairsgrow)

// signs<> flips the sign of the imaginary parts when loaded at offset 0 and of
// the real parts at offset 8.
DATA signs<>+0(SB)/8, $0x0000000000000000
DATA signs<>+8(SB)/8, $0x8000000000000000
DATA signs<>+16(SB)/8, $0x0000000000000000
DATA signs<>+24(SB)/8, $0x8000000000000000
DATA signs<>+32(SB)/8, $0x0000000000000000
GLOBL signs<>(SB), RODATA|NOPTR, $40

// QUADROWS points R10–R13 at data rows rev[i] … rev[i+3] (BX, SI, R9) and
// clears the lane offset AX.
#define QUADROWS \
	MOVLQSX (BX), R10;   \
	MOVLQSX 4(BX), R11;  \
	MOVLQSX 8(BX), R12;  \
	MOVLQSX 12(BX), R13; \
	IMULQ   R9, R10;     \
	IMULQ   R9, R11;     \
	IMULQ   R9, R12;     \
	IMULQ   R9, R13;     \
	ADDQ    SI, R10;     \
	ADDQ    SI, R11;     \
	ADDQ    SI, R12;     \
	ADDQ    SI, R13;     \
	XORQ    AX, AX

// QUADS computes the 4-point DFTs of a, b, c, d in Y4–Y7 — e0 = a + b,
// e1 = a − b, f0 = c + d, f1 = (c − d)·(∓i) with the sign mask of Y15, then
// e0 ± f0 and e1 ± f1 — stores them to the four tile rows at DI, R8 bytes
// apart (CX = 3·R8), and steps DI and AX to the next lane pair.
#define QUADS \
	VADDPD    Y5, Y4, Y8;     \
	VSUBPD    Y5, Y4, Y9;     \
	VADDPD    Y7, Y6, Y10;    \
	VSUBPD    Y7, Y6, Y11;    \
	VPERMILPD $5, Y11, Y11;   \
	VXORPD    Y15, Y11, Y11;  \
	VADDPD    Y10, Y8, Y4;    \
	VADDPD    Y11, Y9, Y5;    \
	VSUBPD    Y10, Y8, Y6;    \
	VSUBPD    Y11, Y9, Y7;    \
	VMOVUPD   Y4, (DI);       \
	VMOVUPD   Y5, (DI)(R8*1); \
	VMOVUPD   Y6, (DI)(R8*2); \
	VMOVUPD   Y7, (DI)(CX*1); \
	ADDQ      $32, DI;        \
	ADDQ      $32, AX

// NEXTQUADS skips the three tile rows just written and goes to row quad i+4
// at label row, or returns.
#define NEXTQUADS(row) \
	ADDQ CX, DI;  \
	ADDQ $16, BX; \
	SUBQ $4, DX;  \
	JNZ  row;     \
	VZEROUPPER;   \
	RET

// func quadsRowsAVX2(tile, data *complex128, w, pitch, lane int, rev *int32, n int, fwd bool)
//
// Tile rows i … i+3 = the 4-point DFTs of data rows rev[i] … rev[i+3], forward
// (twiddle −i) or inverse (+i). Requires what pairsRowsAVX2 requires with n a
// positive multiple of 4; the Go wrapper quadsRowsVec checks it.
TEXT ·quadsRowsAVX2(SB), NOSPLIT, $0-57
	MOVQ    tile+0(FP), DI
	MOVQ    data+8(FP), SI
	MOVQ    w+16(FP), R8
	MOVQ    pitch+24(FP), R9
	MOVQ    lane+32(FP), R14
	MOVQ    rev+40(FP), BX
	MOVQ    n+48(FP), DX
	MOVBLZX fwd+56(FP), AX
	VMOVUPD signs<>+8(SB), Y15        // ·(+i): (−im, re)
	TESTQ   AX, AX
	JZ      quadssetup
	VMOVUPD signs<>+0(SB), Y15        // ·(−i): (im, −re)

quadssetup:
	SHLQ $4, R8                       // tile row in bytes
	SHLQ $4, R9                       // data row pitch in bytes
	SHLQ $4, R14                      // data lane in bytes
	LEAQ (R8)(R8*2), CX               // three tile rows
	CMPQ R14, $16
	JNE  quadsgrow

quadsrow:
	QUADROWS

quadslane:
	VMOVUPD (R10)(AX*1), Y4
	VMOVUPD (R11)(AX*1), Y5
	VMOVUPD (R12)(AX*1), Y6
	VMOVUPD (R13)(AX*1), Y7
	QUADS
	CMPQ    AX, R8
	JLT     quadslane
	NEXTQUADS(quadsrow)

// Lanes lane elements apart: two 128-bit halves per YMM.
quadsgrow:
	QUADROWS

quadsglane:
	LANES2(R10, R14, Y4, X4)
	LANES2(R11, R14, Y5, X5)
	LANES2(R12, R14, Y6, X6)
	LANES2(R13, R14, Y7, X7)
	QUADS
	LEAQ (R10)(R14*2), R10
	LEAQ (R11)(R14*2), R11
	LEAQ (R12)(R14*2), R12
	LEAQ (R13)(R14*2), R13
	CMPQ AX, R8
	JLT  quadsglane
	NEXTQUADS(quadsgrow)

// TWROW broadcasts twiddle record j (BX) as t1, t2, t3 in Y8–Y13.
#define TWROW \
	VBROADCASTSD 0(BX), Y8;   \
	VBROADCASTSD 8(BX), Y9;   \
	VBROADCASTSD 16(BX), Y10; \
	VBROADCASTSD 24(BX), Y11; \
	VBROADCASTSD 32(BX), Y12; \
	VBROADCASTSD 40(BX), Y13

// ROWS4 runs the butterflies of one lane pair: a, b, c, d from the packed src
// rows at SI (R8 bytes apart, R9 = 3·R8) with the row's broadcast twiddles
// t1, t2, t3 in Y8–Y13; e0, e1 = a ± b·t1, f0 = (c + d·t1)·t2,
// f1 = (c − d·t1)·t3, outputs e0 + f0, e1 + f1, e0 − f0, e1 − f1 in Y4–Y7,
// unscaled.
#define ROWS4 \
	VMOVUPD (SI), Y4;       \
	VMOVUPD (SI)(R8*1), Y5; \
	VMOVUPD (SI)(R8*2), Y6; \
	VMOVUPD (SI)(R9*1), Y7; \
	CMUL(Y5, Y8, Y9, Y5);   \
	CMUL(Y7, Y8, Y9, Y7);   \
	VADDPD  Y5, Y4, Y2;     \
	VSUBPD  Y5, Y4, Y3;     \
	VADDPD  Y7, Y6, Y4;     \
	VSUBPD  Y7, Y6, Y5;     \
	CMUL(Y4, Y10, Y11, Y6); \
	CMUL(Y5, Y12, Y13, Y7); \
	VADDPD  Y6, Y2, Y4;     \
	VADDPD  Y7, Y3, Y5;     \
	VSUBPD  Y6, Y2, Y6;     \
	VSUBPD  Y7, Y3, Y7

// SCALE4 multiplies Y4–Y7 by (scale, 0) in Y14, Y15.
#define SCALE4 \
	CMUL(Y4, Y14, Y15, Y4); \
	CMUL(Y5, Y14, Y15, Y5); \
	CMUL(Y6, Y14, Y15, Y6); \
	CMUL(Y7, Y14, Y15, Y7)

// NEXTROW moves DI to the next dst row and BX to the next twiddle record and
// goes to label row; after a quarter-block's rows it skips the three quarters
// just read and written and goes to label block, or returns at the end of src.
#define NEXTROW(row, block) \
	ADDQ R12, DI; \
	ADDQ $48, BX; \
	DECQ CX;      \
	JNZ  row;     \
	ADDQ R9, SI;  \
	ADDQ R11, DI; \
	CMPQ SI, DX;  \
	JNE  block;   \
	VZEROUPPER;   \
	RET

// func radix4RowsAVX2(dst *complex128, dpitch, dlane int, src *complex128, w, n, s int, tw *twiddle3, scale float64, scaled bool)
//
// One twiddled radix-4 pass over n rows of w elements: src rows are packed
// (pitch w), lane l of dst row r is at dst[r·dpitch + l·dlane]; row j of a
// quarter-block uses twiddle record j in every lane, broadcast once per row.
// Stores are 256-bit when dlane == 1, else two 128-bit halves, the low one at
// (DI) and the high one dlane elements on (R13); the lane test is made once
// per call. Requires w even and >= 2, s >= 1, n a positive multiple of 4s, s
// twiddle3 records at tw, n·w elements at src, (n−1)·dpitch + (w−1)·dlane + 1
// at dst, no two dst elements the same, and dst == src with (dpitch, dlane) ==
// (w, 1) or no overlap; the Go wrapper radix4RowsVec checks what it can see.
TEXT ·radix4RowsAVX2(SB), NOSPLIT, $0-73
	MOVQ         dst+0(FP), DI
	MOVQ         dpitch+8(FP), R12
	MOVQ         dlane+16(FP), R14
	MOVQ         src+24(FP), SI
	MOVQ         w+32(FP), R8
	MOVQ         n+40(FP), DX
	MOVQ         s+48(FP), R13
	VBROADCASTSD scale+64(FP), Y14    // (scale, 0) as re/im multiplier pair
	VXORPD       Y15, Y15, Y15
	MOVQ         R13, R10
	IMULQ        R12, R10
	SHLQ         $4, R10              // dst quarter-block pitch in bytes
	LEAQ         (R10)(R10*2), R11    // three quarters
	MOVQ         R8, AX
	IMULQ        R14, AX
	SUBQ         AX, R12
	SHLQ         $4, R12              // from past a dst row's last lane to the next row
	SHLQ         $4, R14              // dst lane in bytes
	IMULQ        R8, DX
	SHLQ         $4, DX
	ADDQ         SI, DX               // end of src
	IMULQ        R13, R8
	SHLQ         $4, R8               // src quarter-block pitch in bytes
	LEAQ         (R8)(R8*2), R9       // three quarters
	CMPQ         R14, $16
	JNE          scatterblock

rowsblock:
	MOVQ tw+56(FP), BX
	MOVQ s+48(FP), CX

rowsrow:
	TWROW
	MOVQ w+32(FP), AX
	SHRQ $1, AX                       // two lanes per iteration

rowslane:
	ROWS4
	CMPB    scaled+72(FP), $0
	JEQ     rowsstore
	SCALE4

rowsstore:
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, (DI)(R10*1)
	VMOVUPD Y6, (DI)(R10*2)
	VMOVUPD Y7, (DI)(R11*1)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    AX
	JNZ     rowslane
	NEXTROW(rowsrow, rowsblock)

// Lanes dlane elements apart: two 128-bit halves per YMM.
scatterblock:
	MOVQ tw+56(FP), BX
	MOVQ s+48(FP), CX

scatterrow:
	TWROW
	MOVQ w+32(FP), AX
	SHRQ $1, AX
	LEAQ (DI)(R14*1), R13             // lane l+1 of the row at DI

scatterlane:
	ROWS4
	CMPB scaled+72(FP), $0
	JEQ  scatterstore
	SCALE4

scatterstore:
	VMOVUPD      X4, (DI)
	VEXTRACTF128 $1, Y4, (R13)
	VMOVUPD      X5, (DI)(R10*1)
	VEXTRACTF128 $1, Y5, (R13)(R10*1)
	VMOVUPD      X6, (DI)(R10*2)
	VEXTRACTF128 $1, Y6, (R13)(R10*2)
	VMOVUPD      X7, (DI)(R11*1)
	VEXTRACTF128 $1, Y7, (R13)(R11*1)
	ADDQ         $32, SI
	LEAQ         (DI)(R14*2), DI
	LEAQ         (R13)(R14*2), R13
	DECQ         AX
	JNZ          scatterlane
	NEXTROW(scatterrow, scatterblock)

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
