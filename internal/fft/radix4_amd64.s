#include "textflag.h"

// The row engine of rows.go and the real split and merge of real.go in
// 256-bit registers, five routines (the row routines again at 512 bits
// follow radix4RowsAVX2): pairsRowsAVX2, quadsRowsAVX2 and
// radix4RowsAVX2 run the first stage and the twiddled pass across the rows of
// a group of lines, two lines (lanes) per iteration — one 256-bit load or
// store when the lanes are adjacent, two 128-bit halves (VINSERTF128,
// VEXTRACTF128) when they are lane elements apart, or the same element twice
// at lane 0 (a line on its own); splitRowsAVX2 and mergeRowsAVX2 run the real
// transform's even/odd split and merge across lanes the same way. Each
// performs exactly the IEEE operations the compiler emits for the Go loop it
// stands in for (pairsRows, quadsRows, radix4Rows, splitLanes, mergeLanes),
// in the same association, so every output bit matches the Go reference: a
// complex product is re = ar·tr − ai·ti, im = ai·tr + ar·ti (two VMULPD, one
// VPERMILPD, one VADDSUBPD), a product with ∓i is a VPERMILPD and a sign flip
// (VXORPD), butterflies are plain VADDPD/VSUBPD. No fused multiply-add
// anywhere — it rounds once where the reference rounds twice.

// CMUL sets out = a · (re, im) for two packed complex values; a survives
// unless out == a. Clobbers Y0, Y1.
#define CMUL(a, re, im, out) \
	VMULPD    re, a, Y0;  \
	VPERMILPD $5, a, Y1;  \
	VMULPD    im, Y1, Y1; \
	VADDSUBPD Y1, Y0, out

// LANES2 loads lanes l and l+1 of a data row into one YMM: at (row) and
// (row)(lane*1) when the lanes are lane bytes apart (lane ≠ 16; at lane 0
// both halves are the same element).
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
// Go wrapper pairsRowsVec checks them, the table's entries once, when the
// plan built it (checkRev).
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
// positive multiple of 4; the Go wrapper quadsRowsVec checks it, as above.
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
// (DI) and the high one dlane elements on (R13) — the same address at
// dlane 0, where both lanes hold the same line; the lane test is made once
// per call. Requires w even and >= 2, s >= 1, n a positive multiple of 4s, s
// twiddle3 records at tw, n·w elements at src, (n−1)·dpitch + (w−1)·dlane + 1
// at dst, no two dst rows sharing an element, and dst == src with
// (dpitch, dlane) == (w, 1) or no overlap; the Go wrapper radix4RowsVec
// checks what it can see.
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

// The three row routines again at 512 bits: pairsRowsAVX512, quadsRowsAVX512
// and radix4RowsAVX512 run four lanes per ZMM register — one 512-bit load or
// store when the lanes are adjacent, four 128-bit pieces (VINSERTF32X4,
// VEXTRACTF32X4) when they are lane elements apart or the same element — and
// a row whose w is 2 modulo 4 ends in one two-lane step, loaded and stored
// as YMM halves. They take w >= 4; the wrappers keep groups of two lanes on
// the AVX2 routines. AVX-512 has no VADDSUBPD: a complex product takes the
// twiddle's imaginary part broadcast with its real slots negated, once per
// row, and adds, re = ar·tr + ai·(−ti), which is ar·tr − ai·ti bit for bit —
// IEEE negation is exact and x + (−y) is x − y. The operations and their
// association are otherwise those of the AVX2 routines. Only AVX-512F
// instructions (VPXORQ, not VXORPD, on ZMMs; the 32X4 inserts and extracts,
// not 64X2), no fused multiply-add, and no register above Z15, so
// VZEROUPPER clears every upper half the routines write.

// CMULZ sets out = a · (re, im) for four packed complex values, where imn is
// im with its real slots negated; a survives unless out == a. Clobbers Z0,
// Z1.
#define CMULZ(a, re, imn, out) \
	VMULPD    re, a, Z0;    \
	VPERMILPD $0x55, a, Z1; \
	VMULPD    imn, Z1, Z1;  \
	VADDPD    Z1, Z0, out

// LANES4 loads lanes l … l+3 of a data row into one ZMM as four 128-bit
// pieces lane bytes apart (lane3 = 3·lane): the VEX load of the first clears
// the upper pieces, the inserts fill them.
#define LANES4(row, lane, lane3, z, x) \
	VMOVUPD      (row), x;                \
	VINSERTF32X4 $1, (row)(lane*1), z, z; \
	VINSERTF32X4 $2, (row)(lane*2), z, z; \
	VINSERTF32X4 $3, (row)(lane3*1), z, z

// PAIRSZ is PAIRS for four lanes in Z4, Z5.
#define PAIRSZ \
	VADDPD  Z5, Z4, Z6;     \
	VSUBPD  Z5, Z4, Z7;     \
	VMOVUPD Z6, (DI);       \
	VMOVUPD Z7, (DI)(R8*1); \
	ADDQ    $64, DI;        \
	ADDQ    $64, AX

// func pairsRowsAVX512(tile, data *complex128, w, pitch, lane int, rev *int32, n int)
//
// pairsRowsAVX2 four lanes at a time up to R12, the bytes of a tile row's
// lanes that fill whole ZMMs; PAIRS takes a row's last two lanes when w is 2
// modulo 4. Requires what pairsRowsAVX2 requires and w >= 4; the Go wrapper
// pairsRowsVec checks it.
TEXT ·pairsRowsAVX512(SB), NOSPLIT, $0-56
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
	MOVQ R8, R12
	ANDQ $-64, R12                    // the lanes in whole ZMMs
	LEAQ (R14)(R14*2), R15            // three lanes
	CMPQ R14, $16
	JNE  pairszgrow

pairszrow:
	PAIRROWS

pairszlane:
	VMOVUPD (R10)(AX*1), Z4
	VMOVUPD (R11)(AX*1), Z5
	PAIRSZ
	CMPQ    AX, R12
	JLT     pairszlane
	CMPQ    AX, R8
	JEQ     pairsznext
	VMOVUPD (R10)(AX*1), Y4
	VMOVUPD (R11)(AX*1), Y5
	PAIRS

pairsznext:
	NEXTPAIRS(pairszrow)

// Lanes lane elements apart: four 128-bit pieces per ZMM, two per YMM.
pairszgrow:
	PAIRROWS

pairszglane:
	LANES4(R10, R14, R15, Z4, X4)
	LANES4(R11, R14, R15, Z5, X5)
	PAIRSZ
	LEAQ (R10)(R14*4), R10
	LEAQ (R11)(R14*4), R11
	CMPQ AX, R12
	JLT  pairszglane
	CMPQ AX, R8
	JEQ  pairszgnext
	LANES2(R10, R14, Y4, X4)
	LANES2(R11, R14, Y5, X5)
	PAIRS

pairszgnext:
	NEXTPAIRS(pairszgrow)

// QUADSZ is QUADS for four lanes in Z4–Z7 (sign mask Z15), except that it
// leaves AX to the loop.
#define QUADSZ \
	VADDPD    Z5, Z4, Z8;      \
	VSUBPD    Z5, Z4, Z9;      \
	VADDPD    Z7, Z6, Z10;     \
	VSUBPD    Z7, Z6, Z11;     \
	VPERMILPD $0x55, Z11, Z11; \
	VPXORQ    Z15, Z11, Z11;   \
	VADDPD    Z10, Z8, Z4;     \
	VADDPD    Z11, Z9, Z5;     \
	VSUBPD    Z10, Z8, Z6;     \
	VSUBPD    Z11, Z9, Z7;     \
	VMOVUPD   Z4, (DI);        \
	VMOVUPD   Z5, (DI)(R8*1);  \
	VMOVUPD   Z6, (DI)(R8*2);  \
	VMOVUPD   Z7, (DI)(CX*1);  \
	ADDQ      $64, DI

// func quadsRowsAVX512(tile, data *complex128, w, pitch, lane int, rev *int32, n int, fwd bool)
//
// quadsRowsAVX2 four lanes at a time, QUADS taking a row's last two lanes
// when w is 2 modulo 4. Requires what quadsRowsAVX2 requires and w >= 4; the
// Go wrapper quadsRowsVec checks it.
TEXT ·quadsRowsAVX512(SB), NOSPLIT, $0-57
	MOVQ            tile+0(FP), DI
	MOVQ            data+8(FP), SI
	MOVQ            w+16(FP), R8
	MOVQ            pitch+24(FP), R9
	MOVQ            lane+32(FP), R14
	MOVQ            rev+40(FP), BX
	MOVQ            n+48(FP), DX
	MOVBLZX         fwd+56(FP), AX
	VBROADCASTF32X4 signs<>+8(SB), Z15 // ·(+i): (−im, re)
	TESTQ           AX, AX
	JZ              quadszsetup
	VBROADCASTF32X4 signs<>+0(SB), Z15 // ·(−i): (im, −re)

quadszsetup:
	SHLQ $4, R8                       // tile row in bytes
	SHLQ $4, R9                       // data row pitch in bytes
	SHLQ $4, R14                      // data lane in bytes
	LEAQ (R8)(R8*2), CX               // three tile rows
	CMPQ R14, $16
	JNE  quadszgrow
	MOVQ R8, R15
	ANDQ $-64, R15                    // the lanes in whole ZMMs

quadszrow:
	QUADROWS

quadszlane:
	VMOVUPD (R10)(AX*1), Z4
	VMOVUPD (R11)(AX*1), Z5
	VMOVUPD (R12)(AX*1), Z6
	VMOVUPD (R13)(AX*1), Z7
	QUADSZ
	ADDQ    $64, AX
	CMPQ    AX, R15
	JLT     quadszlane
	CMPQ    AX, R8
	JEQ     quadsznext
	VMOVUPD (R10)(AX*1), Y4
	VMOVUPD (R11)(AX*1), Y5
	VMOVUPD (R12)(AX*1), Y6
	VMOVUPD (R13)(AX*1), Y7
	QUADS

quadsznext:
	NEXTQUADS(quadszrow)

// Lanes lane elements apart: four 128-bit pieces per ZMM, two per YMM; AX
// counts a row's ZMMs.
quadszgrow:
	LEAQ (R14)(R14*2), R15            // three lanes

quadszgrow4:
	QUADROWS
	MOVQ w+16(FP), AX
	SHRQ $2, AX

quadszglane:
	LANES4(R10, R14, R15, Z4, X4)
	LANES4(R11, R14, R15, Z5, X5)
	LANES4(R12, R14, R15, Z6, X6)
	LANES4(R13, R14, R15, Z7, X7)
	QUADSZ
	LEAQ  (R10)(R14*4), R10
	LEAQ  (R11)(R14*4), R11
	LEAQ  (R12)(R14*4), R12
	LEAQ  (R13)(R14*4), R13
	DECQ  AX
	JNZ   quadszglane
	MOVQ  w+16(FP), AX
	TESTQ $2, AX
	JZ    quadszgnext
	LANES2(R10, R14, Y4, X4)
	LANES2(R11, R14, Y5, X5)
	LANES2(R12, R14, Y6, X6)
	LANES2(R13, R14, Y7, X7)
	QUADS

quadszgnext:
	NEXTQUADS(quadszgrow4)

// TWROWZ broadcasts twiddle record j (BX) as t1, t2, t3 in Z8–Z13, each
// imaginary part with its real slots negated: the mask Z15 XORed with the
// part broadcast from memory (an embedded broadcast).
#define TWROWZ \
	VBROADCASTSD 0(BX), Z8;        \
	VPXORQ.BCST  8(BX), Z15, Z9;   \
	VBROADCASTSD 16(BX), Z10;      \
	VPXORQ.BCST  24(BX), Z15, Z11; \
	VBROADCASTSD 32(BX), Z12;      \
	VPXORQ.BCST  40(BX), Z15, Z13

// SRCZ loads a step's a, b, c, d from the packed src rows at SI (R8 bytes
// apart, R9 = 3·R8): four lanes into Z4–Z7. SRCY loads a row's last two
// into Y4–Y7, which clears the upper lanes: ROWSZ and SCALEZ compute zeros
// there, and only the two lanes are stored.
#define SRCZ \
	VMOVUPD (SI), Z4;       \
	VMOVUPD (SI)(R8*1), Z5; \
	VMOVUPD (SI)(R8*2), Z6; \
	VMOVUPD (SI)(R9*1), Z7

#define SRCY \
	VMOVUPD (SI), Y4;       \
	VMOVUPD (SI)(R8*1), Y5; \
	VMOVUPD (SI)(R8*2), Y6; \
	VMOVUPD (SI)(R9*1), Y7

// ROWSZ is ROWS4's butterflies on Z4–Z7 with TWROWZ's twiddles: outputs
// e0 + f0, e1 + f1, e0 − f0, e1 − f1 in Z4–Z7, unscaled.
#define ROWSZ \
	CMULZ(Z5, Z8, Z9, Z5);   \
	CMULZ(Z7, Z8, Z9, Z7);   \
	VADDPD Z5, Z4, Z2;       \
	VSUBPD Z5, Z4, Z3;       \
	VADDPD Z7, Z6, Z4;       \
	VSUBPD Z7, Z6, Z5;       \
	CMULZ(Z4, Z10, Z11, Z6); \
	CMULZ(Z5, Z12, Z13, Z7); \
	VADDPD Z6, Z2, Z4;       \
	VADDPD Z7, Z3, Z5;       \
	VSUBPD Z6, Z2, Z6;       \
	VSUBPD Z7, Z3, Z7

// SCALEZ multiplies Z4–Z7 by (scale, 0): scale broadcast in Z14, and Z15,
// the mask, is (−0, 0), the zero imaginary part with its real slots negated.
#define SCALEZ \
	CMULZ(Z4, Z14, Z15, Z4); \
	CMULZ(Z5, Z14, Z15, Z5); \
	CMULZ(Z6, Z14, Z15, Z6); \
	CMULZ(Z7, Z14, Z15, Z7)

// PIECE0 and PIECEZ(k) store lane 0 or lane k of a step, the k-th 128-bit
// piece of Z4–Z7, to the four dst rows at DI (R10 bytes apart, R11 = 3·R10)
// and step DI one dst lane (R14) on.
#define PIECE0 \
	VMOVUPD X4, (DI);        \
	VMOVUPD X5, (DI)(R10*1); \
	VMOVUPD X6, (DI)(R10*2); \
	VMOVUPD X7, (DI)(R11*1); \
	ADDQ    R14, DI

#define PIECEZ(k) \
	VEXTRACTF32X4 $k, Z4, (DI);        \
	VEXTRACTF32X4 $k, Z5, (DI)(R10*1); \
	VEXTRACTF32X4 $k, Z6, (DI)(R10*2); \
	VEXTRACTF32X4 $k, Z7, (DI)(R11*1); \
	ADDQ          R14, DI

// func radix4RowsAVX512(dst *complex128, dpitch, dlane int, src *complex128, w, n, s int, tw *twiddle3, scale float64, scaled bool)
//
// radix4RowsAVX2 four lanes at a time (R13 steps a row), then a row's last
// two lanes when w is 2 modulo 4. Stores are 512-bit (256-bit for the two)
// when dlane == 1, else one 128-bit piece per lane, DI stepping a dst lane
// after each — at dlane 0 every piece goes to the same address, all holding
// the same line. Requires what radix4RowsAVX2 requires and w >= 4; the Go
// wrapper radix4RowsVec checks what it can see.
TEXT ·radix4RowsAVX512(SB), NOSPLIT, $0-73
	MOVQ            dst+0(FP), DI
	MOVQ            dpitch+8(FP), R12
	MOVQ            dlane+16(FP), R14
	MOVQ            src+24(FP), SI
	MOVQ            w+32(FP), R8
	MOVQ            n+40(FP), DX
	MOVQ            s+48(FP), R13
	VBROADCASTSD    scale+64(FP), Z14    // (scale, 0) as re/im multiplier pair,
	VBROADCASTF32X4 signs<>+8(SB), Z15   // with Z15 = (−0, 0), the mask negating the real slots
	MOVQ            R13, R10
	IMULQ           R12, R10
	SHLQ            $4, R10              // dst quarter-block pitch in bytes
	LEAQ            (R10)(R10*2), R11    // three quarters
	MOVQ            R8, AX
	IMULQ           R14, AX
	SUBQ            AX, R12
	SHLQ            $4, R12              // from past a dst row's last lane to the next row
	SHLQ            $4, R14              // dst lane in bytes
	IMULQ           R8, DX
	SHLQ            $4, DX
	ADDQ            SI, DX               // end of src
	IMULQ           R13, R8
	SHLQ            $4, R8               // src quarter-block pitch in bytes
	LEAQ            (R8)(R8*2), R9       // three quarters
	MOVQ            w+32(FP), R13
	SHRQ            $2, R13              // ZMM steps a row
	CMPQ            R14, $16
	JNE             scatterzblock

rowszblock:
	MOVQ tw+56(FP), BX
	MOVQ s+48(FP), CX

rowszrow:
	TWROWZ
	MOVQ R13, AX

rowszlane:
	SRCZ
	ROWSZ
	CMPB scaled+72(FP), $0
	JEQ  rowszstore
	SCALEZ

rowszstore:
	VMOVUPD Z4, (DI)
	VMOVUPD Z5, (DI)(R10*1)
	VMOVUPD Z6, (DI)(R10*2)
	VMOVUPD Z7, (DI)(R11*1)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    AX
	JNZ     rowszlane
	MOVQ    w+32(FP), AX
	TESTQ   $2, AX
	JZ      rowsznext
	SRCY
	ROWSZ
	CMPB    scaled+72(FP), $0
	JEQ     rowsztailstore
	SCALEZ

rowsztailstore:
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, (DI)(R10*1)
	VMOVUPD Y6, (DI)(R10*2)
	VMOVUPD Y7, (DI)(R11*1)
	ADDQ    $32, SI
	ADDQ    $32, DI

rowsznext:
	NEXTROW(rowszrow, rowszblock)

// Lanes dlane elements apart: one 128-bit piece per lane.
scatterzblock:
	MOVQ tw+56(FP), BX
	MOVQ s+48(FP), CX

scatterzrow:
	TWROWZ
	MOVQ R13, AX

scatterzlane:
	SRCZ
	ROWSZ
	CMPB scaled+72(FP), $0
	JEQ  scatterzstore
	SCALEZ

scatterzstore:
	PIECE0
	PIECEZ(1)
	PIECEZ(2)
	PIECEZ(3)
	ADDQ  $64, SI
	DECQ  AX
	JNZ   scatterzlane
	MOVQ  w+32(FP), AX
	TESTQ $2, AX
	JZ    scatterznext
	SRCY
	ROWSZ
	CMPB  scaled+72(FP), $0
	JEQ   scatterztailstore
	SCALEZ

scatterztailstore:
	PIECE0
	PIECEZ(1)
	ADDQ $32, SI

scatterznext:
	NEXTROW(scatterzrow, scatterzblock)

// The real transform's even/odd split and merge (real.go) across the lanes of
// a group of lines, two lanes per YMM. Constants: Y13 = 0.5, the halving;
// Y14 = (0, −0, 0, −0), which flips the imaginary signs (conj) and, as a
// multiplier of a swapped pair, gives (y·0, −(x·0)); Y15 = 0.
DATA half<>+0(SB)/8, $0.5
GLOBL half<>(SB), RODATA|NOPTR, $8

#define SPLITCONST \
	VBROADCASTSD half<>(SB), Y13;  \
	VMOVUPD      signs<>+0(SB), Y14; \
	VXORPD       Y15, Y15, Y15

// HALF sets out = ((x + y·0)/2, (y − x·0)/2) for each v = (x, y): the halved
// sum or difference of splitLanes and mergeLanes, products by zero included.
// t is scratch.
#define HALF(v, t, out) \
	VPERMILPD $5, v, t;  \
	VMULPD    Y14, t, t; \
	VADDPD    t, v, t;   \
	VMULPD    Y13, t, out

// SPLIT sets Y6 to the spectrum values of two lanes from their tile values at
// z (row k) and n (row h − k) and twiddle tw[k] = (tr, ti) broadcast:
// S = Z + conj(N), D = Z − conj(N), E = HALF(S), O = ((d·0 + e), (e·0 − d))/2
// for D = (d, e), Y6 = E + O·tw[k]. Clobbers Y0–Y7.
#define SPLIT(z, n, tr, ti) \
	VMOVUPD   z, Y2;          \
	VMOVUPD   n, Y3;          \
	VXORPD    Y14, Y3, Y3;    \
	VADDPD    Y3, Y2, Y4;     \
	VSUBPD    Y3, Y2, Y5;     \
	HALF(Y4, Y6, Y6);         \
	VMULPD    Y15, Y5, Y7;    \
	VPERMILPD $5, Y5, Y5;     \
	VXORPD    Y14, Y5, Y5;    \
	VADDPD    Y5, Y7, Y7;     \
	VMULPD    Y13, Y7, Y7;    \
	CMUL(Y7, tr, ti, Y7);     \
	VADDPD    Y7, Y6, Y6

// func splitRowsAVX2(spec *complex128, ss, sd int, tile *complex128, w, h int, tw *complex128)
//
// splitLanes for lanes 0 … w&^1 − 1 of the w-lane tile (row j, lane l at
// tile[j·w + l]): spectrum row k ≤ h of lane l, at spec[k·ss + l·sd], from
// tile rows k and h − k (both row 0 for k = 0 and k = h) and tw[k]. With
// ss = 1 (each lane's spectrum contiguous) rows run two at a time and each
// lane's two values are one 256-bit store (VPERM2F128); a last odd row, and
// every row for other ss, stores each lane's value as a 128-bit half. Requires
// w >= 2, h >= 1, h rows of w at tile, h+1 twiddles and every element
// k·ss + l·sd inside spec; the Go wrapper splitRowsVec checks them.
TEXT ·splitRowsAVX2(SB), NOSPLIT, $0-56
	MOVQ spec+0(FP), DI
	MOVQ sd+16(FP), R14
	MOVQ tile+24(FP), SI
	MOVQ tw+48(FP), BX
	SPLITCONST
	SHLQ $4, R14                      // spectrum lane in bytes
	XORQ CX, CX                       // k
	CMPQ ss+8(FP), $1
	JNE  splitrows
	MOVQ w+32(FP), R8
	ANDQ $-2, R8
	SHLQ $4, R8                       // end of the lane pairs in a tile row

// Rows k and k+1 (k+1 <= h): R10, R12 = tile rows k, h − k; R11, R13 = rows
// k+1, h − k − 1. Row h stands for row 0 (k = 0's partner, or row k+1 = h)
// and becomes row 0 by CMOV; at those k, R10 and R13 are row 0 already.
splitpair:
	MOVQ       w+32(FP), R9
	SHLQ       $4, R9                 // tile row in bytes
	MOVQ       CX, R10
	IMULQ      R9, R10
	ADDQ       SI, R10
	LEAQ       (R10)(R9*1), R11
	MOVQ       h+40(FP), R12
	SUBQ       CX, R12
	IMULQ      R9, R12
	ADDQ       SI, R12
	MOVQ       R12, R13
	SUBQ       R9, R13
	TESTQ      CX, CX
	CMOVQEQ    SI, R12
	LEAQ       1(CX), R9
	CMPQ       R9, h+40(FP)
	CMOVQEQ    SI, R11
	VBROADCASTSD (BX), Y8
	VBROADCASTSD 8(BX), Y9
	VBROADCASTSD 16(BX), Y10
	VBROADCASTSD 24(BX), Y11
	MOVQ       DI, DX                 // lane l of rows k, k+1
	XORQ       AX, AX

splitpairlane:
	SPLIT((R10)(AX*1), (R12)(AX*1), Y8, Y9)
	VMOVAPD    Y6, Y12
	SPLIT((R11)(AX*1), (R13)(AX*1), Y10, Y11)
	VPERM2F128 $0x20, Y6, Y12, Y2     // lane l: rows k, k+1
	VPERM2F128 $0x31, Y6, Y12, Y3     // lane l+1
	VMOVUPD    Y2, (DX)
	VMOVUPD    Y3, (DX)(R14*1)
	LEAQ       (DX)(R14*2), DX
	ADDQ       $32, AX
	CMPQ       AX, R8
	JLT        splitpairlane
	ADDQ       $32, DI
	ADDQ       $32, BX
	ADDQ       $2, CX
	CMPQ       CX, h+40(FP)
	JLT        splitpair
	JGT        splitdone

// Rows CX … h, one at a time.
splitrows:
	MOVQ w+32(FP), R8
	SHLQ $4, R8                       // tile row in bytes
	MOVQ ss+8(FP), R9
	SHLQ $4, R9                       // spectrum row in bytes
	MOVQ h+40(FP), DX

splitrow:
	MOVQ         CX, R10
	IMULQ        R8, R10
	ADDQ         SI, R10              // tile row k, or row 0 at k = h
	MOVQ         DX, R11
	SUBQ         CX, R11
	IMULQ        R8, R11
	ADDQ         SI, R11              // tile row h − k, or row 0 at k = 0
	TESTQ        CX, CX
	CMOVQEQ      SI, R11
	CMPQ         CX, DX
	CMOVQEQ      SI, R10
	VBROADCASTSD (BX), Y8
	VBROADCASTSD 8(BX), Y9
	MOVQ         DI, R12              // lane l of spectrum row k
	LEAQ         (DI)(R14*1), R13     // lane l+1
	MOVQ         w+32(FP), AX
	SHRQ         $1, AX               // lane pairs

splitlane:
	SPLIT((R10), (R11), Y8, Y9)
	VMOVUPD      X6, (R12)
	VEXTRACTF128 $1, Y6, (R13)
	ADDQ         $32, R10
	ADDQ         $32, R11
	LEAQ         (R12)(R14*2), R12
	LEAQ         (R13)(R14*2), R13
	DECQ         AX
	JNZ          splitlane
	ADDQ         R9, DI
	ADDQ         $16, BX
	INCQ         CX
	CMPQ         CX, DX
	JLE          splitrow

splitdone:
	VZEROUPPER
	RET

// func mergeRowsAVX2(ztile *complex128, w, h int, spec *complex128, ss, sd int, tw *complex128)
//
// mergeLanes for lanes 0 … w&^1 − 1: tile row k < h of lane l, at
// ztile[k·w + l], from spectrum rows k and h − k of lane l, at
// spec[k·ss + l·sd] (each lane pair loaded as two 128-bit halves, sd elements
// apart), and conj(tw[k]). Per lane pair: S = A + conj(B), D = A − conj(B),
// E = HALF(S), O = HALF(D)·conj(tw[k]) (CMUL), out = E + (o·0 − p, p·0 + o)
// for O = (o, p). Y12 = (−0, 0, −0, 0) flips the real signs, Y11 all four.
// Requires w >= 2, h >= 1, h rows of w at ztile, h twiddles and every element
// k·ss + l·sd, k ≤ h, inside spec; the Go wrapper mergeRowsVec checks them.
TEXT ·mergeRowsAVX2(SB), NOSPLIT, $0-56
	MOVQ    ztile+0(FP), DI
	MOVQ    h+16(FP), CX
	MOVQ    spec+24(FP), SI
	MOVQ    ss+32(FP), R9
	MOVQ    sd+40(FP), R14
	MOVQ    tw+48(FP), BX
	SPLITCONST
	VMOVUPD signs<>+8(SB), Y12
	VXORPD  Y14, Y12, Y11
	SHLQ    $4, R9                    // spectrum row in bytes
	SHLQ    $4, R14                   // spectrum lane in bytes
	MOVQ    CX, R11
	IMULQ   R9, R11
	ADDQ    SI, R11                   // spectrum row h
	MOVQ    w+8(FP), R8
	ANDQ    $1, R8
	SHLQ    $4, R8                    // an odd last lane, left to the Go loop

mergerow:
	VBROADCASTSD (BX), Y8             // conj(tw[k])
	VBROADCASTSD 8(BX), Y9
	VXORPD       Y11, Y9, Y9
	MOVQ         SI, R12              // lane l of spectrum row k
	MOVQ         R11, R13             // lane l of spectrum row h − k
	MOVQ         w+8(FP), AX
	SHRQ         $1, AX               // lane pairs

mergelane:
	LANES2(R12, R14, Y2, X2)          // A
	LANES2(R13, R14, Y3, X3)          // B
	VXORPD    Y14, Y3, Y3             // conj(B)
	VADDPD    Y3, Y2, Y4              // S
	VSUBPD    Y3, Y2, Y5              // D
	HALF(Y4, Y6, Y6)                  // E
	HALF(Y5, Y7, Y7)                  // D/2
	CMUL(Y7, Y8, Y9, Y7)              // O
	VMULPD    Y15, Y7, Y10            // (o·0, p·0)
	VPERMILPD $5, Y7, Y7
	VXORPD    Y12, Y7, Y7             // (−p, o)
	VADDPD    Y7, Y10, Y10            // i·O
	VADDPD    Y10, Y6, Y6             // E + i·O
	VMOVUPD   Y6, (DI)
	ADDQ      $32, DI
	LEAQ      (R12)(R14*2), R12
	LEAQ      (R13)(R14*2), R13
	DECQ      AX
	JNZ       mergelane
	ADDQ      R8, DI                  // to tile row k+1
	ADDQ      R9, SI
	SUBQ      R9, R11
	ADDQ      $16, BX
	DECQ      CX
	JNZ       mergerow
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
