//go:build !race

#include "textflag.h"

// func copyBlockSSE2(dst, src unsafe.Pointer, rows, n1, run, dst0, dst1, src0, src1, ahead int)
//
// Copies a block of rows runs of run bytes (a multiple of 8) from src to dst,
// n1 runs to a plane: within a plane consecutive runs start dst1 bytes apart
// in dst and src1 in src, and consecutive planes dst0 and src0 apart. Each run
// moves in 64-byte steps of four unaligned 16-byte SSE2 loads and stores, then
// 16 bytes at a time, then the last 8 bytes, if any, through a general
// register: plain loads and stores, so every bit arrives as it left. Runs are
// copied forward only; the two placements must not share memory.
//
// The runs of a reshape lie on cold lines of both arrays, so the copy waits
// on memory, one miss at a time, unless the misses are issued ahead. Unless
// ahead is 0, a second cursor walks the same (plane, run) sequence ahead runs
// in front of the copy and issues PREFETCHT0 for every 64-byte line of the
// source run and of the destination run, and for each run's last byte. The
// first ahead runs are prefetched before the first copy; the cursor stops at
// the block's last run, so it names no byte outside the block.
TEXT ·copyBlockSSE2(SB), NOSPLIT, $0-80
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n1+24(FP), CX    // runs left in the copy's plane
	MOVQ run+32(FP), DX
	MOVQ dst1+48(FP), R8
	MOVQ src1+64(FP), R9
	MOVQ rows+16(FP), R10
	ADDQ ahead+72(FP), R10 // steps left: ahead that only prefetch, then one per run
	MOVQ DI, R11           // the prefetch cursor
	MOVQ SI, R12
	MOVQ CX, R13           // runs left in the prefetch cursor's plane

step:
	// No prefetch if ahead is 0, nor in the last ahead steps: no run is left.
	MOVQ  ahead+72(FP), AX
	TESTQ AX, AX
	JZ    copy
	CMPQ  R10, AX
	JBE   copy
	XORQ  AX, AX

lines:
	PREFETCHT0 (R11)(AX*1)
	PREFETCHT0 (R12)(AX*1)
	ADDQ       $64, AX
	CMPQ       AX, DX
	JB         lines
	PREFETCHT0 -1(R11)(DX*1)
	PREFETCHT0 -1(R12)(DX*1)
	ADDQ       R8, R11
	ADDQ       R9, R12
	DECQ       R13
	JNZ        copy

	// Next plane: back over its n1 runs, on by one plane.
	MOVQ  n1+24(FP), R13
	MOVQ  R13, AX
	IMULQ R8, AX
	SUBQ  AX, R11
	ADDQ  dst0+40(FP), R11
	MOVQ  R13, AX
	IMULQ R9, AX
	SUBQ  AX, R12
	ADDQ  src0+56(FP), R12

copy:
	// The first ahead steps only prefetch.
	CMPQ R10, rows+16(FP)
	JA   next
	XORQ AX, AX // offset into the run
	MOVQ DX, BX // bytes left in the run
	CMPQ BX, $64
	JB   by16

by64:
	MOVOU (SI)(AX*1), X0
	MOVOU 16(SI)(AX*1), X1
	MOVOU 32(SI)(AX*1), X2
	MOVOU 48(SI)(AX*1), X3
	MOVOU X0, (DI)(AX*1)
	MOVOU X1, 16(DI)(AX*1)
	MOVOU X2, 32(DI)(AX*1)
	MOVOU X3, 48(DI)(AX*1)
	ADDQ  $64, AX
	SUBQ  $64, BX
	CMPQ  BX, $64
	JAE   by64

by16:
	CMPQ  BX, $16
	JB    by8
	MOVOU (SI)(AX*1), X0
	MOVOU X0, (DI)(AX*1)
	ADDQ  $16, AX
	SUBQ  $16, BX
	JMP   by16

by8:
	TESTQ BX, BX
	JZ    advance
	MOVQ  (SI)(AX*1), BX
	MOVQ  BX, (DI)(AX*1)

advance:
	ADDQ R8, DI
	ADDQ R9, SI
	DECQ CX
	JNZ  next

	// Next plane, as for the prefetch cursor.
	MOVQ  n1+24(FP), CX
	MOVQ  CX, AX
	IMULQ R8, AX
	SUBQ  AX, DI
	ADDQ  dst0+40(FP), DI
	MOVQ  CX, AX
	IMULQ R9, AX
	SUBQ  AX, SI
	ADDQ  src0+56(FP), SI

next:
	DECQ R10
	JNZ  step
	RET
