//go:build !race

#include "textflag.h"

// func copyRunsSSE2(dst, src unsafe.Pointer, rows, run, dstStride, srcStride int)
//
// Copies rows runs of run bytes (a multiple of 8) from src to dst, run i
// starting i·srcStride bytes after src and i·dstStride bytes after dst. Each
// run moves in 64-byte steps of four unaligned 16-byte SSE2 loads and stores,
// then 16 bytes at a time, then the last 8 bytes, if any, through a general
// register: plain loads and stores, so every bit arrives as it left. Runs are
// copied forward only; the two placements must not share memory.
TEXT ·copyRunsSSE2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), CX
	MOVQ run+24(FP), DX
	MOVQ dstStride+32(FP), R8
	MOVQ srcStride+40(FP), R9
	TESTQ CX, CX
	JLE  done

row:
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
	JZ    next
	MOVQ  (SI)(AX*1), R10
	MOVQ  R10, (DI)(AX*1)

next:
	ADDQ R8, DI
	ADDQ R9, SI
	DECQ CX
	JNZ  row

done:
	RET
