// Package fft implements serial fast Fourier transforms used as the local
// (single-device) kernel of the distributed transforms in internal/core.
//
// It plays the role cuFFT, rocFFT and FFTW play in the paper: the distributed
// layer calls into it for batches of 1-D, 2-D and 3-D complex-to-complex and
// real-to-complex transforms over contiguous or strided data. All numerics
// are specified by Go code; the *cost* of these kernels on a GPU is modelled
// separately by internal/gpu, so rewriting this engine changes host
// wall-clock only — virtual-time results are untouched.
//
// # Engine structure, in FFTW/cuFFT vocabulary
//
//   - Codelets (codelet.go): lengths n <= 4 are unrolled straight-line
//     transforms — FFTW's "codelet" leaves — with no bit-reversal pass and no
//     tables. They are the lengths the radix-4 engine cannot take: it needs a
//     twiddled pass to store into the caller's array. A batch gathers each
//     line into a 4-element array, transforms it and scatters it back.
//   - One power-of-two engine (kernel.go, rows.go): every power of two from 8
//     up runs an iterative decimation-in-time transform whose radix-2 stages
//     are fused in pairs, so one sweep over memory does the work of two
//     textbook stages; odd log2(n) gets a single twiddle-free radix-2 fix-up.
//     Twiddles are stored per pass as (t1,t2,t3) triples in consumption
//     order, the cache-friendly analogue of cuFFT's per-stage twiddle
//     layout. The engine runs a group of lines at a time across rows, like
//     one batched cuFFT call: element i of line l sits at
//     data[i·pitch + l·lane], and the butterflies run across the n rows of w
//     lanes. The first stage reads the caller's rows through the
//     bit-reversal table into a pooled L1-sized tile, the middle passes run
//     in the tile, and the last pass stores back into the caller's array
//     with the inverse 1/N folded in — each element read once and written
//     once, nothing transposed, no standalone bit-reversal or scaling sweep.
//     A line on its own is a group of two lanes that are the same line
//     (lane 0): both read the same elements and store the same bits.
//   - Vector routines (radix4_amd64.s): on amd64 CPUs with AVX2 the row
//     engine's first stages and twiddled pass run in pairsRowsAVX2,
//     quadsRowsAVX2 and radix4RowsAVX2, two lanes per iteration — one
//     256-bit load or store when the lanes are adjacent, two 128-bit halves
//     when they are a lane stride apart or the same element — and so do the
//     real transform's even/odd split and merge, splitRowsAVX2 and
//     mergeRowsAVX2. Where the CPU also has AVX-512F and the OS saves the
//     ZMM state, a group whose rows hold a whole ZMM (w >= 4) runs in
//     pairsRowsAVX512, quadsRowsAVX512 and radix4RowsAVX512 instead: four
//     lanes per register, as one 512-bit access or four 128-bit pieces, and
//     a row's last two lanes, when w is 2 modulo 4, in one two-lane step. A
//     group of two lanes has no four-lane step and stays on AVX2. AVX-512
//     has no VADDSUBPD, so its complex product adds the product with the
//     twiddle's imaginary part broadcast with its real slots negated —
//     ar·tr + ai·(−ti), which is ar·tr − ai·ti bit for bit. The Go loops in
//     rows.go and real.go are the executable specification of all of them
//     and the implementation on every other GOARCH, on CPUs without AVX2 and
//     in race builds (the detector cannot see assembly loads and stores).
//     The routines issue the same IEEE multiplies, adds and subtracts in the
//     same association and never a fused multiply-add — an FMA rounds once
//     where the reference rounds twice, which would move every payload bit
//     and the golden fingerprints of internal/core — so all agree bit for
//     bit. The choice is made once at package init from CPUID/XGETBV: a
//     property of the machine, with nothing to set.
//   - Bluestein (fft.go): arbitrary lengths run the chirp-z algorithm over a
//     power-of-two sub-plan, with the 1/N of the inverse folded into the
//     output chirp multiply. A group of chirped lines is the lanes of the
//     convolution buffer, m rows of w lanes, so both sub-transforms run
//     across its rows; an odd last line is a group of its own.
//   - Advanced layouts (blocked.go): TransformBatch takes cuFFT's advanced
//     (stride, dist, batch) layout; TransformNested takes the two-level
//     howmany_dims shape of FFTW's guru interface, which lets the middle-axis
//     pass of a 3-D transform run as one batched call. Where the lines of a
//     b1 group are nested — adjacent strided lines (pitch = stride, lane = 1:
//     every strided layout of Transform2D/3D and internal/core) or contiguous
//     ones (pitch = 1, lane = dist: the unit-stride axis) — an even number of
//     them at a time is one row group. The odd line each b1 group of a
//     nested layout leaves (the only one when batch2 is 1) sits dist1 from
//     the next group's, so those lines run as one more sweep across rows at
//     lane dist1 where they nest. Any other line — an odd one left over, or
//     a line of a layout whose lines do not nest — runs alone, in place at
//     pitch = stride. Which way a line runs is a function of its layout and
//     the plan only; it carries the same bits either way. Layouts any two of
//     whose lines share an element are rejected before any line runs.
//   - Real transforms (real.go): RealPlan implements the D2Z/Z2D half-spectrum
//     layout with the two-for-one packing trick, including batched advanced
//     layouts on both sides (ForwardBatch/InverseBatch). Unit-stride real
//     lines at an even distance run a group at a time across rows: a real
//     line read as complex values is the packed half-length line, so the
//     half-length transform runs across rows on the caller's array and the
//     even/odd split (forward) or merge (inverse) runs across lanes. Strided
//     real lines, Bluestein and codelet half lengths and an odd last line
//     run line by line through the same half-length engine and the same
//     split and merge with one lane, so every line carries the same bits. A NaN or an infinity propagates as
//     IEEE arithmetic has it, without C99 Annex G's infinity recovery, and so
//     does an intermediate that overflows: a finite spectrum whose sum
//     overflows can merge to NaN where Go's complex division gives an
//     infinity. Which NaN payload survives is not part of the contract. Layouts whose
//     written lines share an element are rejected.
//
// The package starts no goroutine: a batch runs on the goroutine that calls
// it, and the simulator's rank goroutines are the only parallelism. Plans are
// cached in a bounded LRU and are safe for concurrent use by those ranks; all
// steady-state execution paths of this package draw their tiles from pools
// and allocate nothing.
package fft
