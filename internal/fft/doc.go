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
//     twiddled pass to store into the caller's array.
//   - Radix-4 passes (kernel.go): every power of two from 8 up runs an
//     iterative decimation-in-time transform whose radix-2 stages are fused
//     in pairs, so one sweep over memory does the work of two textbook
//     stages; odd log2(n) gets a single twiddle-free radix-2 fix-up.
//     Twiddles are stored per pass as (t1,t2,t3) triples in consumption
//     order, the cache-friendly analogue of cuFFT's per-stage twiddle
//     layout. The input permutation is fused into the first stage's gather
//     (ping-ponging through a pooled buffer), and the inverse 1/N scaling is
//     fused into the final pass — no standalone bit-reversal or scaling
//     sweeps remain.
//   - Vector passes (radix4_amd64.s): on amd64 CPUs with AVX2 the twiddled
//     radix-4 passes run in assembly: radix4AVX2 along a line, two
//     butterflies per iteration, and pairsRowsAVX2, quadsRowsAVX2 and
//     radix4RowsAVX2 across the rows of a group of lines, two lines per
//     iteration — one 256-bit load or store when the lines are adjacent, two
//     128-bit halves when they are a lane stride apart. The Go loops in kernel.go and rows.go are their
//     executable specification and the implementation on every other GOARCH,
//     on CPUs without AVX2 and in race builds (the detector cannot see
//     assembly loads and stores). The routines issue the same IEEE
//     multiplies, adds and subtracts in the same association and never a
//     fused multiply-add — an FMA rounds once where the reference rounds
//     twice, which would move every payload bit and the golden fingerprints
//     of internal/core — so the two agree bit for bit. The choice is made
//     once at package init from CPUID/XGETBV: a property of the machine,
//     with nothing to set.
//   - Bluestein (fft.go): arbitrary lengths run the chirp-z algorithm over a
//     power-of-two sub-plan, with the 1/N of the inverse folded into the
//     output chirp multiply.
//   - Advanced layouts (blocked.go): TransformBatch takes cuFFT's advanced
//     (stride, dist, batch) layout; TransformNested takes the two-level
//     howmany_dims shape of FFTW's guru interface, which lets the middle-axis
//     pass of a 3-D transform run as one batched call. Batches execute a
//     group of lines at a time through a pooled L1-sized tile. For a power
//     of two from 8 up, element i of line l of a group sits at
//     data[i·pitch + l·lane]; where the lines are nested — adjacent strided
//     lines (pitch = stride, lane = 1: every strided layout of
//     Transform2D/3D and internal/core) or contiguous ones (pitch = 1,
//     lane = dist: the unit-stride axis) — the group is n rows of w lanes
//     and the butterflies run across the rows (rows.go): the first stage
//     reads the caller's lanes through the bit-reversal table into the
//     packed tile, the last pass stores back into the caller's array, each
//     element is read once and written once and nothing is transposed.
//     Bluestein lengths, the codelet lengths and lines that are not nested
//     run line by line — strided ones transposed into the tile and back, the
//     buffered strided execution FFTW applies when stride != 1 — and so does
//     the odd line a group leaves. Which way a group runs is a function of
//     its layout and the plan only; a line carries the same bits either way.
//     Layouts any two of whose lines share an element are rejected before
//     any line runs.
//   - Real transforms (real.go): RealPlan implements the D2Z/Z2D half-spectrum
//     layout with the two-for-one packing trick, including batched advanced
//     layouts on both sides (ForwardBatch/InverseBatch). Unit-stride real
//     lines at an even distance run a group at a time across rows: a real
//     line read as complex values is the packed half-length line, so the
//     half-length transform runs across rows on the caller's array and the
//     even/odd split (forward) or merge (inverse) runs across lanes. Strided
//     real lines, Bluestein and codelet half lengths and an odd last line
//     run line by line, and so does any group in which a value comes out
//     NaN or infinite, so every line carries the per-line path's bits. Layouts whose
//     written lines share an element are rejected.
//
// The package starts no goroutine: a batch runs on the goroutine that calls
// it, and the simulator's rank goroutines are the only parallelism. Plans are
// cached in a bounded LRU and are safe for concurrent use by those ranks; all
// steady-state execution paths of this package draw scratch from pools and
// allocate nothing.
package fft
