package main

import "time"

// The host-speed probe. This container's CPUs speed up and slow down by
// ±15–20 % — at times 2× — for tens of seconds to minutes at a stretch
// (co-tenants, clocks): longer than a run, so no amount of in-run averaging
// steadies a raw host time. Ten identical runs of one workload spread 12–45 %
// raw (quartile distance over median). The harness therefore times a fixed
// kernel of its own next to the work — after every timed iteration on rank 0
// while the other ranks are parked in a barrier, every 100 ms beside the
// serving loop, three times after every set-up — and reports the bounded
// end-to-end host metrics at reference host speed: every timed iteration (or
// 100 ms slice of the serving loop) counts as
//
//	measured × refNominalSec ÷ median of the four probes around it
//
// (atRefSpeed). The same runs then spread 2–5 %, 4–12 % on the
// rendezvous-bound scale512_r768_phantom, whose slow-downs the probe's
// arithmetic and copying track least well. The probe belongs to the
// harness, calls nothing in the repository, and must never change: it is the
// unit the bounded host metrics are expressed in. The untraced run prints the
// raw values beside the table, and the traced run reports the probe's time
// and raw host numbers (host.*); per-layer host rows are always raw.

// refNominalSec is the probe's time on the reference container (2-core Xeon
// 2.10 GHz) in its fast state.
const refNominalSec = 2.5e-3

var (
	refBfly = make([]complex128, 1<<12) // 64 KB: cache-resident butterflies
	refSrc  = make([]complex128, 1<<18) // 4 MB each: a streaming copy
	refDst  = make([]complex128, 1<<18)
)

// refKernel is a fixed mix of floating-point butterflies over a
// cache-resident array and a copy through memory — the two things the FFT
// kernels and pack/unpack spend their time on.
func refKernel() {
	n := len(refBfly)
	for rep := 0; rep < 20; rep++ {
		for i := range refBfly {
			refBfly[i] = complex(float64(i&15), 1)
		}
		for half := 1; half < n; half <<= 1 {
			w := complex(0.6, 0.8)
			for i := 0; i < n; i += 2 * half {
				for j := i; j < i+half; j++ {
					u, v := refBfly[j], refBfly[j+half]*w
					refBfly[j], refBfly[j+half] = u+v, u-v
				}
			}
		}
	}
	copy(refDst, refSrc)
	copy(refSrc, refDst)
}

// refSample times one probe, in seconds.
func refSample() float64 {
	t0 := time.Now()
	refKernel()
	return time.Since(t0).Seconds()
}

// refMedian is the median of n back-to-back probes.
func refMedian(n int) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = refSample()
	}
	return median(xs)
}

// speedFactor converts a host time measured while the probe took refSec into
// the time at reference host speed.
func speedFactor(refSec float64) float64 { return refNominalSec / refSec }

// atRefSpeed converts host durations into durations at reference host speed,
// each by the probes taken around it: dur[i] lies between probe[i-1] and
// probe[i], and is scaled by the median of probe[i-2 … i+1] (the median
// irons out a single disturbed probe, the window follows a host that changes
// speed in the middle of a run).
func atRefSpeed(dur, probe []float64) []float64 {
	out := make([]float64, len(dur))
	for i, d := range dur {
		lo, hi := max(0, i-2), min(len(probe), i+2)
		out[i] = d * speedFactor(median(probe[lo:hi]))
	}
	return out
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
