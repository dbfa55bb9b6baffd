package bench

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mpisim"
)

func init() {
	register(Experiment{
		ID: "precision",
		Title: "Reduced-precision wire exchange: fp32/fp16 compressed all-to-all on the staged " +
			"(non-GPU-aware) path — speedup vs fp64 and measured accuracy vs the analytic bound",
		Run: runPrecisionExp,
	})
}

// peakRelError returns the peak-normalized maximum component error of got vs
// want: max|Δ| over both components, divided by the peak component magnitude
// of want. Peak normalization is the FFT-native metric — absolute error of a
// compressed transform scales with the spectrum's peak, not element-wise.
func peakRelError(got, want [][]complex128) float64 {
	var maxDiff, peak float64
	for r := range want {
		g, w := got[r], want[r]
		for i := range w {
			maxDiff = math.Max(maxDiff, math.Abs(real(g[i])-real(w[i])))
			maxDiff = math.Max(maxDiff, math.Abs(imag(g[i])-imag(w[i])))
			peak = math.Max(peak, math.Abs(real(w[i])))
			peak = math.Max(peak, math.Abs(imag(w[i])))
		}
	}
	if peak == 0 {
		return 0
	}
	return maxDiff / peak
}

// runPrecisionExp returns the accuracy-vs-speed table of the wire-compression
// layer: per grid, the staged Forward time at each wire precision and its
// speedup over fp64, then — on the largest grid — the measured peak-normalized
// error of the compressed transforms against the fp64 oracle next to the
// analytic WireErrorBound.
func runPrecisionExp() (Result, error) {
	ranks, pg, qg := 64, 8, 8
	grids := [][3]int{{64, 64, 64}, {128, 128, 128}, {256, 256, 256}}
	errGrid := [3]int{256, 256, 256}
	wires := []core.WirePrecision{core.WireFp64, core.WireFp32, core.WireFp16}

	// forward runs one staged (non-GPU-aware) Forward under a wire precision
	// and returns the virtual runtime, the analytic error bound of the plan's
	// compressed exchanges, and — with a seed — every rank's output data. The
	// shape is the compression layer's home regime: pencil-native input/output
	// (no brick↔pencil edge reshapes, which always ship fp64), so both
	// remaining exchanges are interior and compressed, and staging through the
	// host prices the PCIe round trip on the same wire bytes — shrinking the
	// payload shrinks both legs.
	forward := func(grid [3]int, wire core.WirePrecision, seed int64) (t, bound float64, outs [][]complex128, err error) {
		outs = make([][]complex128, ranks)
		t, err = forwardOnce(mpisim.NewWorld(machine.Summit(), ranks, mpisim.Options{GPUAware: false}), core.Config{
			Global:   grid,
			InBoxes:  core.PencilBoxes(grid, 0, pg, qg),
			OutBoxes: core.PencilBoxes(grid, 2, pg, qg),
			Opts: core.Options{
				Backend: core.BackendAlltoallv,
				Decomp:  core.DecompPencils,
				PQ:      [2]int{pg, qg},
				Comm:    core.CommConfig{Wire: wire},
			},
		}, seed, func(rank int, p *core.Plan, f *core.Field) {
			outs[rank] = f.Data
			if rank == 0 {
				bound = p.WireBound()
			}
		})
		return t, bound, outs, err
	}
	const realSeed = 577

	speed := Section{
		Lead: []string{fmt.Sprintf("Staged exchange (Summit, %d ranks as %d×%d pencils, pencil-native I/O, no GPU-aware MPI, phantom payloads):",
			ranks, pg, qg)},
		Header: []string{"grid", "fp64", "fp32", "fp16", "fp32 speedup", "fp16 speedup"},
	}
	for _, g := range grids {
		var times [3]float64
		for i, wp := range wires {
			t, _, _, err := forward(g, wp, phantom)
			if err != nil {
				return Result{}, err
			}
			times[i] = t
		}
		speed.Rows = append(speed.Rows, []Cell{label(fmt.Sprintf("%d³", g[0])),
			micros(times[0]), micros(times[1]), micros(times[2]),
			num(times[0]/times[1], "%.2f×"), num(times[0]/times[2], "%.2f×")})
	}

	_, _, oracle, err := forward(errGrid, core.WireFp64, realSeed)
	if err != nil {
		return Result{}, err
	}
	accuracy := Section{
		Lead:   []string{"", fmt.Sprintf("Accuracy vs the fp64 oracle (%d³, real payloads):", errGrid[0])},
		Header: []string{"wire", "max rel error", "analytic bound"},
	}
	for _, wp := range wires[1:] {
		_, bound, got, err := forward(errGrid, wp, realSeed)
		if err != nil {
			return Result{}, err
		}
		accuracy.Rows = append(accuracy.Rows, []Cell{label(wp.String()), num(peakRelError(got, oracle), "%.2e"), num(bound, "%.2e")})
	}
	accuracy.Notes = []string{
		"",
		"fp32 wire halves every interior exchange (wire bytes AND both PCIe staging",
		"legs) for ~1e-7 error — free accuracy for bandwidth-bound shapes. fp16",
		"quarters the bytes at ~1e-3; use it only under an explicit accuracy budget.",
	}
	return Result{Sections: []Section{speed, accuracy}}, nil
}
