package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mpisim"
)

func init() {
	register(Experiment{
		ID: "r2c",
		Title: "Real-to-complex vs complex-to-complex transforms: the half-bandwidth advantage " +
			"(AccFFT-style R2C workloads)",
		Run: runR2C,
	})
}

func runR2C() (Result, error) {
	ranks := 96
	sizes := [][3]int{{256, 256, 256}, {512, 512, 512}}
	// perTransform runs two forward transforms per rank and returns the
	// makespan of one.
	perTransform := func(forward func(c *mpisim.Comm) error) float64 {
		world := mpisim.NewWorld(machine.Summit(), ranks, mpisim.Options{GPUAware: true})
		return world.Run(func(c *mpisim.Comm) {
			if err := forward(c); err != nil {
				panic(err)
			}
		}).MaxClock / 2
	}
	s := Section{Header: []string{"grid", "C2C/transform", "R2C/transform", "R2C saving"}}
	for _, global := range sizes {
		c2c := perTransform(func(c *mpisim.Comm) error {
			p, err := core.NewPlan(c, core.Config{Global: global,
				Opts: core.Options{Decomp: core.DecompPencils, Backend: core.BackendAlltoallv}})
			for i := 0; i < 2 && err == nil; i++ {
				err = p.Forward(core.NewPhantom(p.InBox()))
			}
			return err
		})
		r2c := perTransform(func(c *mpisim.Comm) error {
			p, err := core.NewRealPlan(c, core.RealConfig{Global: global,
				Opts: core.Options{Backend: core.BackendAlltoallv}})
			for i := 0; i < 2 && err == nil; i++ {
				_, err = p.Forward(core.NewRealPhantom(p.InBox()))
			}
			return err
		})
		s.Rows = append(s.Rows, []Cell{label(fmt.Sprintf("%d³", global[0])), secs(c2c), secs(r2c), pct(1 - r2c/c2c)})
	}
	s.Notes = []string{"shape (asserted): R2C saves 40–50% at both grids — half-byte input reshape + half-volume spectrum"}
	return Result{Sections: []Section{s}}, nil
}
