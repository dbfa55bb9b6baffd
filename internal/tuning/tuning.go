// Package tuning implements the paper's tuning methodology (Section IV):
// enumerate candidate algorithm settings (decomposition × exchange backend ×
// data layout), rank them with the bandwidth model of Section III, and
// optionally measure the most promising ones. Measure is the one
// implementation of the paper's measurement protocol ("the average runtime of
// 8 FFTs (4 forward and 4 backward), preceded by 2 FFTs to warm up the
// accelerators"); the tuner, every experiment of internal/bench and fftsim
// time their transforms with it.
package tuning

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/mpisim"
	"repro/internal/tensor"
)

// Candidate is one algorithm setting under consideration. The rest of the
// plan's options — grid shrinking, wire precision, chunking — come from the
// configuration the caller tunes.
type Candidate struct {
	Decomp     core.Decomposition
	Backend    core.Backend
	Contiguous bool
	// Algo selects the all-to-all schedule of the Alltoallv backend
	// (CollAuto lets each reshape phase pick the schedule the simulator
	// prices cheapest).
	// Ignored by the other backends.
	Algo core.CollAlgo
}

func (c Candidate) String() string {
	s := fmt.Sprintf("%v+%v", c.Decomp, c.Backend)
	if c.Contiguous {
		s += "+contiguous"
	}
	if c.Backend == core.BackendAlltoallv && c.Algo != core.CollAuto {
		s += "+" + c.Algo.String()
	}
	return s
}

// Result pairs a candidate with its model prediction and (if measured) its
// simulated runtime.
type Result struct {
	Candidate
	PredictedSec float64 // bandwidth-model communication estimate
	MeasuredSec  float64 // simulated per-transform time; 0 if not measured
}

// DefaultCandidates returns the sweep the paper tunes over: both
// decompositions, all exchange flavours of Table I, both data layouts — and,
// for the Alltoallv backend, each of the selectable collective schedules
// (auto plus the three forced algorithms), since algorithm choice is part of
// the tuning space of a collective-optimized FFT.
func DefaultCandidates() []Candidate {
	var out []Candidate
	for _, d := range []core.Decomposition{core.DecompSlabs, core.DecompPencils} {
		for _, b := range []core.Backend{
			core.BackendAlltoall, core.BackendAlltoallv, core.BackendAlltoallw,
			core.BackendP2P, core.BackendP2PBlocking,
		} {
			algos := []core.CollAlgo{core.CollAuto}
			if b == core.BackendAlltoallv {
				algos = append(algos, core.CollPairwise, core.CollRing, core.CollBruck, core.CollNodeAware)
			}
			for _, contig := range []bool{false, true} {
				for _, a := range algos {
					out = append(out, Candidate{Decomp: d, Backend: b, Contiguous: contig, Algo: a})
				}
			}
		}
	}
	return out
}

// Predict evaluates the bandwidth model for a candidate on the given
// machine/job geometry, returning the estimated communication time of one
// transform. The decomposition selects the closed-form model; a forced
// collective schedule on the Alltoallv backend scales the estimate by what the
// simulator charges that schedule relative to the cheapest one on a
// representative pencil-row exchange, so deliberately mismatched algorithms
// (Bruck on bandwidth-bound shapes, pairwise on sparse ones) rank — and get
// measured — after the promising ones. Other backends are differentiated by
// measurement. Exchanges are priced at full precision.
func Predict(c *mpisim.Comm, global [3]int, cand Candidate) float64 {
	m := c.Model()
	params := model.Params{Latency: m.InterLatency, Bandwidth: m.NodeInjectionBW}
	n := global[0] * global[1] * global[2]
	pi := c.Size()
	pg, qg := tensor.Square2D(pi)
	var t float64
	switch cand.Decomp {
	case core.DecompSlabs:
		t = model.SlabTimeElem(n, pi, 16, params)
	default:
		t = model.PencilTimeElem(n, pg, qg, 16, params)
	}
	if cand.Backend == core.BackendAlltoallv && cand.Algo != core.CollAuto {
		gs := qg
		if pg > gs {
			gs = pg
		}
		t *= algoFactor(c, n, gs, cand.Algo)
	}
	// Integrity overhead: with transport checksums enabled, every reshape
	// pays one envelope-compute pass over the sent bytes and one verify pass
	// over the received bytes. The term rides on top of the bandwidth model
	// so candidate rankings reflect the integrity tax the simulator charges.
	if c.Integrity().Checksums {
		bw, oh := m.GPU.ChecksumRate()
		perRank := 16 * float64(n) / float64(pi)
		reshapes := 3.0
		if cand.Decomp == core.DecompSlabs {
			reshapes = 2
		}
		t += reshapes * (2*oh + 2*perRank/bw)
	}
	return t
}

// algoFactor is what the simulator charges a forced schedule relative to the
// cheapest schedule on a dense pencil-row exchange of the given problem — the
// first gs ranks of c trading uniform blocks (≥ 1; 1 for the schedule that
// wins there).
func algoFactor(c *mpisim.Comm, n, gs int, algo core.CollAlgo) float64 {
	if gs <= 1 {
		return 1
	}
	bytes := 16 * n / (c.Size() * gs)
	rows := make([][]mpisim.Flow, gs)
	for r := range rows {
		for d := 0; d < gs; d++ {
			if d != r {
				rows[r] = append(rows[r], mpisim.Flow{Dst: d, Bytes: bytes})
			}
		}
	}
	forced := mpisim.AlgoLinear
	switch algo {
	case core.CollPairwise:
		forced = mpisim.AlgoPairwise
	case core.CollRing:
		forced = mpisim.AlgoRing
	case core.CollBruck:
		forced = mpisim.AlgoBruck
	case core.CollNodeAware:
		forced = mpisim.AlgoNodeAware
	}
	var t, best float64
	for _, a := range mpisim.Algos() {
		p := c.PriceAlltoallv(rows, a)
		if a == forced {
			t = p
		}
		if best == 0 || p < best {
			best = p
		}
	}
	return t / best
}

// Options controls a tuning run.
type Options struct {
	// Measure caps how many model-ranked candidates are actually simulated;
	// 0 measures all.
	Measure int
}

// Tune is collective: every rank of c must call it with identical arguments.
// It returns the candidates sorted by measured (then predicted) time,
// fastest first. Each measured time is Measure's time per transform over the
// paper's 8 timed transforms.
func Tune(c *mpisim.Comm, cfg core.Config, cands []Candidate, opts Options) ([]Result, error) {
	if len(cands) == 0 {
		return nil, fmt.Errorf("tuning: no candidates")
	}

	results := make([]Result, len(cands))
	for i, cand := range cands {
		results[i] = Result{Candidate: cand, PredictedSec: Predict(c, cfg.Global, cand)}
	}
	// Rank by prediction; measure the top ones. The order is identical on
	// every rank because predictions are pure functions of shared inputs.
	order := make([]int, len(results))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return results[order[a]].PredictedSec < results[order[b]].PredictedSec
	})
	nMeasure := len(order)
	if opts.Measure > 0 && opts.Measure < nMeasure {
		nMeasure = opts.Measure
	}

	for k := 0; k < nMeasure; k++ {
		idx := order[k]
		cand := results[idx].Candidate
		planCfg := cfg
		planCfg.Opts.Decomp = cand.Decomp
		planCfg.Opts.Backend = cand.Backend
		planCfg.Opts.Contiguous = cand.Contiguous
		planCfg.Opts.Comm.Algo = cand.Algo
		p, err := core.NewPlan(c, planCfg)
		if err != nil {
			return nil, err
		}
		_, _, dt, err := Measure(c, p, 1, Timed)
		if err != nil {
			return nil, err
		}
		results[idx].MeasuredSec = dt
	}

	sort.SliceStable(results, func(a, b int) bool {
		ma, mb := results[a].MeasuredSec, results[b].MeasuredSec
		switch {
		case ma > 0 && mb > 0:
			return ma < mb
		case ma > 0:
			return true
		case mb > 0:
			return false
		default:
			return results[a].PredictedSec < results[b].PredictedSec
		}
	})
	return results, nil
}

// The paper's protocol: 2 warm-up transforms, then 8 timed ones.
const (
	warmups = 2
	// Timed is the paper's timed transform count: 4 forward, 4 backward.
	Timed = 8
)

// Measure runs the paper's measurement protocol on p, a plan over c:
// 2 warm-up forward transforms and a barrier, then count timed transforms —
// the first half forward, the rest inverse — closed by a barrier. Every
// transform is one batched call over batch fresh phantom fields (timing is
// that of real payloads, a tested property). It returns the virtual time the
// timed section starts, this rank's clock when its last transform returns
// (before the closing barrier, so the rank that finishes last can be found)
// and the time per transform, barrier to barrier. Collective: every rank of
// c calls it with the same arguments.
func Measure(c *mpisim.Comm, p *core.Plan, batch, count int) (start, end, per float64, err error) {
	run := func(n int, exec func([]*core.Field) error) error {
		for i := 0; i < n; i++ {
			fs := make([]*core.Field, batch)
			for j := range fs {
				fs[j] = core.NewPhantom(p.InBox())
			}
			if err := exec(fs); err != nil {
				return err
			}
		}
		return nil
	}
	if err := run(warmups, p.ForwardBatch); err != nil {
		return 0, 0, 0, err
	}
	c.Barrier()
	start = c.Clock()
	if err := run(count/2, p.ForwardBatch); err != nil {
		return 0, 0, 0, err
	}
	if err := run(count-count/2, p.InverseBatch); err != nil {
		return 0, 0, 0, err
	}
	end = c.Clock()
	c.Barrier()
	return start, end, (c.Clock() - start) / float64(count), nil
}
