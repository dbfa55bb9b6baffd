package heffte

import "repro/internal/tuning"

// Tuning: the paper's Section IV methodology — rank candidate settings with
// the bandwidth model, then measure the most promising ones with the
// 2-warm-up + 8-transform protocol.

type (
	// TuneCandidate is one algorithm setting under consideration
	// (decomposition × backend × layout × all-to-all schedule).
	TuneCandidate = tuning.Candidate
	// TuneResult pairs a candidate with its model prediction and (when
	// measured) its simulated per-transform time.
	TuneResult = tuning.Result
	// TuneOptions controls the warm-up/measure protocol and how many
	// model-ranked candidates are actually simulated.
	TuneOptions = tuning.Options
)

// Tune is collective: every rank of c must call it with identical arguments.
// Results come back fastest first (measured, then predicted).
func Tune(c *Comm, cfg Config, cands []TuneCandidate, opts TuneOptions) ([]TuneResult, error) {
	return tuning.Tune(c, cfg, cands, opts)
}

// DefaultCandidates returns the sweep the paper tunes over: both
// decompositions, all exchange flavours of Table I, both data layouts.
func DefaultCandidates() []TuneCandidate { return tuning.DefaultCandidates() }

// Best returns the fastest measured result (or the best predicted one when
// nothing was measured).
func Best(results []TuneResult) TuneResult { return tuning.Best(results) }
