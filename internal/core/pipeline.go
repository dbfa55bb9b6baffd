package core

import "repro/internal/fft"

// Pipelined execution: the entryAsync policy of the stage runner, exposed so
// the two batching strategies can be compared (the `async` ablation
// experiment). Requires the Alltoallv backend (the only one with a
// non-blocking variant, mirroring MPI_Ialltoallv); explicit chunking and
// checkpoints do not compose with per-entry exchanges and are rejected with
// ErrBadConfig.

// ForwardPipelined transforms a batch with per-entry asynchronous exchanges.
func (p *Plan) ForwardPipelined(fields []*Field) error {
	return p.run(p.stages, &batch{fields: fields}, fft.Forward, 0, entryAsync)
}

// InversePipelined is the inverse-direction pipelined batch.
func (p *Plan) InversePipelined(fields []*Field) error {
	return p.run(p.stages, &batch{fields: fields}, fft.Inverse, 0, entryAsync)
}
