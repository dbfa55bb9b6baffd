package core

import "repro/internal/fft"

// Pipelined execution: the entryAsync policy of the stage runner, exposed so
// the two batching strategies can be compared (TestPipelinedOverlapsCompute
// holds it below sequential). checkConfig holds the rules: a backend with a
// non-blocking all-to-all, one unchunked message per entry, no checkpoints.

// ForwardPipelined transforms a batch with per-entry asynchronous exchanges.
func (p *Plan) ForwardPipelined(fields []*Field) error {
	return p.runPipelined(fields, fft.Forward)
}

// InversePipelined is the inverse-direction pipelined batch.
func (p *Plan) InversePipelined(fields []*Field) error {
	return p.runPipelined(fields, fft.Inverse)
}

func (p *Plan) runPipelined(fields []*Field, dir fft.Direction) error {
	if err := checkConfig(p.global, p.opts, pipelined); err != nil {
		return err
	}
	return p.run(p.stages, &batch{fields: fields}, dir, 0, entryAsync)
}
