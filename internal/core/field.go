package core

import (
	"math/rand"

	"repro/internal/tensor"
)

// Field is one rank's share of a distributed 3-D array. Data lives on the
// device (all paper experiments are GPU-resident). A phantom field carries
// only its box: plans execute the full communication schedule with identical
// virtual timings but move no real bytes.
//
// Transforms are in place in the field, not in the array: a plan with reshapes
// re-points Box and Data at an array of its own over the new distribution.
// That array is valid until the field's next transform — read it, write into
// it, but copy out what must outlive that: the plan that produced it takes it
// back when it is handed the field again, and lends it to the other ranks
// (which is why an in-place Forward/Inverse loop allocates nothing). An array
// the caller installs (f.Data = mine) stays the caller's: it is read, and
// transformed in place by compute stages ahead of the first reshape, only
// until the call returns, and it is never pooled. A transform that fails
// leaves the fields it had re-pointed without data.
type Field struct {
	Box  tensor.Box3
	Data []complex128 // nil for phantom fields
}

// NewField allocates a zero-valued field covering the box.
func NewField(b tensor.Box3) *Field {
	return &Field{Box: b, Data: make([]complex128, b.Volume())}
}

// NewPhantom returns a size-only field covering the box.
func NewPhantom(b tensor.Box3) *Field {
	return &Field{Box: b}
}

// Phantom reports whether the field carries no real data.
func (f *Field) Phantom() bool { return f.Data == nil }

// FillRandom fills a real field with a reproducible random signal.
func (f *Field) FillRandom(seed int64) {
	if f.Phantom() {
		panic("core: FillRandom on phantom field")
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range f.Data {
		f.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
}
