package core

import "errors"

// Typed sentinel errors returned (wrapped with %w, so errors.Is works) by the
// plan constructors and execution entry points. The heffte facade re-exports
// them so callers can branch on failure classes without string matching.
var (
	// ErrBadConfig marks an invalid plan configuration: non-positive grid
	// extents, a pencil grid that does not factor the rank count, or an
	// option the backend or the plan kind does not run (checkConfig).
	ErrBadConfig = errors.New("bad plan configuration")

	// ErrMismatchedBoxes marks inconsistent data distributions: box lists
	// whose length differs from the communicator size, boxes that do not
	// tile the global grid, or a field whose box does not match the plan's.
	ErrMismatchedBoxes = errors.New("mismatched boxes")

	// ErrPlanClosed is returned when executing a plan after Close.
	ErrPlanClosed = errors.New("plan closed")
)
