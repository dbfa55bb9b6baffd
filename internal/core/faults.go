package core

import (
	"fmt"

	"repro/internal/mpisim"
)

// faultErrFrom converts a panic recovered during plan execution into an error
// carrying execution context (rank, phase), or nil if the panic is not
// fault-related (the caller must re-panic those). The underlying sentinel
// (mpisim.ErrRankFailed, ErrMessageCorrupt, ErrExchangeTimeout) stays
// reachable through errors.Is.
func faultErrFrom(r any, c *mpisim.Comm, phase string) error {
	fe := mpisim.FaultFrom(r, c.World())
	if fe == nil {
		return nil
	}
	if phase == "" {
		phase = "setup"
	}
	return fmt.Errorf("core: rank %d: phase %q: %w", c.WorldRank(c.Rank()), phase, fe)
}
