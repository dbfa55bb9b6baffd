package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/mpisim"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Feature × path × backend matrix: every cross-cutting feature must work on
// every execution path and every backend, or the combination must be rejected
// with ErrBadConfig — no silent skew between the batch-fused C2C path, the
// per-entry-async path and the R2C plan, which all run on one stage runner,
// and no setting a backend accepts and then ignores.

type matrixPath int

const (
	pathBatch     matrixPath = iota // Plan.ForwardBatch
	pathPipelined                   // Plan.ForwardPipelined
	pathReal                        // RealPlan.ForwardBatch
)

func (p matrixPath) String() string {
	return [...]string{"ForwardBatch", "ForwardPipelined", "RealPlan.ForwardBatch"}[p]
}

// matrixRun is what one execution of a path leaves behind.
type matrixRun struct {
	planErr  error       // plan construction error (identical on every rank)
	returned []bool      // the entry point returned (rather than unwinding a panic)
	errs     []error     // per-rank execution error
	out      [][]float64 // per-rank output, flattened
	exec     []ExecInfo
	res      mpisim.Result
	world    *mpisim.World
	tracer   *trace.Tracer
}

const (
	matrixRanks = 4
	matrixBatch = 2
)

var matrixGlobal = [3]int{16, 16, 16}

func runMatrixPath(path matrixPath, b Backend, wopts mpisim.Options, opts Options) matrixRun {
	wopts.GPUAware = true
	wopts.Tracer = trace.New()
	opts.Backend, opts.Decomp = b, DecompPencils
	w := mpisim.NewWorld(machine.Summit(), matrixRanks, wopts)
	r := matrixRun{
		returned: make([]bool, matrixRanks), errs: make([]error, matrixRanks),
		out: make([][]float64, matrixRanks), exec: make([]ExecInfo, matrixRanks),
		world: w, tracer: wopts.Tracer,
	}
	var planErrs [matrixRanks]error
	r.res = w.Run(func(c *mpisim.Comm) {
		me := c.Rank()
		flatten := func(fs []*Field) {
			for _, f := range fs {
				for _, v := range f.Data {
					r.out[me] = append(r.out[me], real(v), imag(v))
				}
			}
		}
		if path == pathReal {
			p, err := NewRealPlan(c, RealConfig{Global: matrixGlobal, Opts: opts})
			if err != nil {
				planErrs[me] = err
				return
			}
			rfs := make([]*RealField, matrixBatch)
			for i := range rfs {
				rfs[i] = NewRealField(p.InBox())
				fpFillReal(rfs[i].Data, me, i)
			}
			spec, err := p.ForwardBatch(rfs)
			r.returned[me], r.errs[me], r.exec[me] = true, err, p.lastExec
			flatten(spec)
			return
		}
		p, err := NewPlan(c, Config{Global: matrixGlobal, Opts: opts})
		if err != nil {
			planErrs[me] = err
			return
		}
		fields := make([]*Field, matrixBatch)
		for i := range fields {
			fields[i] = NewField(p.InBox())
			fpFill(fields[i].Data, me, i)
		}
		if path == pathPipelined {
			err = p.ForwardPipelined(fields)
		} else {
			err = p.ForwardBatch(fields)
		}
		r.returned[me], r.errs[me], r.exec[me] = true, err, p.LastExec()
		if err == nil {
			flatten(fields)
		}
	})
	r.planErr = planErrs[0]
	return r
}

// accepted fails the cell on any error except a configuration rejection —
// the other legal outcome of a cell — for which it reports false.
func accepted(t *testing.T, r matrixRun) bool {
	t.Helper()
	err := r.clean()
	if errors.Is(err, ErrBadConfig) {
		t.Logf("rejected: %v", err)
		return false
	}
	if err != nil {
		t.Fatal(err)
	}
	return true
}

// clean reports whether the run completed without any error.
func (r matrixRun) clean() error {
	if r.planErr != nil {
		return fmt.Errorf("plan: %w", r.planErr)
	}
	if r.res.Err != nil {
		return fmt.Errorf("world: %w", r.res.Err)
	}
	for rank, err := range r.errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", rank, err)
		}
	}
	return nil
}

func TestFeaturePathMatrix(t *testing.T) {
	invariants := mpisim.Options{Integrity: mpisim.IntegrityConfig{Invariants: true}}

	features := []struct {
		name string
		// check reports whether the cell works (false: rejected as a
		// configuration error, the other legal outcome).
		check func(t *testing.T, path matrixPath, b Backend) bool
	}{
		{"forced CollAlgo changes the clock", func(t *testing.T, path matrixPath, b Backend) bool {
			seen := map[float64]CollAlgo{}
			for _, a := range []CollAlgo{CollLinear, CollPairwise, CollBruck} {
				r := runMatrixPath(path, b, mpisim.Options{}, Options{Comm: CommConfig{Algo: a}})
				if !accepted(t, r) {
					return false
				}
				if prev, dup := seen[r.res.MaxClock]; dup {
					t.Errorf("forced %v and %v give the same makespan %g: the schedule choice is ignored", prev, a, r.res.MaxClock)
				}
				seen[r.res.MaxClock] = a
			}
			return true
		}},
		{"brick flip healed and counted", func(t *testing.T, path matrixPath, b Backend) bool {
			want := runMatrixPath(path, b, invariants, Options{})
			if !accepted(t, want) {
				return false
			}
			flip := invariants
			flip.Faults = &faults.Plan{Events: []faults.Event{{Kind: faults.CorruptSilent, Rank: 1, Op: 1, Count: 1, Brick: true}}}
			got := runMatrixPath(path, b, flip, Options{})
			if !accepted(t, got) {
				return false
			}
			snap := got.world.IntegrityCounters().Snapshot()
			if snap.InvariantFailures < 1 || snap.PhaseReexecs < 1 {
				t.Errorf("flip not counted: %+v", snap)
			}
			for rank := range want.out {
				if len(got.out[rank]) != len(want.out[rank]) {
					t.Fatalf("rank %d: output length %d, want %d", rank, len(got.out[rank]), len(want.out[rank]))
				}
				for i, v := range want.out[rank] {
					if got.out[rank][i] != v {
						t.Fatalf("rank %d element %d: healed %v != clean %v", rank, i, got.out[rank][i], v)
					}
				}
			}
			return true
		}},
		{"envelope verify charged under invariants-only", func(t *testing.T, path matrixPath, b Backend) bool {
			r := runMatrixPath(path, b, invariants, Options{})
			if !accepted(t, r) {
				return false
			}
			if tot := r.tracer.TotalByName(0)["checksum_verify"]; tot <= 0 {
				t.Errorf("no checksum_verify time charged (%g): the receive-side envelope pass is free on this path", tot)
			}
			return true
		}},
		{"rank kill is a typed error with rank and phase", func(t *testing.T, path matrixPath, b Backend) bool {
			const victim = 3
			kill := mpisim.Options{Faults: &faults.Plan{Timeout: 1, Events: []faults.Event{{Kind: faults.Kill, Rank: victim, Op: 1}}}}
			r := runMatrixPath(path, b, kill, Options{})
			if errors.Is(r.clean(), ErrBadConfig) {
				return false
			}
			if !errors.Is(r.res.Err, mpisim.ErrRankFailed) {
				t.Fatalf("world error = %v, want ErrRankFailed", r.res.Err)
			}
			for rank, err := range r.errs {
				if !r.returned[rank] {
					t.Errorf("rank %d: the fault panic escaped the entry point", rank)
				} else if err != nil && !errors.Is(err, mpisim.ErrRankFailed) {
					t.Errorf("rank %d: err = %v, want ErrRankFailed or nil", rank, err)
				}
			}
			msg := fmt.Sprint(r.errs[victim])
			if !errors.Is(r.errs[victim], mpisim.ErrRankFailed) ||
				!strings.Contains(msg, fmt.Sprintf("rank %d", victim)) || !strings.Contains(msg, `phase "reshape`) {
				t.Errorf("victim error %q lacks ErrRankFailed with rank and phase context", msg)
			}
			return true
		}},
		{"LastExec populated", func(t *testing.T, path matrixPath, b Backend) bool {
			r := runMatrixPath(path, b, mpisim.Options{}, Options{})
			if !accepted(t, r) {
				return false
			}
			for rank, info := range r.exec {
				if info.Batch != matrixBatch || !(info.End > info.Start) || info.End != r.res.Clocks[rank] {
					t.Errorf("rank %d: ExecInfo %+v after a batch of %d ending at %g", rank, info, matrixBatch, r.res.Clocks[rank])
				}
			}
			return true
		}},
		{"checkpoints", func(t *testing.T, path matrixPath, b Backend) bool {
			store := NewCheckpointStore()
			r := runMatrixPath(path, b, mpisim.Options{}, Options{Checkpoints: store})
			if !accepted(t, r) {
				return false
			}
			if store.batch != matrixBatch {
				t.Errorf("store recorded a batch of %d, want %d", store.batch, matrixBatch)
			}
			if tot := r.tracer.TotalByName(0)["retain"]; tot <= 0 {
				t.Error("no checkpoint staging copy was charged")
			}
			return true
		}},
		{"explicit chunks", func(t *testing.T, path matrixPath, b Backend) bool {
			whole := runMatrixPath(path, b, mpisim.Options{}, Options{Comm: CommConfig{Chunks: 1}})
			chunked := runMatrixPath(path, b, mpisim.Options{}, Options{Comm: CommConfig{Chunks: 2}})
			if !accepted(t, whole) || !accepted(t, chunked) {
				return false
			}
			if chunked.res.MaxClock == whole.res.MaxClock {
				t.Errorf("Chunks: 2 and Chunks: 1 give the same makespan %g: chunking is ignored", whole.res.MaxClock)
			}
			return true
		}},
		// (The makespan need not move: the batch-fused path can hide the
		// whole exchange behind compute.)
		{"compressed wire changes the bits", func(t *testing.T, path matrixPath, b Backend) bool {
			full := runMatrixPath(path, b, mpisim.Options{}, Options{})
			narrow := runMatrixPath(path, b, mpisim.Options{}, Options{Comm: CommConfig{Wire: WireFp32}})
			if !accepted(t, full) || !accepted(t, narrow) {
				return false
			}
			if slices.Equal(narrow.out[0], full.out[0]) {
				t.Error("fp32 and fp64 wires give the same output bits on rank 0: the wire is ignored")
			}
			return true
		}},
	}
	backends := []Backend{BackendAlltoallv, BackendAlltoall, BackendAlltoallw, BackendP2P, BackendP2PBlocking}
	// The cells that do not compose. Only Alltoallv has a non-blocking
	// all-to-all (per-entry exchanges) and runs schedules and chunks; a
	// per-entry exchange is one unchunked message; the checkpoint store holds
	// complex whole-batch stage boundaries, which neither in-flight per-entry
	// exchanges nor a real-valued pipeline can supply; Alltoallw has no pack
	// kernel to compress the wire in. Everything else works.
	rejected := func(feature string, path matrixPath, b Backend) bool {
		switch {
		case path == pathPipelined && b != BackendAlltoallv:
			return true
		case feature == "checkpoints":
			return path != pathBatch
		case feature == "explicit chunks":
			return path == pathPipelined || b != BackendAlltoallv
		case feature == "forced CollAlgo changes the clock":
			return b != BackendAlltoallv
		case feature == "compressed wire changes the bits":
			return b == BackendAlltoallw
		}
		return false
	}
	for _, f := range features {
		for _, b := range backends {
			for _, path := range []matrixPath{pathBatch, pathPipelined, pathReal} {
				f, b, path := f, b, path
				t.Run(f.name+"/"+b.String()+"/"+path.String(), func(t *testing.T) {
					if works := f.check(t, path, b); works == rejected(f.name, path, b) {
						t.Errorf("works = %v, want %v", works, !works)
					}
				})
			}
		}
	}
}

// TestEntryCheckEveryPath: closed plans, empty batches and batches mixing
// phantom with real payloads are refused by the runner's one entry check on
// every public entry point — RealPlan.InverseBatch checked none of the three
// before the paths were merged.
func TestEntryCheckEveryPath(t *testing.T) {
	w := mpisim.NewWorld(machine.Summit(), 2, mpisim.Options{GPUAware: true})
	w.Run(func(c *mpisim.Comm) {
		global := [3]int{8, 8, 8}
		p, err := NewPlan(c, Config{Global: global, Opts: Options{Decomp: DecompPencils}})
		if err != nil {
			t.Error(err)
			return
		}
		rp, err := NewRealPlan(c, RealConfig{Global: global})
		if err != nil {
			t.Error(err)
			return
		}
		// complexBatch and realBatch build n-entry batches over a box, the
		// first entry phantom and the rest carrying data.
		complexBatch := func(b tensor.Box3, n int) []*Field {
			fs := make([]*Field, n)
			for i := range fs {
				fs[i] = NewField(b)
			}
			if n > 0 {
				fs[0] = NewPhantom(b)
			}
			return fs
		}
		realBatch := func(n int) []*RealField {
			rfs := make([]*RealField, n)
			for i := range rfs {
				rfs[i] = NewRealField(rp.InBox())
			}
			if n > 0 {
				rfs[0] = NewRealPhantom(rp.InBox())
			}
			return rfs
		}
		entries := map[string]func(n int) error{
			"ForwardBatch":     func(n int) error { return p.ForwardBatch(complexBatch(p.InBox(), n)) },
			"InversePipelined": func(n int) error { return p.InversePipelined(complexBatch(p.InBox(), n)) },
			"RealPlan.ForwardBatch": func(n int) error {
				_, err := rp.ForwardBatch(realBatch(n))
				return err
			},
			"RealPlan.InverseBatch": func(n int) error {
				_, err := rp.InverseBatch(complexBatch(rp.OutBox(), n))
				return err
			},
		}
		for name, call := range entries {
			if err := call(0); err == nil {
				t.Errorf("%s: empty batch accepted", name)
			}
			if err := call(2); err == nil {
				t.Errorf("%s: batch mixing phantom and real fields accepted", name)
			}
		}
		p.Close()
		rp.closed = true
		for name, call := range entries {
			if err := call(1); !errors.Is(err, ErrPlanClosed) {
				t.Errorf("%s on a closed plan: err = %v, want ErrPlanClosed", name, err)
			}
		}
	})
}
