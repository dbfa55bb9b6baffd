package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/mpisim"
	"repro/internal/tensor"
)

// runForwardGather executes one Forward over a scattered random signal and
// returns the gathered global spectrum.
func runForwardGather(t *testing.T, global [3]int, size int, opts Options, seed int64) []complex128 {
	t.Helper()
	ref := globalSignal(global, seed)
	outDatas := make([][]complex128, size)
	outBoxes := make([]tensor.Box3, size)
	w := mpisim.NewWorld(machine.Summit(), size, mpisim.Options{GPUAware: true})
	res := w.Run(func(c *mpisim.Comm) {
		p, err := NewPlan(c, Config{Global: global, Opts: opts})
		if err != nil {
			panic(err)
		}
		defer p.Close()
		f := &Field{Box: p.InBox(), Data: scatter(ref, global, p.InBox())}
		if err := p.Forward(f); err != nil {
			panic(err)
		}
		outDatas[c.Rank()] = f.Data
		outBoxes[c.Rank()] = f.Box
	})
	if res.Err != nil {
		t.Fatalf("forward: %v", res.Err)
	}
	return gather(global, outBoxes, outDatas)
}

// TestCollectiveAlgosBitIdentical: the scheduled algorithms change only the
// virtual-time cost of a reshape, never its routing — every forced algorithm
// must produce the exact bits of the legacy linear exchange on a non-uniform
// boxed decomposition (13×10×9 over 8 bricks divides nothing evenly).
func TestCollectiveAlgosBitIdentical(t *testing.T) {
	global := [3]int{13, 10, 9}
	const size, seed = 8, 41
	base := Options{Decomp: DecompPencils, Backend: BackendAlltoallv, Comm: CommConfig{Algo: CollLinear}}
	want := runForwardGather(t, global, size, base, seed)
	for _, algo := range []CollAlgo{CollAuto, CollPairwise, CollRing, CollBruck, CollNodeAware} {
		opts := base
		opts.Comm.Algo = algo
		got := runForwardGather(t, global, size, opts, seed)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("algo %v: element %d = %v, want %v (not bit-identical to linear)",
					algo, i, got[i], want[i])
			}
		}
	}
}

// TestChunkedPipelinedBitIdentical: splitting the exchanges into chunks —
// serial or pipelined — must not change a single bit of the transform.
func TestChunkedPipelinedBitIdentical(t *testing.T) {
	global := [3]int{16, 16, 16}
	const size, seed = 8, 42
	single := Options{Decomp: DecompPencils, Backend: BackendAlltoallv,
		Comm: CommConfig{Algo: CollRing, Chunks: 1}}
	want := runForwardGather(t, global, size, single, seed)
	for _, overlap := range []OverlapMode{OverlapAuto, OverlapOff} {
		opts := single
		opts.Comm.Chunks = 4
		opts.Comm.Overlap = overlap
		got := runForwardGather(t, global, size, opts, seed)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("chunks=4 overlap=%v: element %d = %v, want %v (differs from single-shot)",
					overlap, i, got[i], want[i])
			}
		}
	}
}

// runChunkedFaulty executes one chunked pipelined Forward under a fault plan.
func runChunkedFaulty(t *testing.T, plan *faults.Plan) ([]error, mpisim.Result) {
	t.Helper()
	const size = 4
	w := mpisim.NewWorld(machine.Summit(), size, mpisim.Options{GPUAware: true, Faults: plan})
	errs := make([]error, size)
	res := w.Run(func(c *mpisim.Comm) {
		p, err := NewPlan(c, Config{Global: [3]int{8, 8, 8}, Opts: Options{
			Decomp: DecompPencils, Backend: BackendAlltoallv,
			Comm: CommConfig{Algo: CollRing, Chunks: 4},
		}})
		if err != nil {
			errs[c.Rank()] = err
			return
		}
		defer p.Close()
		errs[c.Rank()] = p.Forward(NewField(p.InBox()))
	})
	return errs, res
}

// TestChunkedFaultsSurfaceTypedErrors: a rank killed or a payload corrupted
// in the middle of a chunked pipelined exchange must surface the PR 3 typed
// sentinels on every rank — per-chunk fault propagation, not a hang.
func TestChunkedFaultsSurfaceTypedErrors(t *testing.T) {
	cases := []struct {
		name string
		ev   faults.Event
		want error
	}{
		{"kill-mid-chunk", faults.Event{Kind: faults.Kill, Rank: 2, Op: 3}, mpisim.ErrRankFailed},
		{"corrupt-mid-chunk", faults.Event{Kind: faults.Corrupt, Rank: 1, Op: 2}, mpisim.ErrMessageCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := &faults.Plan{Timeout: 1, Events: []faults.Event{tc.ev}}
			errs, res := runChunkedFaulty(t, plan)
			if !errors.Is(res.Err, tc.want) {
				t.Fatalf("Result.Err = %v, want %v", res.Err, tc.want)
			}
			for r, err := range errs {
				if !errors.Is(err, tc.want) {
					t.Errorf("rank %d: err = %v, want %v", r, err, tc.want)
				}
			}
		})
	}
}

// TestForwardCtxCancellation: an expired or canceled context fails the
// transform collectively with an error wrapping the context's cause; a live
// context leaves the transform untouched.
func TestForwardCtxCancellation(t *testing.T) {
	run := func(mkCtx func() context.Context) ([]error, mpisim.Result) {
		const size = 6
		w := mpisim.NewWorld(machine.Summit(), size, mpisim.Options{GPUAware: true})
		errs := make([]error, size)
		res := w.Run(func(c *mpisim.Comm) {
			p, err := NewPlan(c, Config{Global: [3]int{16, 16, 16},
				Opts: Options{Decomp: DecompPencils, Backend: BackendAlltoallv}})
			if err != nil {
				errs[c.Rank()] = err
				return
			}
			defer p.Close()
			errs[c.Rank()] = p.ForwardCtx(mkCtx(), NewField(p.InBox()))
		})
		return errs, res
	}

	canceled := func() context.Context {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		return ctx
	}
	errs, _ := run(canceled)
	for r, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("canceled ctx, rank %d: err = %v, want context.Canceled", r, err)
		}
	}

	expired := func() context.Context {
		ctx, cancel := context.WithTimeout(context.Background(), 0)
		_ = cancel
		return ctx
	}
	errs, _ = run(expired)
	for r, err := range errs {
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("expired ctx, rank %d: err = %v, want context.DeadlineExceeded", r, err)
		}
	}

	errs, res := run(context.Background)
	if res.Err != nil {
		t.Fatalf("live ctx: %v", res.Err)
	}
	for r, err := range errs {
		if err != nil {
			t.Errorf("live ctx, rank %d: unexpected error %v", r, err)
		}
	}
}
