// Package polysi re-implements the PolySI baseline (Huang et al.,
// VLDB'23): a snapshot-isolation checker for general histories built on
// the same polygraph extraction as Cobra but solving against the SI
// composition theory — the chosen write-write orientations, together with
// the anti-dependencies they induce, must leave (SO ∪ WR ∪ WW) ; RW?
// acyclic (Definition 6). The paper uses it as the SI baseline in
// Figures 8 and 17.
package polysi

import (
	"context"
	"time"

	"mtc/internal/history"
	"mtc/internal/polygraph"
	"mtc/internal/sat"
)

// Report is the outcome of a PolySI run with stage statistics.
type Report struct {
	OK        bool
	Anomalies []history.Anomaly
	// Constraints counts constraints before pruning; Forced those the
	// (SI-sound) pruning stage resolved; Residual what reached the solver.
	Constraints int
	Forced      int
	Residual    int
	Solver      sat.Result
	// Per-phase wall-clock durations of the pipeline stages.
	BuildTime, PruneTime, SolveTime time.Duration
}

// CheckSI verifies snapshot isolation of a general (or MT) history.
func CheckSI(h *history.History) Report {
	rep, _ := CheckSIPar(context.Background(), h, 1)
	return rep
}

// CheckSIPar is CheckSI under a context, with the (SI-sound) pruning
// stage sharded over a bounded worker pool. Both the pruning fixpoint
// and the SAT search poll ctx, so a deadline stops the run promptly; the
// Report is only meaningful when the returned error is nil. par <= 0
// selects GOMAXPROCS, 1 prunes serially. The verdict and all statistics
// except wall-clock are identical at every par.
func CheckSIPar(ctx context.Context, h *history.History, par int) (Report, error) {
	ix := history.NewIndex(h)
	if as := history.CheckInternalIndexed(ix); len(as) > 0 {
		return Report{OK: false, Anomalies: as}, nil
	}
	if err := ctx.Err(); err != nil {
		return Report{}, err
	}
	start := time.Now()
	p := polygraph.BuildIndexed(ix)
	rep := Report{Constraints: len(p.Cons), BuildTime: time.Since(start)}
	start = time.Now()
	ok, err := p.PrunePar(ctx, polygraph.PruneSI, par)
	rep.PruneTime = time.Since(start)
	if err != nil {
		return rep, err
	}
	rep.Forced = p.Forced
	if !ok {
		return rep, nil
	}
	rep.Residual = len(p.Cons)
	start = time.Now()
	rep.Solver, err = sat.SolveSICtx(ctx, p.N, p.Known, p.Cons)
	rep.SolveTime = time.Since(start)
	if err != nil {
		return rep, err
	}
	rep.OK = rep.Solver.Sat
	return rep, nil
}
