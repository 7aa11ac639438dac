// Package cobra re-implements the Cobra baseline (Tan et al., OSDI'20):
// a serializability checker for general histories that extracts a
// polygraph, prunes constraints with reachability over known edges (the
// GPU-accelerated step in the original; bitset closure here), and hands
// the residue to a SAT solver with an acyclicity theory (MonoSAT in the
// original, internal/sat here). The paper uses it as the SER baseline in
// Figures 7, 10, 13 and 14.
package cobra

import (
	"context"
	"time"

	"mtc/internal/history"
	"mtc/internal/polygraph"
	"mtc/internal/sat"
)

// Report is the outcome of a Cobra run with stage statistics.
type Report struct {
	OK bool
	// Anomalies is non-empty when the pre-check rejected the history.
	Anomalies []history.Anomaly
	// Constraints counts constraints before pruning; Forced those the
	// pruning stage resolved; Residual what reached the solver.
	Constraints int
	Forced      int
	Residual    int
	Solver      sat.Result
	// Per-phase wall-clock durations of the pipeline stages.
	BuildTime, PruneTime, SolveTime time.Duration
}

// CheckSER verifies serializability of a general (or MT) history.
func CheckSER(h *history.History) Report {
	rep, _ := CheckSERPar(context.Background(), h, 1)
	return rep
}

// CheckSERPar is CheckSER under a context, with the pruning stage —
// reachability closure and constraint checking, the pipeline's dominant
// cost — sharded over a bounded worker pool. Both the pruning fixpoint
// and the SAT search poll ctx, so a deadline stops the run promptly; the
// Report is only meaningful when the returned error is nil. par <= 0
// selects GOMAXPROCS, 1 prunes serially. The verdict and all statistics
// except wall-clock are identical at every par.
func CheckSERPar(ctx context.Context, h *history.History, par int) (Report, error) {
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
	ok, err := p.PrunePar(ctx, polygraph.PruneSER, par)
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
	rep.Solver, err = sat.SolveAcyclicCtx(ctx, p.N, p.Known, p.Cons)
	rep.SolveTime = time.Since(start)
	if err != nil {
		return rep, err
	}
	rep.OK = rep.Solver.Sat
	return rep, nil
}
