package extract

import (
	"github.com/galoisfield/gfre/internal/netlint"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/obs"
)

// preflight runs the netlint static analyzer ahead of rewriting when
// Options.Preflight is set. Error-level findings abort the run (the returned
// error wraps netlint.ErrFindings, and the report travels back on the
// Extraction so callers can render the findings). On a clean pass the
// cone-cost predictor's suggestions fill any governor knob the caller left
// at zero, so hostile or degenerate designs hit a principled budget instead
// of running unbounded.
func preflight(n *netlist.Netlist, opts *Options) (*netlint.Report, error) {
	if !opts.Preflight {
		return nil, nil
	}
	span := opts.Recorder.StartSpan("preflight", map[string]int64{
		"gates": int64(n.NumGates()),
	})
	// Build the cone index under its own span: the cost predictor reads the
	// cone sizes from it, and rewriting reuses the memoized sizes.
	idx := opts.Recorder.StartSpan("cone-index", nil)
	n.ConeSizes()
	idx.End()
	rep := netlint.Analyze(n, netlint.Options{RequireMultiplier: true})
	span.End()
	if err := rep.Err(); err != nil {
		return rep, err
	}
	budget, deadline := rep.Governor(opts.BudgetTerms, opts.ConeDeadline)
	if budget > 0 {
		opts.BudgetTerms = budget
	}
	if deadline > 0 {
		opts.ConeDeadline = deadline
	}
	// Arm the cone anomaly stage with the predictor's no-cancellation
	// bounds: at each cone finish the recorder compares the actual peak
	// against these and emits cone_anomaly when cancellation failed to fire
	// (see internal/obs/anomaly.go). Saturated estimates are still armed
	// with their capped value: the cap is a LOWER bound on the true
	// no-cancellation cost, so the observed ratio understates the real one
	// — a cone that reaches a meaningful fraction even of the cap is all
	// the more anomalous, and dropping these cones would blind the stage
	// to exactly the fattest candidates.
	pred := make(map[int]int64, len(rep.Cones))
	for _, c := range rep.Cones {
		pred[c.Output] = int64(c.PredictedPeakTerms)
	}
	opts.Recorder.EnableConeAnomalies(pred, obs.AnomalyConfig{})
	return rep, nil
}
