package hidap

import "repro/internal/eval"

// Report is the uniform measurement record of a placed design: wirelength,
// congestion, timing, sequential-graph size and run bookkeeping, with flat
// JSON marshalling. An evaluating Engine job returns one, annotated with
// its placer's Stats (runtime, levels, flips, λ).
type Report = eval.Report
