package hidap

import (
	"repro/internal/eval"
	"repro/internal/flows"
	"repro/internal/seqgraph"
)

// Report is the uniform measurement record of a placed design: wirelength,
// congestion, timing, sequential-graph size and run bookkeeping, with flat
// JSON marshalling. An evaluating Engine job returns one, annotated with
// its flow's Stats (runtime, levels, flips, λ).
type Report = eval.Report

// Stats is the bookkeeping of one job's macro placement; an evaluating
// Engine job copies it onto its Report.
type Stats = flows.Stats

// SeqStats is the sequential-graph size summary (Table I).
type SeqStats = seqgraph.Stats
