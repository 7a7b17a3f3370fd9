package experiments

import (
	"fmt"

	"repro/dist"
	"repro/graph"
	"repro/rendezvous"
	"repro/sim"
	"repro/stic"
)

// E7 is the headline experiment: UniversalRV, with no a priori knowledge
// whatsoever, meets on every feasible STIC of the suite and never meets on
// the infeasible ones (Theorem 3.1 / Corollary 3.1). The suite mixes
// nonsymmetric pairs (any delay) and symmetric pairs with delays on both
// sides of Shrink.
//
// full=false keeps to instances whose guaranteed phase is cheap enough for
// a quick run; full=true adds the heavier ring-4 symmetric case whose
// target phase is P=134.
func E7(full bool) *Table {
	t := &Table{
		ID:       "E7",
		Title:    "UniversalRV: zero-knowledge rendezvous on the STIC suite",
		PaperRef: "Theorem 3.1, Corollary 3.1 (Algorithm 3)",
		Columns:  []string{"graph", "pair", "δ", "class", "feasible", "outcome", "time from later", "guarantee bound"},
	}
	k2 := graph.TwoNode()
	p3 := graph.Path(3)
	p4 := graph.Path(4)
	st1 := graph.SymmetricTree(graph.ChainShape(1))
	cases := []e7Case{
		{k2, 0, 1, 0}, // infeasible: symmetric, δ < Shrink=1
		{k2, 0, 1, 1},
		{k2, 0, 1, 2},
		{k2, 0, 1, 3},
		{p3, 0, 2, 0}, // nonsymmetric endpoints
		{p3, 0, 2, 1},
		{p3, 0, 1, 0},
		{p4, 0, 1, 0},
		{st1, 0, 2, 0}, // mirror pair, Shrink 1: infeasible at δ=0
		{st1, 0, 2, 1},
		{st1, 0, 2, 2},
	}
	if full {
		cases = append(cases,
			e7Case{graph.Cycle(4), 0, 2, 1}, // infeasible: Shrink 2
			e7Case{graph.Cycle(4), 0, 2, 2}, // feasible; target phase 134
		)
	}

	// Classify each STIC once, up front, through one warm Classifier; the
	// classification feeds both the budget choice inside the sweep and
	// the feasibility checks below.
	var cl stic.Classifier
	reps := make([]stic.Report, len(cases))
	for i, c := range cases {
		reps[i] = cl.Classify(stic.STIC{G: c.g, U: c.u, V: c.v, Delay: c.delta})
	}
	results := runPlan(e7Plan(cases, reps))
	for i, c := range cases {
		rep := reps[i]
		res := results[i].Two
		class := "nonsymmetric"
		if rep.Symmetric {
			class = fmt.Sprintf("symmetric, Shrink=%d", rep.Shrink)
		}
		boundCell := "-"
		if rep.Feasible {
			boundCell = itoa(guaranteeBound(c.g, rep, c.delta))
		}
		timeCell := "-"
		if res.Outcome == sim.Met {
			timeCell = itoa(res.TimeFromLater)
		}
		t.AddRow(c.g.String(), fmt.Sprintf("(%d,%d)", c.u, c.v), c.delta, class,
			rep.Feasible, res.Outcome, timeCell, boundCell)
		t.Check((res.Outcome == sim.Met) == rep.Feasible,
			"%s (%d,%d) δ=%d: outcome %v but feasible=%v", c.g, c.u, c.v, c.delta, res.Outcome, rep.Feasible)
		if res.Outcome == sim.Met && rep.Feasible {
			t.Check(res.TimeFromLater <= guaranteeBound(c.g, rep, c.delta),
				"%s δ=%d: met after %d > guarantee", c.g, c.delta, res.TimeFromLater)
		}
	}
	t.Notes = append(t.Notes,
		"The guarantee bound is the total duration of all phases up to the one whose hypothesis matches the true parameters — the quantity Proposition 4.1 bounds by O(n+δ)^O(n+δ).",
		"Infeasible rows exhaust a budget past their would-be guarantee phase without meeting.")
	return t
}

// e7Case is one STIC of the E7 suite.
type e7Case struct {
	g     *graph.Graph
	u, v  int
	delta uint64
}

// e7MeasureBudgetCap bounds the budget of the probe case MeasureHints
// executes: hints only need the workload's script-length shape, and the
// early phases expose it without paying an infeasible case's full
// budget-exhausting run.
const e7MeasureBudgetCap = 1 << 14

// e7Plan builds E7's dispatch plan: shard descriptors keyed by graph —
// in-process protocol workers by default, forked worker processes under
// `rvx --dist-workers` — with byte-identical results either way. Budgets
// are computed coordinator-side from the classification; the descriptor
// carries them explicitly. Every shard is stamped with measured warmup
// hints (dist.MeasureHints on a budget-capped probe of its first case,
// so Session.Prewarm sizes the worker pool from the real workload) and
// declared batch-eligible: the grid is seed-free parameter variation of
// one program pair. Its shards hold 1-4 lanes on 2-3 recordings, below
// the workers' lanes-per-recording break-even, so they run case by case.
func e7Plan(cases []e7Case, reps []stic.Report) *dist.Planner {
	plan := &dist.Planner{}
	for i, c := range cases {
		plan.Add(c.g, c.g, dist.CaseDesc{
			Kind:  dist.KindTwoAgent,
			ProgA: dist.ProgDesc{Name: "universal"},
			ProgB: dist.ProgDesc{Name: "universal"},
			U:     c.u, V: c.v, Delay: c.delta,
			Budget: universalBudget(c.g, reps[i], c.delta),
		})
	}
	seen := map[*graph.Graph]bool{}
	for _, c := range cases {
		if seen[c.g] {
			continue
		}
		seen[c.g] = true
		plan.SetBatch(c.g)
	}
	for _, sh := range plan.Shards() {
		probe := *sh
		probe.Cases = append([]dist.CaseDesc(nil), sh.Cases[:1]...)
		if probe.Cases[0].Budget > e7MeasureBudgetCap {
			probe.Cases[0].Budget = e7MeasureBudgetCap
		}
		h, err := dist.MeasureHints(&probe)
		if err != nil {
			panic(err)
		}
		if h.K > sh.Hints.K {
			sh.Hints.K = h.K
		}
		sh.Hints.ScriptHist = h.ScriptHist
	}
	return plan
}

// guaranteeBound computes the Theorem 3.1 guarantee for a feasible STIC:
// the cumulative duration through the phase matching the true parameters.
func guaranteeBound(g *graph.Graph, rep stic.Report, delta uint64) uint64 {
	n := uint64(g.N())
	d := uint64(rep.Shrink)
	if !rep.Symmetric {
		// Met in the AsymmRV part of the phase (n, d, δ) for the smallest
		// d; d=1 is the first hypothesis with d < n.
		d = 1
	}
	if d == 0 {
		d = 1
	}
	return rendezvous.UniversalRVTimeBound(n, d, delta)
}

// universalBudget picks a simulation budget comfortably past the
// guarantee (feasible) or past a would-be guarantee (infeasible).
func universalBudget(g *graph.Graph, rep stic.Report, delta uint64) uint64 {
	b := guaranteeBound(g, rep, delta)
	if !rep.Feasible {
		// Past the phase matching (n, Shrink, δ+1): if it were going to
		// meet "late", this budget would expose it.
		b = rendezvous.UniversalRVTimeBound(uint64(g.N()), uint64(rep.Shrink), delta+1)
	}
	if b >= rendezvous.RoundCap/4 {
		return rendezvous.RoundCap / 4
	}
	return delta + 2*b
}
