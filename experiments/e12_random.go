package experiments

import (
	"fmt"
	"sort"

	"repro/dist"
	"repro/graph"
	"repro/rendezvous"
	"repro/sim"
)

// E12 measures the paper's conclusion remark: the randomized counterpart
// of the problem is easy — two (lazy) random walks meet in expected time
// polynomial in the graph size, even from symmetric simultaneous starts
// where every deterministic algorithm must fail. The table contrasts the
// measured randomized meeting times with the deterministic universal
// guarantee for the same configurations.
func E12() *Table {
	t := &Table{
		ID:       "E12",
		Title:    "Randomized baseline vs deterministic universal guarantee",
		PaperRef: "Section 5 (conclusion): randomized rendezvous is polynomial",
		Columns:  []string{"graph", "pair", "δ", "runs", "median rounds", "max rounds", "deterministic guarantee"},
	}
	type caze struct {
		g     *graph.Graph
		u, v  int
		delta uint64
	}
	cases := []caze{
		{graph.Cycle(4), 0, 2, 0},
		{graph.Cycle(8), 0, 4, 0},
		{graph.Cycle(12), 0, 6, 0},
		{graph.OrientedTorus(3, 3), 0, 4, 0},
		{graph.OrientedTorus(4, 4), 0, 10, 0},
		{graph.Cycle(8), 0, 4, 5},
	}
	const runs = 32
	// One dispatched sweep over the whole (configuration x seed) grid,
	// sharded by configuration: each graph's 32 runs stay sequential on
	// one worker while distinct configurations run concurrently (possibly
	// in other processes, under `rvx --dist-workers`); the per-shard
	// results are then aggregated into the per-configuration statistics.
	// Seeds ride the descriptors as lazyrandom program arguments, and
	// each shard declares its covered seed range — the workers validate
	// seeded args against it, an end-to-end guard on the grid transport.
	plan := &dist.Planner{}
	for ci, c := range cases {
		for i := 0; i < runs; i++ {
			plan.Add(ci, c.g, dist.CaseDesc{
				Kind:  dist.KindTwoAgent,
				ProgA: dist.ProgDesc{Name: "lazyrandom", Args: []uint64{uint64(1000 + 2*i)}},
				ProgB: dist.ProgDesc{Name: "lazyrandom", Args: []uint64{uint64(1001 + 2*i)}},
				U:     c.u, V: c.v, Delay: c.delta,
				Budget: 1 << 22,
			})
		}
		plan.SetSeedRange(ci, 1000, uint64(1000+2*runs))
		// Batch-eligible, but each seed is its own program descriptor:
		// 32 cases make 64 solo recordings, far below the workers'
		// lanes-per-recording break-even, so the shard runs case by case.
		plan.SetBatch(ci)
	}
	results := runPlan(plan)
	times := make([]uint64, len(results))
	for i := range results {
		if res := results[i].Two; res.Outcome == sim.Met {
			times[i] = res.MeetingRound
		} else {
			times[i] = 1 << 22 // censored at budget
		}
	}
	for ci, c := range cases {
		sorted := append([]uint64(nil), times[ci*runs:(ci+1)*runs]...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		median := sorted[len(sorted)/2]
		max := sorted[len(sorted)-1]
		t.Check(max < 1<<22, "%s: a randomized run was censored at the budget", c.g)

		n := uint64(c.g.N())
		// Deterministic guarantee for the same STIC: symmetric pairs with
		// δ=0 are infeasible (∞); otherwise the universal bound.
		detCell := "infeasible (δ < Shrink)"
		if c.delta > 0 {
			detCell = itoa(rendezvous.UniversalRVTimeBound(n, c.delta, c.delta))
		}
		t.AddRow(c.g.String(), fmt.Sprintf("(%d,%d)", c.u, c.v), c.delta, runs, median, max, detCell)

		// Poly-scale sanity: median within c * n^3 for these families.
		t.Check(median <= uint64(c.g.N()*c.g.N()*c.g.N()*64),
			"%s: randomized median %d looks superpolynomial", c.g, median)
	}
	t.Notes = append(t.Notes,
		"Lazy walks (stay with probability 1/2) avoid the parity trap of synchronized walks on bipartite graphs.",
		"δ=0 symmetric rows are deterministically impossible (Lemma 3.1) yet randomization meets quickly — the paper's point that only the deterministic anonymous case needs time to break symmetry.")
	return t
}
