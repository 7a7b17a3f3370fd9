package experiments

import (
	"fmt"

	"repro/graph"
	"repro/rendezvous"
	"repro/sim"
	"repro/stic"
)

// E3 verifies the impossibility half of the characterization (Lemma 3.1):
// for symmetric pairs with δ < Shrink(u,v), no deterministic algorithm can
// achieve rendezvous. Two independent confirmations per STIC:
//
//  1. On port-homogeneous graphs every algorithm is equivalent to an
//     oblivious action word (the Theorem 4.1 reduction), and the
//     exhaustive word search closes the reachable state space without
//     finding a meeting — a machine-checked proof of infeasibility.
//  2. UniversalRV — which meets every feasible STIC — runs out a generous
//     budget without meeting.
//
// The pairs are classified serially; the (pair, δ) rows then run
// concurrently through sim.Sweep, one row per shard, and are rendered in
// input order from the position-stable results.
func E3() *Table {
	t := &Table{
		ID:       "E3",
		Title:    "Infeasibility below Shrink",
		PaperRef: "Lemma 3.1",
		Columns:  []string{"graph", "pair", "Shrink", "δ", "word search", "states", "UniversalRV"},
	}

	type inst struct {
		g    *graph.Graph
		u, v int
	}
	var cases []inst
	add := func(g *graph.Graph, pairs ...[2]int) {
		for _, p := range pairs {
			cases = append(cases, inst{g, p[0], p[1]})
		}
	}
	add(graph.TwoNode(), [2]int{0, 1})
	add(graph.Cycle(4), [2]int{0, 2})
	add(graph.Cycle(6), [2]int{0, 3}, [2]int{0, 2})
	add(graph.OrientedTorus(3, 3), [2]int{0, 4})
	q2, _ := graph.Qhat(2)
	add(q2, [2]int{0, 5})

	type row struct {
		s      stic.STIC
		shrink int
	}
	var rows []row
	for _, c := range cases {
		rep := stic.Classify(stic.STIC{G: c.g, U: c.u, V: c.v, Delay: 0})
		if !rep.Symmetric {
			t.Check(false, "%s pair (%d,%d) unexpectedly nonsymmetric", c.g, c.u, c.v)
			continue
		}
		if !stic.PortHomogeneous(c.g) {
			t.Check(false, "%s not port-homogeneous; word search not exhaustive over all algorithms", c.g)
			continue
		}
		for delta := uint64(0); delta < uint64(rep.Shrink); delta++ {
			rows = append(rows, row{stic.STIC{G: c.g, U: c.u, V: c.v, Delay: delta}, rep.Shrink})
		}
	}

	type outcome struct {
		res stic.WordResult
		err error
		uni sim.Result
	}
	outcomes := sim.Sweep(rows, 0, nil, func(sc *sim.Scratch, r row) outcome {
		s := r.s
		res, err := stic.SearchObliviousWord(s, 5_000_000)

		// UniversalRV negative control. The exhaustive search is the actual
		// impossibility proof; this run is a sanity check, so its budget is
		// kept modest: past the K2-scale guarantee phases but bounded for
		// speed.
		budget := uint64(2_000_000)
		if b := rendezvous.UniversalRVTimeBound(2, 1, s.Delay+1); b < rendezvous.RoundCap && 2*b > budget {
			budget = 2 * b
		}
		if budget > 4_000_000 {
			budget = 4_000_000
		}
		uni := sc.Session().Run(s.G, rendezvous.UniversalRV(), s.U, s.V, s.Delay, sim.Config{Budget: budget})
		return outcome{res, err, uni}
	})

	for i, r := range rows {
		s, o := r.s, outcomes[i]
		searchCell := "exhausted (proof)"
		if o.err != nil {
			searchCell = "error: " + o.err.Error()
			t.Check(false, "%s: %v", s, o.err)
		} else {
			t.Check(!o.res.Found, "%s: found word %v — impossibility violated!", s, o.res.Word)
			t.Check(o.res.Exhausted, "%s: search inconclusive at %d states", s, o.res.States)
			if o.res.Found {
				searchCell = "FOUND WORD"
			} else if !o.res.Exhausted {
				searchCell = "inconclusive"
			}
		}
		t.Check(o.uni.Outcome != sim.Met, "%s: UniversalRV met an infeasible STIC", s)
		uniCell := fmt.Sprintf("no meet in %d rounds", o.uni.Rounds)
		if o.uni.Outcome == sim.Met {
			uniCell = "MET (violation)"
		}

		t.AddRow(s.G.String(), fmt.Sprintf("(%d,%d)", s.U, s.V), r.shrink, s.Delay, searchCell, o.res.States, uniCell)
	}
	t.Notes = append(t.Notes,
		"'exhausted (proof)' means the full reachable state space of the word search was explored without a meeting; on these port-homogeneous graphs that is a proof over all deterministic algorithms, not just the ones we implemented.")
	return t
}
