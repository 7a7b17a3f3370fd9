package experiments

import (
	"fmt"

	"repro/graph"
	"repro/sim"
	"repro/uxs"
)

// E18 is the ablation for substitution S1 (DESIGN.md): how much generated
// sequence does the UXS actually need? For each length multiplier the
// table reports the fraction of random connected graphs (and of the
// experiment families) covered from every start. The default multiplier
// must cover everything the experiments rely on; shorter prefixes start
// failing, which is precisely why the Covers verifier exists — a paper
// implementation that silently trusted a too-short sequence would turn
// "rendezvous guaranteed" into "rendezvous usually".
//
// The random graphs and families are built once; every (multiplier,
// graph) cover check then runs in a single sim.Sweep, sharded by
// (multiplier, n), and the rows are tallied in input order.
func E18() *Table {
	t := &Table{
		ID:       "E18",
		Title:    "Ablation: UXS length vs covering probability",
		PaperRef: "Section 2 (UXS) / substitution S1",
		Columns:  []string{"length multiplier", "random graphs covered", "families covered", "shortest failing family"},
	}
	const samples = 120
	multipliers := []struct {
		label string
		num   int
		den   int
	}{
		{"1/8", 1, 8}, {"1/4", 1, 4}, {"1/2", 1, 2}, {"1 (default)", 1, 1}, {"2", 2, 1},
	}

	// The graphs are built once and shared by every multiplier: the random
	// samples first, then the experiment families.
	var graphs []*graph.Graph
	for i := 0; i < samples; i++ {
		n := 4 + i%10
		maxExtra := n*(n-1)/2 - (n - 1)
		extra := i % 4
		if extra > maxExtra {
			extra = maxExtra
		}
		graphs = append(graphs, graph.RandomConnected(n, extra, uint64(1000+i)))
	}
	fams := []*graph.Graph{
		graph.TwoNode(), graph.Path(6), graph.Cycle(10), graph.Star(6),
		graph.OrientedTorus(3, 4), graph.Hypercube(3),
		graph.SymmetricTree(graph.ChainShape(3)),
		graph.Tree(graph.FullShape(2, 2)), graph.Petersen(),
		graph.Lollipop(5, 5),
	}
	graphs = append(graphs, fams...)

	// Every (multiplier, graph) cover check runs in one sweep, sharded by
	// (multiplier, n) so one sequence's checks share a worker.
	type check struct {
		mul int
		g   *graph.Graph
		s   uxs.Sequence
	}
	type shardKey struct{ mul, n int }
	var checks []check
	for mi, mul := range multipliers {
		for _, g := range graphs {
			l := uxs.DefaultLength(g.N()) * mul.num / mul.den
			if l < 1 {
				l = 1
			}
			checks = append(checks, check{mi, g, uxs.GenerateLength(g.N(), l)})
		}
	}
	covered := sim.Sweep(checks, 0, func(c check) any { return shardKey{c.mul, c.g.N()} }, func(_ *sim.Scratch, c check) bool {
		return uxs.Covers(c.g, c.s)
	})

	for mi, mul := range multipliers {
		row := covered[mi*len(graphs) : (mi+1)*len(graphs)]
		okRandom := 0
		for _, c := range row[:samples] {
			if c {
				okRandom++
			}
		}
		okFamilies := 0
		failing := "-"
		for i, g := range fams {
			if row[samples+i] {
				okFamilies++
			} else if failing == "-" {
				failing = g.String()
			}
		}

		t.AddRow(mul.label,
			fmt.Sprintf("%d/%d", okRandom, samples),
			fmt.Sprintf("%d/%d", okFamilies, len(fams)),
			failing)
		if mul.num == 1 && mul.den == 1 {
			t.Check(okRandom == samples, "default length misses %d random graphs", samples-okRandom)
			t.Check(okFamilies == len(fams), "default length misses families (first: %s)", failing)
		}
		if mul.label == "2" {
			t.Check(okRandom == samples && okFamilies == len(fams), "2x length still failing somewhere")
		}
	}
	t.Notes = append(t.Notes,
		"The default multiplier must cover every sample — that row doubles as the suite's standing verification of substitution S1.",
		"Short prefixes failing first on the lollipop/path shapes mirrors the classical cover-time worst cases.")
	return t
}
