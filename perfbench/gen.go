package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/dist"
	"repro/graph"
	"repro/rendezvous"
	"repro/sim"
	"repro/stic"
)

// The sweep mix. Each seed draws a fresh plan with the same shape:
//
//	(a) oneCaseShards one-case shards of UniversalRV on nonsymmetric
//	    pairs of random connected graphs, n in [3, 6]: microseconds of
//	    engine work each, so dispatch cost dominates;
//	(b) one batch-flagged shard per symmetric family holding every
//	    ordered pair with δ = Shrink and Shrink+1, plus every infeasible
//	    δ < Shrink on families of at most infeasibleMaxN nodes: those run
//	    UniversalRV to budget, so engine fast-forward dominates;
//	(c) one lazyrandom batch of lazySeeds seeded runs per lazy graph, on
//	    a seeded pair and delay (the E12 shape);
//	(d) every start permutation of three UniversalRV agents on P3 (the
//	    E17 shape), as KindMulti cases, two per shard.
//
// The seed picks the random graphs, pairs, delays, program seeds, case
// order and shard grouping, while the expensive parts — the infeasible
// and the k-agent cases — are fixed, so the cost of an op barely
// depends on the seed. Infeasible cases stop at infeasibleMaxN nodes:
// on a 2-vCPU x86 VM, running UniversalRV to budget costs ~2 ms per
// case on ring-3 but 12-45 ms on ring-4 and 50-150 ms on ring-5, so a
// larger cap would let one shard set the whole op's time.
const (
	oneCaseShards  = 192
	lazySeeds      = 16
	lazyBudget     = 1 << 22
	multiPerShard  = 2
	infeasibleMaxN = 3
)

// Mix kinds, one per part of the mix above.
const (
	mixOneCase = iota
	mixFamily
	mixLazy
	mixMulti
)

// shardKey groups planner cases: one shard per (mix, id).
type shardKey struct {
	mix, id int
}

// pairCheck is the oracle of one agent pair of a KindMulti case: the
// pair must meet by deadline (an absolute round) when feasible, and
// never when not.
type pairCheck struct {
	i, j     int
	feasible bool
	deadline uint64
}

// sweepCase is one planned case plus what the oracle needs to judge it.
type sweepCase struct {
	mix  int
	n    int // graph size
	desc dist.CaseDesc
	// Two-agent UniversalRV cases (mixOneCase, mixFamily).
	symmetric, feasible bool
	bound               uint64 // Theorem 3.1 guarantee, rounds after the later agent
	// KindMulti cases (mixMulti).
	pairs []pairCheck
}

// sweepInput is one seed's plan and its oracle data, indexed like the
// planner's flattened results.
type sweepInput struct {
	plan       *dist.Planner
	cases      []sweepCase
	classifyMs float64 // time spent in the stic oracle while generating
}

// guaranteeBound is the Theorem 3.1 guarantee for a feasible STIC: the
// duration through the phase matching the true parameters (the
// nonsymmetric case meets in the AsymmRV part of hypothesis d=1).
func guaranteeBound(n int, rep stic.Report, delta uint64) uint64 {
	d := uint64(rep.Shrink)
	if !rep.Symmetric || d == 0 {
		d = 1
	}
	return rendezvous.UniversalRVTimeBound(uint64(n), d, delta)
}

// universalBudget runs feasible cases to twice their guarantee and
// infeasible ones past the phase that would match (n, Shrink, δ+1), so
// a late meeting would show (the E7 rule).
func universalBudget(n int, rep stic.Report, delta uint64) uint64 {
	b := guaranteeBound(n, rep, delta)
	if !rep.Feasible {
		b = rendezvous.UniversalRVTimeBound(uint64(n), uint64(rep.Shrink), delta+1)
	}
	if b >= rendezvous.RoundCap/4 {
		return rendezvous.RoundCap / 4
	}
	return delta + 2*b
}

var universal = dist.ProgDesc{Name: "universal"}

type generator struct {
	r     *rand.Rand
	cl    stic.Classifier
	clDur time.Duration
	in    *sweepInput
}

func (g *generator) classify(s stic.STIC) stic.Report {
	t0 := time.Now()
	rep := g.cl.Classify(s)
	g.clDur += time.Since(t0)
	return rep
}

func (g *generator) add(key shardKey, gr *graph.Graph, c sweepCase) {
	c.n = gr.N()
	g.in.plan.Add(key, gr, c.desc)
	g.in.cases = append(g.in.cases, c)
}

func (g *generator) twoAgent(mix int, key shardKey, gr *graph.Graph, u, v int, delta uint64, rep stic.Report) {
	g.add(key, gr, sweepCase{
		mix: mix,
		desc: dist.CaseDesc{
			Kind: dist.KindTwoAgent, ProgA: universal, ProgB: universal,
			U: u, V: v, Delay: delta, Budget: universalBudget(gr.N(), rep, delta),
		},
		symmetric: rep.Symmetric, feasible: rep.Feasible,
		bound: guaranteeBound(gr.N(), rep, delta),
	})
}

// randomGraph draws a random connected graph on n nodes with up to two
// extra edges.
func (g *generator) randomGraph(n int) *graph.Graph {
	extra := g.r.IntN(3)
	if m := n*(n-1)/2 - (n - 1); extra > m {
		extra = m
	}
	return graph.RandomConnected(n, extra, g.r.Uint64())
}

// genSweep draws the sweep plan for seed.
func genSweep(seed uint64) *sweepInput {
	g := &generator{r: rand.New(rand.NewPCG(seed, 0x5eed_5eed)), in: &sweepInput{plan: &dist.Planner{}}}

	// (a) One-case shards on nonsymmetric pairs of random graphs.
	for id := 0; id < oneCaseShards; {
		gr := g.randomGraph(3 + g.r.IntN(4))
		u, v := g.r.IntN(gr.N()), g.r.IntN(gr.N())
		delta := uint64(g.r.IntN(4))
		rep := g.classify(stic.STIC{G: gr, U: u, V: v, Delay: delta})
		if u == v || rep.Symmetric {
			continue
		}
		g.twoAgent(mixOneCase, shardKey{mixOneCase, id}, gr, u, v, delta, rep)
		id++
	}

	// (b) One batch shard per symmetric family.
	families := []*graph.Graph{graph.TwoNode(), graph.Cycle(3), graph.Cycle(4), graph.Cycle(5), graph.Hypercube(2), graph.Complete(4)}
	for id, gr := range families {
		key := shardKey{mixFamily, id}
		type stc struct {
			u, v  int
			delta uint64
		}
		var picked []stc
		for u := 0; u < gr.N(); u++ {
			for v := 0; v < gr.N(); v++ {
				if u == v {
					continue
				}
				shrink := uint64(g.classify(stic.STIC{G: gr, U: u, V: v}).Shrink)
				lo := shrink
				if gr.N() <= infeasibleMaxN {
					lo = 0
				}
				for delta := lo; delta <= shrink+1; delta++ {
					picked = append(picked, stc{u, v, delta})
				}
			}
		}
		g.r.Shuffle(len(picked), func(i, j int) { picked[i], picked[j] = picked[j], picked[i] })
		for _, s := range picked {
			rep := g.classify(stic.STIC{G: gr, U: s.u, V: s.v, Delay: s.delta})
			g.twoAgent(mixFamily, key, gr, s.u, s.v, s.delta, rep)
		}
		g.in.plan.SetBatch(key)
	}

	// (c) lazyrandom seed batches.
	lazyGraphs := []*graph.Graph{graph.Cycle(4), graph.Cycle(6), graph.Cycle(8), graph.OrientedTorus(3, 3), graph.Hypercube(3)}
	for id, gr := range lazyGraphs {
		key := shardKey{mixLazy, id}
		v := 1 + g.r.IntN(gr.N()-1)
		delta := uint64(g.r.IntN(4))
		lo := 1000 + uint64(g.r.IntN(1<<20))*2*lazySeeds
		for i := uint64(0); i < lazySeeds; i++ {
			g.add(key, gr, sweepCase{mix: mixLazy, desc: dist.CaseDesc{
				Kind:  dist.KindTwoAgent,
				ProgA: dist.ProgDesc{Name: "lazyrandom", Args: []uint64{lo + 2*i}},
				ProgB: dist.ProgDesc{Name: "lazyrandom", Args: []uint64{lo + 2*i + 1}},
				U:     0, V: v, Delay: delta, Budget: lazyBudget,
			}})
		}
		g.in.plan.SetSeedRange(key, lo, lo+2*lazySeeds)
		g.in.plan.SetBatch(key)
	}

	// (d) Three-agent UniversalRV cases on P3, the third agent one round
	// late. Every pair of P3 is nonsymmetric, so each case's budget —
	// one round past its last pair's guarantee — is the same.
	p3 := graph.Path(3)
	appear := []uint64{0, 0, 1}
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	g.r.Shuffle(len(perms), func(i, j int) { perms[i], perms[j] = perms[j], perms[i] })
	for ci, starts := range perms {
		key := shardKey{mixMulti, ci / multiPerShard}
		c := sweepCase{mix: mixMulti, desc: dist.CaseDesc{Kind: dist.KindMulti}}
		for i := range starts {
			c.desc.Agents = append(c.desc.Agents, dist.AgentDesc{Prog: universal, Start: starts[i], Appear: appear[i]})
			for j := i + 1; j < len(starts); j++ {
				pd := appear[j] - appear[i]
				rep := g.classify(stic.STIC{G: p3, U: starts[i], V: starts[j], Delay: pd})
				pc := pairCheck{i: i, j: j, feasible: rep.Feasible}
				if rep.Feasible {
					pc.deadline = appear[j] + guaranteeBound(p3.N(), rep, pd)
					c.desc.Budget = max(c.desc.Budget, pc.deadline+1)
				}
				c.pairs = append(c.pairs, pc)
			}
		}
		g.add(key, p3, c)
		g.in.plan.SetBatch(key)
	}

	g.in.classifyMs = float64(g.clDur.Nanoseconds()) / 1e6
	return g.in
}

// checkCase is the per-case oracle.
func checkCase(c *sweepCase, r *dist.CaseResult) error {
	if r.Kind != c.desc.Kind {
		return fmt.Errorf("result kind %d, want %d", r.Kind, c.desc.Kind)
	}
	if c.desc.Kind == dist.KindMulti {
		res := r.Multi
		if err := sim.GatherCheck(res); err != nil {
			return err
		}
		if res.Rounds > c.desc.Budget {
			return fmt.Errorf("ran %d rounds past budget %d", res.Rounds, c.desc.Budget)
		}
		metAt := map[[2]int]uint64{}
		for _, m := range res.Meetings {
			metAt[[2]int{m.A, m.B}] = m.Round
		}
		for _, p := range c.pairs {
			round, met := metAt[[2]int{p.i, p.j}]
			switch {
			case met != p.feasible:
				return fmt.Errorf("pair (%d,%d): met=%v but feasible=%v", p.i, p.j, met, p.feasible)
			case met && round > p.deadline:
				return fmt.Errorf("pair (%d,%d) met at round %d, after its guarantee %d", p.i, p.j, round, p.deadline)
			}
		}
		return nil
	}
	res := r.Two
	met := res.Outcome == sim.Met
	if res.Rounds > c.desc.Budget {
		return fmt.Errorf("ran %d rounds past budget %d", res.Rounds, c.desc.Budget)
	}
	if met && (res.MeetingRound < c.desc.Delay || res.TimeFromLater != res.MeetingRound-c.desc.Delay) {
		return fmt.Errorf("met at round %d with time-from-later %d, delay %d", res.MeetingRound, res.TimeFromLater, c.desc.Delay)
	}
	if c.mix == mixLazy {
		if !met {
			return fmt.Errorf("lazyrandom run did not meet within budget %d", c.desc.Budget)
		}
		return nil
	}
	switch {
	case met != c.feasible:
		return fmt.Errorf("outcome %v but feasible=%v", res.Outcome, c.feasible)
	case met && res.TimeFromLater > c.bound:
		return fmt.Errorf("met %d rounds after the later agent, past the guarantee %d", res.TimeFromLater, c.bound)
	}
	return nil
}

// checkSweep runs the oracle over a whole sweep's flattened results.
func checkSweep(in *sweepInput, res []dist.CaseResult) error {
	if len(res) != len(in.cases) {
		return fmt.Errorf("sweep returned %d results for %d cases", len(res), len(in.cases))
	}
	var errs []error
	for i := range in.cases {
		if err := checkCase(&in.cases[i], &res[i]); err != nil {
			errs = append(errs, fmt.Errorf("case %d (mix %d, n=%d): %w", i, in.cases[i].mix, in.cases[i].n, err))
		}
	}
	return errors.Join(errs...)
}
