package dist_test

// Batch-execution pins: the ShardDesc.Batch flag survives the codec, the
// batch execution path (ExecShardBatch / batch-flagged shards through a
// backend) produces ShardResults identical to the per-case path —
// per-case wakeup counts included, which is what keeps the experiment
// tables byte-identical whichever engine ran them — and the planner's
// SetBatch stamps the right shard.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/dist"
	"repro/graph"
	"repro/internal/obs"
	"repro/internal/simtest"
	"repro/sim"
)

func TestShardBatchFlagRoundTrip(t *testing.T) {
	for _, batch := range []bool{false, true} {
		sh := &dist.ShardDesc{
			GraphText: graph.Encode(graph.Cycle(4)),
			Batch:     batch,
			Cases: []dist.CaseDesc{{
				Kind:  dist.KindTwoAgent,
				ProgA: dist.ProgDesc{Name: "sit"},
				ProgB: dist.ProgDesc{Name: "moveevery"},
				U:     0, V: 2, Budget: 50,
			}},
		}
		var got dist.ShardDesc
		if err := got.Decode(sh.Encode()); err != nil {
			t.Fatalf("batch=%v: %v", batch, err)
		}
		if !reflect.DeepEqual(&got, sh) {
			t.Fatalf("batch=%v: round trip drifted\n  in:  %+v\n  out: %+v", batch, sh, &got)
		}
	}
}

// TestExecShardBatchMatchesPerCase runs randomized mixed-kind shards
// through both execution paths on separate sessions and requires
// identical ShardResults — the dist-layer restatement of the sim-layer
// differential suite, covering the case grouping (runs of consecutive
// same-kind cases) and the per-lane wakeup attribution.
func TestExecShardBatchMatchesPerCase(t *testing.T) {
	r := rand.New(rand.NewSource(0xD15B))
	perCase := sim.NewSession()
	defer perCase.Close()
	batched := sim.NewSession()
	defer batched.Close()
	arena := sim.NewBatch()
	for round := 0; round < 8; round++ {
		p, _ := buildPlan(r)
		for _, sh := range p.Shards() {
			want, err := dist.ExecShard(perCase, sh)
			if err != nil {
				t.Fatalf("round %d: per-case: %v", round, err)
			}
			got, err := dist.ExecShardBatch(batched, arena, sh)
			if err != nil {
				t.Fatalf("round %d: batch: %v", round, err)
			}
			simtest.RequireEqualResult(t, fmt.Sprintf("round %d, %d-case shard", round, len(sh.Cases)), want, got)
		}
	}
}

// TestExecShardBatchRoutesByBreakEven pins fixed shards on both sides of
// the lanes-per-recording break-even: each must equal per-case execution
// on full ShardResult equality, and the process run counters must show
// which engine ran it — one RunPairsBatch call above the break-even, none
// below. The shard above it keeps the dist batch path on the resolver
// whatever the randomized shards of TestExecShardBatchMatchesPerCase
// happen to draw.
func TestExecShardBatchRoutesByBreakEven(t *testing.T) {
	universal := dist.ProgDesc{Name: "universal"}
	k2 := graph.Encode(graph.TwoNode())
	ring := graph.Encode(graph.Cycle(6))
	// E7's shape: UniversalRV on one pair, a few delays — 3 lanes on 2
	// recordings.
	e7 := &dist.ShardDesc{GraphText: k2, Batch: true}
	for _, d := range []uint64{1, 2, 3} {
		e7.Cases = append(e7.Cases, dist.CaseDesc{Kind: dist.KindTwoAgent, ProgA: universal, ProgB: universal, U: 0, V: 1, Delay: d, Budget: 4000})
	}
	// E12's shape: every seed is a distinct descriptor, so 8 lanes make
	// 16 recordings.
	lazy := &dist.ShardDesc{GraphText: ring, Batch: true, SeedLo: 100, SeedHi: 116}
	for i := uint64(0); i < 8; i++ {
		lazy.Cases = append(lazy.Cases, dist.CaseDesc{
			Kind:  dist.KindTwoAgent,
			ProgA: dist.ProgDesc{Name: "lazyrandom", Args: []uint64{100 + 2*i}},
			ProgB: dist.ProgDesc{Name: "lazyrandom", Args: []uint64{101 + 2*i}},
			U:     0, V: 3, Delay: 2, Budget: 1 << 16,
		})
	}
	// A parameter grid on one pair: 16 lanes on 2 recordings, met and
	// budget-exhausted lanes mixed, one lane whose later agent never
	// appears.
	grid := &dist.ShardDesc{GraphText: ring, Batch: true}
	for d := uint64(0); d < 16; d++ {
		grid.Cases = append(grid.Cases, dist.CaseDesc{Kind: dist.KindTwoAgent, ProgA: universal, ProgB: universal, U: 0, V: 2, Delay: d, Budget: 200 + 400*d})
	}
	grid.Cases[15].Budget = 10

	batchRuns := obs.Default().Counter(`sim_runs_total{engine="batch"}`, "")
	perCase := sim.NewSession()
	defer perCase.Close()
	batched := sim.NewSession()
	defer batched.Close()
	arena := sim.NewBatch()
	outcomes := map[sim.Outcome]bool{}
	for _, tc := range []struct {
		name  string
		sh    *dist.ShardDesc
		batch uint64 // RunPairsBatch calls expected
	}{
		{"e7 3 lanes/2 recordings", e7, 0},
		{"lazyrandom seed batch", lazy, 0},
		{"16-lane grid on one pair", grid, 1},
	} {
		want, err := dist.ExecShard(perCase, &dist.ShardDesc{GraphText: tc.sh.GraphText, SeedLo: tc.sh.SeedLo, SeedHi: tc.sh.SeedHi, Cases: tc.sh.Cases})
		if err != nil {
			t.Fatalf("%s: per-case: %v", tc.name, err)
		}
		before := batchRuns.Value()
		got, err := dist.ExecShardBatch(batched, arena, tc.sh)
		if err != nil {
			t.Fatalf("%s: batch: %v", tc.name, err)
		}
		if ran := batchRuns.Value() - before; ran != tc.batch {
			t.Fatalf("%s: %d RunPairsBatch calls, want %d", tc.name, ran, tc.batch)
		}
		simtest.RequireEqualResult(t, tc.name, want, got)
		if tc.sh == grid {
			for _, c := range want.Cases {
				outcomes[c.Two.Outcome] = true
			}
		}
	}
	if !outcomes[sim.Met] || !outcomes[sim.BudgetExhausted] {
		t.Fatalf("grid lanes should both meet and exhaust their budgets: %v", outcomes)
	}
}

// TestDifferentialBatchBackend re-runs the backend differential with
// every shard batch-flagged: dispatched batch execution must still equal
// the raw in-process sim.Sweep on full result equality.
func TestDifferentialBatchBackend(t *testing.T) {
	be := dist.NewInProcess(2)
	defer be.Close()
	r := rand.New(rand.NewSource(0xD15C))
	for round := 0; round < 6; round++ {
		p, cases := buildPlan(r)
		for _, sh := range p.Shards() {
			sh.Batch = true
		}
		want := rawSweep(t, cases)
		got, err := p.Run(be)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		simtest.RequireEqualResults(t, fmt.Sprintf("batch round %d", round), want, got)
	}
}

func TestPlannerSetBatch(t *testing.T) {
	p := &dist.Planner{}
	g := graph.Cycle(4)
	p.Add("a", g, dist.CaseDesc{Kind: dist.KindTwoAgent, ProgA: dist.ProgDesc{Name: "sit"}, ProgB: dist.ProgDesc{Name: "sit"}, Budget: 10})
	p.Add("b", g, dist.CaseDesc{Kind: dist.KindTwoAgent, ProgA: dist.ProgDesc{Name: "sit"}, ProgB: dist.ProgDesc{Name: "sit"}, Budget: 10})
	p.SetBatch("b")
	shards := p.Shards()
	if shards[0].Batch || !shards[1].Batch {
		t.Fatalf("SetBatch stamped the wrong shard: %v %v", shards[0].Batch, shards[1].Batch)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetBatch on an unknown key must panic")
		}
	}()
	p.SetBatch("no-such-key")
}
