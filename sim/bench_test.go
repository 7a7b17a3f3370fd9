package sim

import (
	"fmt"
	"testing"

	"repro/agent"
	"repro/graph"
)

// BenchmarkRoundThroughput measures raw scheduler speed: rounds per second
// with both agents moving every round (the worst case for the lock-step
// request/grant protocol — no fast-forwarding possible).
func BenchmarkRoundThroughput(b *testing.B) {
	g := graph.Cycle(64)
	walker := func(w agent.World) {
		for {
			w.Move(0)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := RunPrograms(g, walker, walker, 0, 1, 0, Config{Budget: 100_000})
		if res.Outcome != BudgetExhausted {
			b.Fatalf("unexpected outcome %v", res.Outcome)
		}
	}
	b.ReportMetric(100_000*float64(b.N)/b.Elapsed().Seconds(), "rounds/s")
}

// uxsStyleScript builds a long entry-relative walk script — the shape of
// one UXS application (port 0, then Rel-encoded terms), the hot loop of
// every algorithm in package rendezvous.
func uxsStyleScript(steps, n int) []int {
	script := make([]int, steps)
	script[0] = 0
	x := uint64(12345)
	for i := 1; i < steps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		script[i] = agent.Rel(int(x>>33) % n)
	}
	return script
}

// BenchmarkScriptedWalk measures the batched execution engine: both
// agents loop a long MoveSeq script, so the scheduler steps positions in
// its tight lock-step loop without switching into the programs.
func BenchmarkScriptedWalk(b *testing.B) {
	benchWalk(b, false)
}

// BenchmarkPerMoveWalk is the identical walk through the per-move
// reference path (a coroutine switch into each program per round) — the
// seed engine's only mode, kept as the speedup baseline.
func BenchmarkPerMoveWalk(b *testing.B) {
	benchWalk(b, true)
}

func benchWalk(b *testing.B, unbatched bool) {
	g := graph.Cycle(64)
	script := uxsStyleScript(4096, 64)
	prog := func(w agent.World) {
		for {
			w.MoveSeq(script)
		}
	}
	if unbatched {
		prog = agent.Unbatched(prog)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := RunPrograms(g, prog, prog, 0, 32, 0, Config{Budget: 100_000})
		if res.Outcome != BudgetExhausted {
			b.Fatalf("unexpected outcome %v", res.Outcome)
		}
	}
	b.ReportMetric(100_000*float64(b.N)/b.Elapsed().Seconds(), "rounds/s")
}

// BenchmarkMultiScriptedWalk measures the k-agent direct-execution
// scheduler's raw round throughput with every agent looping a long
// script — the k-agent analogue of BenchmarkScriptedWalk, and the
// number to compare against it (the engine rework targets multi-agent
// sweeps within an order of magnitude of two-agent scripted speed; the
// gap is the O(k²) per-round meeting scan).
func BenchmarkMultiScriptedWalk(b *testing.B) {
	for _, k := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			g := graph.Cycle(64)
			script := uxsStyleScript(4096, 64)
			prog := func(w agent.World) {
				for {
					w.MoveSeq(script)
				}
			}
			agents := make([]MultiAgent, k)
			for i := range agents {
				agents[i] = MultiAgent{Program: prog, Start: (i * 64) / k}
			}
			sess := NewSession()
			defer sess.Close()
			cfg := MultiConfig{Budget: 100_000}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := sess.RunMany(g, agents, cfg)
				if res.Rounds != 100_000 {
					b.Fatalf("unexpected early stop at %d", res.Rounds)
				}
			}
			b.ReportMetric(100_000*float64(b.N)/b.Elapsed().Seconds(), "rounds/s")
		})
	}
}

// BenchmarkFastForward measures the wait fast-path: two agents trading
// astronomical waits must finish in microseconds regardless of the
// simulated round count.
func BenchmarkFastForward(b *testing.B) {
	g := graph.TwoNode()
	sleeper := func(w agent.World) {
		for i := 0; i < 100; i++ {
			w.Wait(1 << 40)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := Run(g, sleeper, 0, 1, 0, Config{Budget: 1 << 50})
		if res.Outcome != NeverMeet {
			b.Fatalf("unexpected outcome %v", res.Outcome)
		}
	}
}

// batchShardCases builds the BenchmarkBatchShard workload: w short
// two-agent cases on g, the delay/budget grid of one program pair at
// fixed starts — the shard shape every production sweep emits (E7's
// grid varies delay and budget over a fixed instance; E12 sweeps delays
// per seed). The pair is the paper's "waiting for Mommy" reduction: a
// UXS-style scripted searcher against agent.Sit. The per-case engine
// pays full scheduling freight — acquire/release, a program execution
// per agent — for every grid point; the batch engine records the pair
// once and resolves the whole grid against it, which is exactly the
// amortization being measured. The searcher alternates one application
// with an equal hold (the enhanced-trajectory discipline the rendezvous
// algorithms use to tolerate unknown delay).
func batchShardCases(w int, g *graph.Graph, script []int) []PairCase {
	prog := func(wd agent.World) {
		for {
			wd.MoveSeq(script)
			wd.Wait(uint64(len(script)))
		}
	}
	cases := make([]PairCase, w)
	for i := range cases {
		cases[i] = PairCase{
			ProgA: prog, ProgB: agent.Sit,
			U: 0, V: 17,
			Delay:  uint64(i % 7),
			Budget: uint64(48 + 4*(i%5)),
		}
	}
	return cases
}

// reportCases adds the per-case metrics benchdiff gates: how many cases
// per second the engine sustains, and what one case costs.
func reportCases(b *testing.B, casesPerOp int) {
	total := float64(casesPerOp) * float64(b.N)
	b.ReportMetric(total/b.Elapsed().Seconds(), "cases/sec")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/case")
}

// BenchmarkBatchShard measures the record-and-resolve batch engine on a
// whole shard of W cases per op — the batch analogue of the per-case
// loop in BenchmarkBatchShardPerCase, same workload, same session
// pattern. The cases/sec ratio between the two is the batch speedup.
func BenchmarkBatchShard(b *testing.B) {
	g := graph.Cycle(32)
	script := uxsStyleScript(32, 32)
	for _, w := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("W=%d", w), func(b *testing.B) {
			cases := batchShardCases(w, g, script)
			sess := NewSession()
			defer sess.Close()
			batch := NewBatch()
			sess.RunPairsBatch(g, cases, batch) // warm the pool and arena
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sess.RunPairsBatch(g, cases, batch)
			}
			reportCases(b, w)
		})
	}
}

// BenchmarkInstrumentedShard pins the observability overhead: the same
// W=64 batch shard as BenchmarkBatchShard, named separately so the
// benchdiff record tracks the instrumented engine path explicitly. The
// obs publishing contract (run totals flushed as a handful of atomic
// adds at run end, nothing per wakeup) must keep this at 0 allocs/op;
// TestInstrumentedBatchShardAllocs enforces that as a hard test.
func BenchmarkInstrumentedShard(b *testing.B) {
	g := graph.Cycle(32)
	script := uxsStyleScript(32, 32)
	const w = 64
	cases := batchShardCases(w, g, script)
	sess := NewSession()
	defer sess.Close()
	batch := NewBatch()
	sess.RunPairsBatch(g, cases, batch) // warm the pool and arena
	before := obsRuns[runKindBatch].Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.RunPairsBatch(g, cases, batch)
	}
	b.StopTimer()
	if obsRuns[runKindBatch].Value() == before {
		b.Fatal("instrumentation did not publish")
	}
	reportCases(b, w)
}

// BenchmarkBatchShardPerCase is the identical shard through the per-case
// engine: one Session.RunPrograms call per case on the same pooled
// session — the pre-batch execution strategy, kept as the speedup
// baseline.
func BenchmarkBatchShardPerCase(b *testing.B) {
	g := graph.Cycle(32)
	script := uxsStyleScript(32, 32)
	for _, w := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("W=%d", w), func(b *testing.B) {
			cases := batchShardCases(w, g, script)
			sess := NewSession()
			defer sess.Close()
			for i := range cases {
				c := &cases[i]
				sess.RunPrograms(g, c.ProgA, c.ProgB, c.U, c.V, c.Delay, Config{Budget: c.Budget})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range cases {
					c := &cases[j]
					sess.RunPrograms(g, c.ProgA, c.ProgB, c.U, c.V, c.Delay, Config{Budget: c.Budget})
				}
			}
			reportCases(b, w)
		})
	}
}

// BenchmarkParallelSweep measures the experiment-harness pattern: many
// independent runs fanned out over the worker pool, at several pool
// sizes, so the speedup curve is visible in the bench output.
func BenchmarkParallelSweep(b *testing.B) {
	g := graph.Cycle(16)
	type task struct {
		v     int
		delay uint64
	}
	var tasks []task
	for v := 1; v < 16; v++ {
		for d := uint64(0); d < 8; d++ {
			tasks = append(tasks, task{v, d})
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ParallelMap(tasks, workers, func(tk task) Result {
					return Run(g, agent.MoveEveryRound, 0, tk.v, tk.delay, Config{Budget: 5_000})
				})
			}
		})
	}
}
