package sim_test

// Pooled-runner session tests: isolation of reused runners across
// consecutive cases of a Sweep shard (run under -race in CI), stash
// reuse, panic propagation through pooled runners, the agent coroutine
// lifecycle (aborts, reuse, Close, concurrent batches), and the
// steady-state allocation guarantee of the k-agent phase loop.

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/agent"
	"repro/graph"
	"repro/rendezvous"
	"repro/sim"
)

// TestSessionReuseMatchesFresh drives many heterogeneous runs through
// ONE session — different graphs, programs, delays, and abort points —
// and checks every result against a fresh-session run. Any state bleed
// through the pooled coroutines or script buffers (stale requests, stale
// grants, leftover wait accumulators) would surface as a result
// mismatch.
func TestSessionReuseMatchesFresh(t *testing.T) {
	sess := sim.NewSession()
	defer sess.Close()

	type c struct {
		g      *graph.Graph
		pa, pb agent.Program
		u, v   int
		delay  uint64
		budget uint64
	}
	leader, sitter := rendezvous.WaitForMommy(7)
	cases := []c{
		// Aborted mid-script (meeting), mid-wait (budget), and normal
		// termination (NeverMeet), alternating graphs and programs.
		{graph.TwoNode(), agent.MoveEveryRound, agent.MoveEveryRound, 0, 1, 1, 100},
		{graph.Cycle(7), leader, sitter, 0, 4, 3, 10 * rendezvous.UXSRoundTrip(7)},
		{graph.Path(3), agent.Script([]int{0}), agent.Script([]int{0}), 0, 2, 0, 50},
		{graph.Cycle(5), agent.Sit, agent.Sit, 0, 2, 0, 1 << 30},
		{graph.Path(4), func(w agent.World) {}, func(w agent.World) {}, 0, 3, 2, 1 << 20},
		{graph.Cycle(6), rendezvous.UniversalRV(), rendezvous.UniversalRV(), 0, 3, 3, 50_000},
		{graph.TwoNode(), agent.MoveEveryRound, agent.Sit, 0, 1, 0, 77},
	}
	for round := 0; round < 8; round++ {
		for i, cc := range cases {
			got := sess.RunPrograms(cc.g, cc.pa, cc.pb, cc.u, cc.v, cc.delay, sim.Config{Budget: cc.budget})
			want := sim.RunPrograms(cc.g, cc.pa, cc.pb, cc.u, cc.v, cc.delay, sim.Config{Budget: cc.budget})
			if got != want {
				t.Fatalf("round %d case %d: pooled %+v != fresh %+v", round, i, got, want)
			}
		}
	}
}

// TestSweepSessionIsolation runs a sweep whose shards share workers (and
// therefore Scratch arenas, stashes and pooled sessions) and checks
// position-stable, bleed-free results; CI runs it under -race, which
// additionally proves no two cases ever touch one session concurrently.
func TestSweepSessionIsolation(t *testing.T) {
	type job struct {
		g     *graph.Graph
		v     int
		delay uint64
	}
	graphs := []*graph.Graph{graph.Cycle(8), graph.Cycle(12), graph.Path(5), graph.OrientedTorus(3, 3)}
	var jobs []job
	for gi, g := range graphs {
		for v := 1; v < g.N(); v++ {
			jobs = append(jobs, job{g, v, uint64(gi + v)})
		}
	}
	run := func(workers int) []sim.Result {
		return sim.Sweep(jobs, workers, func(j job) any { return j.g }, func(sc *sim.Scratch, j job) sim.Result {
			// Exercise the stash alongside the session: a per-worker
			// counter must never be shared across workers.
			type stash struct{ runs int }
			st := sc.Stash(func() any { return &stash{} }).(*stash)
			st.runs++
			return sc.Session().Run(j.g, agent.MoveEveryRound, 0, j.v, j.delay, sim.Config{Budget: 3_000})
		})
	}
	want := run(1)
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: sweep results differ from sequential", workers)
		}
	}
}

// TestSweepSessionMultiAgentIsolation is the k-agent form: consecutive
// RunMany calls on one worker's session must not bleed meeting matrices,
// runner state or script buffers into each other.
func TestSweepSessionMultiAgentIsolation(t *testing.T) {
	type job struct {
		g *graph.Graph
		k int
	}
	var jobs []job
	for i := 0; i < 12; i++ {
		jobs = append(jobs, job{graph.Cycle(5 + i%3), 2 + i%3})
	}
	run := func(workers int) []sim.MultiResult {
		return sim.Sweep(jobs, workers, func(j job) any { return j.g }, func(sc *sim.Scratch, j job) sim.MultiResult {
			agents := make([]sim.MultiAgent, j.k)
			for a := range agents {
				agents[a] = sim.MultiAgent{Program: agent.MoveEveryRound, Start: a, Appear: uint64(a)}
			}
			return sc.Session().RunMany(j.g, agents, sim.MultiConfig{Budget: 2_000})
		})
	}
	want := run(1)
	got := run(4)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parallel sweep results differ from sequential\n got: %+v\nwant: %+v", got, want)
	}
}

// TestSessionPanicPropagation: a program panic must surface to the
// caller even through a pooled, reused runner — and the session must
// remain usable afterwards.
func TestSessionPanicPropagation(t *testing.T) {
	sess := sim.NewSession()
	defer sess.Close()
	g := graph.TwoNode()

	boom := func(w agent.World) {
		w.Move(0)
		panic("boom")
	}
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("expected the program panic to propagate")
			}
		}()
		sess.RunPrograms(g, boom, agent.Sit, 0, 1, 5, sim.Config{Budget: 100})
	}()

	// The session must still produce correct results on reused runners.
	res := sess.Run(g, agent.MoveEveryRound, 0, 1, 1, sim.Config{Budget: 100})
	if res.Outcome != sim.Met {
		t.Fatalf("session unusable after panic: %+v", res)
	}
}

// TestAbortedRunRecordsOwedGrant pins the abort rule: a run that ends
// right after an agent's action completed — here the meeting round is
// the round the walker's move lands — still lets the agent process that
// action's grant before it unwinds, so its agent.Traced trajectory
// extends exactly to the meeting round.
func TestAbortedRunRecordsOwedGrant(t *testing.T) {
	g := graph.TwoNode()
	sess := sim.NewSession()
	defer sess.Close()
	progs := []struct {
		name string
		prog agent.Program
	}{
		{"move", agent.MoveEveryRound},
		// The deferred wait rides the first move's request as its lead.
		{"wait-then-move", func(w agent.World) {
			w.Wait(2)
			agent.MoveEveryRound(w)
		}},
	}
	for _, p := range progs {
		var tr agent.Trace
		res := sess.RunPrograms(g, agent.Traced(p.prog, &tr), agent.Sit, 0, 1, 0, sim.Config{Budget: 100})
		if res.Outcome != sim.Met || res.MovesA != 1 {
			t.Fatalf("%s: %+v, want a meeting on the walker's first move", p.name, res)
		}
		if tr.Moves() != 1 || tr.Clock() != res.MeetingRound {
			t.Fatalf("%s: trace %q covers %d moves and %d rounds, want 1 move through meeting round %d",
				p.name, tr.String(), tr.Moves(), tr.Clock(), res.MeetingRound)
		}

		var trs [2]agent.Trace
		multi := sess.RunMany(g, []sim.MultiAgent{
			{Program: agent.Traced(p.prog, &trs[0]), Start: 0},
			{Program: agent.Traced(agent.Sit, &trs[1]), Start: 1},
		}, sim.MultiConfig{Budget: 100, StopOnFirstMeeting: true})
		if len(multi.Meetings) != 1 || trs[0].Clock() != multi.Rounds || trs[0].Moves() != 1 {
			t.Fatalf("%s: RunMany %+v with walker trace %q, want the owed move recorded", p.name, multi, trs[0].String())
		}
	}
}

// TestSessionReuseAcrossRunEndings drives hundreds of runs through ONE
// session, cycling through every way a run can end — both programs
// done, aborted at a meeting, aborted at the budget, a panicking
// program — on the pair and k-agent engines, with traced programs so
// the trajectory each abort leaves behind is compared too. Every run
// must match the same run on a fresh session, panic values included.
func TestSessionReuseAcrossRunEndings(t *testing.T) {
	boom := func(w agent.World) {
		w.Move(0)
		w.Wait(3)
		panic("boom")
	}
	leader, sitter := rendezvous.WaitForMommy(6)
	type outcome struct {
		res    sim.Result
		multi  sim.MultiResult
		traces [2]agent.Trace
		panic  any
	}
	type runCase struct {
		name string
		run  func(s *sim.Session, tr *[2]agent.Trace) (sim.Result, sim.MultiResult)
	}
	pair := func(g *graph.Graph, pa, pb agent.Program, u, v int, delay, budget uint64) func(*sim.Session, *[2]agent.Trace) (sim.Result, sim.MultiResult) {
		return func(s *sim.Session, tr *[2]agent.Trace) (sim.Result, sim.MultiResult) {
			return s.RunPrograms(g, agent.Traced(pa, &tr[0]), agent.Traced(pb, &tr[1]), u, v, delay, sim.Config{Budget: budget}), sim.MultiResult{}
		}
	}
	many := func(g *graph.Graph, pa, pb agent.Program, cfg sim.MultiConfig) func(*sim.Session, *[2]agent.Trace) (sim.Result, sim.MultiResult) {
		return func(s *sim.Session, tr *[2]agent.Trace) (sim.Result, sim.MultiResult) {
			return sim.Result{}, s.RunMany(g, []sim.MultiAgent{
				{Program: agent.Traced(pa, &tr[0]), Start: 0},
				{Program: agent.Traced(pb, &tr[1]), Start: 2, Appear: 1},
			}, cfg)
		}
	}
	cases := []runCase{
		{"done", pair(graph.Path(4), func(w agent.World) { w.Move(0) }, func(w agent.World) {}, 0, 3, 2, 1<<20)},
		{"met", pair(graph.Cycle(6), leader, sitter, 0, 3, 3, 1<<20)},
		{"budget", pair(graph.Cycle(5), agent.MoveEveryRound, agent.MoveEveryRound, 0, 2, 0, 77)},
		{"panic", pair(graph.TwoNode(), boom, agent.Sit, 0, 1, 5, 100)},
		{"panic-later-agent", pair(graph.Cycle(4), agent.Sit, boom, 0, 2, 1, 100)},
		{"universal", pair(graph.Cycle(6), rendezvous.UniversalRV(), rendezvous.UniversalRV(), 0, 3, 3, 5_000)},
		{"many-budget", many(graph.Cycle(7), agent.MoveEveryRound, agent.Sit, sim.MultiConfig{Budget: 300})},
		{"many-met", many(graph.Cycle(5), agent.MoveEveryRound, agent.Sit, sim.MultiConfig{Budget: 300, StopOnFirstMeeting: true})},
		{"many-panic", many(graph.Cycle(5), boom, agent.MoveEveryRound, sim.MultiConfig{Budget: 300})},
	}
	run := func(s *sim.Session, c runCase) (o outcome) {
		defer func() { o.panic = recover() }()
		o.res, o.multi = c.run(s, &o.traces)
		return o
	}
	sess := sim.NewSession()
	defer sess.Close()
	for i := 0; i < 300; i++ {
		c := cases[i%len(cases)]
		got := run(sess, c)
		fresh := sim.NewSession()
		want := run(fresh, c)
		fresh.Close()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d (%s): reused session %+v, fresh session %+v", i, c.name, got, want)
		}
	}
}

// TestSessionCloseEndsCoroutines pins the coroutine lifecycle: every
// runner a session creates is a pooled coroutine that outlives its run,
// whatever way the run ended, and Close ends them all — the goroutine
// count returns to its baseline.
func TestSessionCloseEndsCoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	sess := sim.NewSession()
	g := graph.Cycle(8)
	const k = 6
	agents := make([]sim.MultiAgent, k)
	for i := range agents {
		agents[i] = sim.MultiAgent{Program: agent.MoveEveryRound, Start: i, Appear: uint64(i)}
	}
	sess.RunMany(g, agents, sim.MultiConfig{Budget: 200})
	sess.RunPrograms(g, agent.MoveEveryRound, agent.Sit, 0, 4, 1, sim.Config{Budget: 50})
	func() {
		defer func() { _ = recover() }()
		sess.RunPrograms(g, func(w agent.World) { panic("boom") }, agent.Sit, 0, 4, 0, sim.Config{Budget: 50})
	}()
	b := sim.NewBatch()
	sess.RunPairsBatch(g, []sim.PairCase{{ProgA: agent.MoveEveryRound, ProgB: agent.Sit, U: 0, V: 5, Budget: 40}}, b)
	if n := runtime.NumGoroutine(); n < base+k {
		t.Fatalf("%d goroutines after runs that pooled %d runners, baseline %d", n, k, base)
	}
	sess.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentPairBatchesOnOneSession runs RunPairsBatch from several
// goroutines against one shared Session (CI runs it under -race): the
// pooled coroutines move between goroutines through the free list, and
// every batch ends with live recorders aborted in cleanup. Each batch
// must equal the same batch run alone on a private session.
func TestConcurrentPairBatchesOnOneSession(t *testing.T) {
	g := graph.Cycle(9)
	leader, sitter := rendezvous.WaitForMommy(9)
	progs := []agent.Program{agent.MoveEveryRound, agent.Sit, leader, sitter, rendezvous.UniversalRV()}
	shard := func(w int) []sim.PairCase {
		cases := make([]sim.PairCase, 12)
		for i := range cases {
			cases[i] = sim.PairCase{
				ProgA: progs[(w+i)%len(progs)], ProgB: progs[(w+2*i+1)%len(progs)],
				U: i % 9, V: (i + 4) % 9, Delay: uint64(i % 3), Budget: uint64(500 + 100*i),
			}
		}
		return cases
	}
	const workers = 4
	want := make([][]sim.Result, workers)
	for w := range want {
		ref := sim.NewSession()
		want[w] = append([]sim.Result(nil), ref.RunPairsBatch(g, shard(w), sim.NewBatch())...)
		ref.Close()
	}
	sess := sim.NewSession()
	defer sess.Close()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b := sim.NewBatch()
			cases := shard(w)
			for iter := 0; iter < 20; iter++ {
				if got := sess.RunPairsBatch(g, cases, b); !reflect.DeepEqual(got, want[w]) {
					t.Errorf("worker %d iter %d: %+v, want %+v", w, iter, got, want[w])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestRunManySteadyStateAllocs pins the acceptance criterion: after
// warmup, the k-agent scheduler's phase loop performs zero allocations
// per run beyond the MultiResult's own Moves slice and (bounded) result
// bookkeeping. Scripted agents, mixed appearance rounds, thousands of
// rounds.
func TestRunManySteadyStateAllocs(t *testing.T) {
	g := graph.Cycle(8)
	sess := sim.NewSession()
	defer sess.Close()
	script := make([]int, 0, 256)
	for i := 0; i < 120; i++ {
		script = append(script, 0)
	}
	for i := 0; i < 16; i++ {
		script = append(script, agent.ScriptWait)
	}
	prog := func(w agent.World) {
		for {
			w.MoveSeq(script)
			w.Wait(100)
		}
	}
	agents := []sim.MultiAgent{
		{Program: prog, Start: 0, Appear: 0},
		{Program: prog, Start: 2, Appear: 1},
		{Program: prog, Start: 4, Appear: 5},
		{Program: prog, Start: 6, Appear: 9},
	}
	run := func() sim.MultiResult {
		return sess.RunMany(g, agents, sim.MultiConfig{Budget: 20_000})
	}
	want := run() // warm the pool and all script buffers
	avg := testing.AllocsPerRun(20, func() {
		got := run()
		if got.Rounds != want.Rounds {
			panic(fmt.Sprintf("rounds drifted: %d != %d", got.Rounds, want.Rounds))
		}
	})
	// The result's Moves slice plus the detect/finalize closures are the
	// only per-run allocations allowed; the phase loop itself adds none.
	if avg > 8 {
		t.Fatalf("k-agent run allocates %.1f allocs/op in steady state", avg)
	}
}
