package async

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/agent"
	"repro/graph"
	"repro/rendezvous"
	"repro/sim"
)

func TestExtractActions(t *testing.T) {
	g := graph.Cycle(4)
	prog := func(w agent.World) {
		w.Move(0)
		w.Wait(2)
		w.Move(1)
	}
	acts := ExtractActions(g, prog, 0, 100)
	want := []Action{{Move: true, Port: 0}, {}, {}, {Move: true, Port: 1}}
	if len(acts) != len(want) {
		t.Fatalf("actions %v", acts)
	}
	for i := range want {
		if acts[i] != want[i] {
			t.Fatalf("action %d = %v, want %v", i, acts[i], want[i])
		}
	}
}

func TestExtractActionsCaps(t *testing.T) {
	// Each stream holds exactly min(cap, program length) actions: a cap
	// of 0 yields none, and a cap inside a wait or a script truncates it
	// at exactly that many actions.
	g := graph.Cycle(4)
	progs := []struct {
		name string
		prog agent.Program
		n    int // program length in actions; -1 = unbounded
	}{
		{"move-always", agent.MoveEveryRound, -1},
		{"wait5", func(w agent.World) { w.Wait(5) }, 5},
		{"wait0-move", func(w agent.World) { w.Wait(0); w.Move(0) }, 1},
		{"long-wait", func(w agent.World) { w.Wait(1 << 40) }, -1},
		{"script", agent.Script([]int{0, 1, agent.ScriptWait, 0, agent.Rel(1), agent.ScriptWait, 1}), 7},
		{"script-degrees", func(w agent.World) { w.MoveSeqDegrees([]int{0, agent.ScriptWait, 1}) }, 3},
		{"sit", agent.Sit, -1},
		{"return", func(agent.World) {}, 0},
	}
	for _, p := range progs {
		for _, limit := range []int{0, 1, 3, 7, 50, math.MaxInt} {
			if limit == math.MaxInt && p.n < 0 {
				continue
			}
			want := limit
			if p.n >= 0 && p.n < limit {
				want = p.n
			}
			if got := len(ExtractActions(g, p.prog, 0, limit)); got != want {
				t.Errorf("%s cap %d: %d actions, want %d", p.name, limit, got, want)
			}
		}
	}
}

func TestExtractActionsMatchesUnbatched(t *testing.T) {
	// The extractor's native script loop must record exactly the stream
	// the reference executors (agent.RunScript / RunScriptDegrees via
	// Unbatched) produce action by action.
	for _, g := range []*graph.Graph{graph.TwoNode(), graph.Cycle(4), graph.Path(3), graph.OrientedTorus(3, 3)} {
		prog := rendezvous.UniversalRV()
		for _, ref := range []agent.Program{agent.Unbatched(prog), agent.UnbatchedDegrees(prog)} {
			got := ExtractActions(g, prog, 0, 5000)
			want := ExtractActions(g, ref, 0, 5000)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: native script stream diverges from the reference executor", g)
			}
		}
	}
}

func TestAppendActionsReusesDirtyBuffer(t *testing.T) {
	g := graph.OrientedTorus(3, 3)
	prog := rendezvous.UniversalRV()
	want := ExtractActions(g, prog, 4, 2000)
	// A longer buffer full of garbage: only its backing array is reused.
	dirty := make([]Action, 5000)
	for i := range dirty {
		dirty[i] = Action{Move: true, Port: 7}
	}
	got := AppendActions(dirty[:0], g, prog, 4, 2000)
	if !slices.Equal(got, want) {
		t.Fatal("stream extracted into a dirty buffer differs from a fresh extraction")
	}
	if &got[0] != &dirty[0] {
		t.Fatal("AppendActions did not reuse the buffer's backing array")
	}
	// Appending keeps dst's prefix and caps only the appended part, even
	// when the cap is as large as an int gets.
	prefix := []Action{{Move: true, Port: 1}}
	got = AppendActions(prefix, g, prog, 4, 2000)
	if len(got) != 1+len(want) || got[0] != prefix[0] || !slices.Equal(got[1:], want) {
		t.Fatal("AppendActions must append the capped stream after dst's contents")
	}
	script := agent.Script([]int{0, agent.ScriptWait, 1})
	if got := AppendActions(prefix, g, script, 0, math.MaxInt); len(got) != 4 {
		t.Fatalf("uncapped script appended after a prefix: %d actions, want 4", len(got))
	}
}

func TestAppendActionsConcurrent(t *testing.T) {
	// Extractor states are pooled process-wide; concurrent extractions
	// (E15 fans out over sweep workers) must never see each other's.
	g := graph.OrientedTorus(3, 3)
	prog := rendezvous.UniversalRV()
	want := ExtractActions(g, prog, 0, 3000)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []Action
			for i := 0; i < 5; i++ {
				buf = AppendActions(buf[:0], g, prog, 0, 3000)
				if !slices.Equal(buf, want) {
					t.Error("concurrent extraction diverged")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

func TestAppendActionsWarmBufferAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled items at random under the race detector")
	}
	g := graph.Cycle(4)
	prog := agent.Script([]int{0, 1, agent.ScriptWait, 0, 0, 1})
	buf := AppendActions(nil, g, prog, 0, 100)
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendActions(buf[:0], g, prog, 0, 100)
	})
	if allocs != 0 {
		t.Fatalf("warm AppendActions allocated %.1f times per run", allocs)
	}
}

func TestSynchronizingAdversaryDefeatsEveryProgramOnSymmetricStarts(t *testing.T) {
	// The conclusion's claim, demonstrated: from symmetric positions the
	// lock-step adversary prevents node meetings for ANY program — here
	// checked for the strongest one we have (UniversalRV) and a battery
	// of scripted behaviours.
	type caze struct {
		g    *graph.Graph
		u, v int
	}
	cases := []caze{
		{graph.TwoNode(), 0, 1},
		{graph.Cycle(4), 0, 2},
		{graph.Cycle(6), 0, 3},
		{graph.OrientedTorus(3, 3), 0, 4},
	}
	progs := []agent.Program{
		rendezvous.UniversalRV(),
		agent.MoveEveryRound,
		agent.Script([]int{0, 1, agent.ScriptWait, 0, 0, 1, 1, agent.ScriptWait, 1}),
	}
	for _, c := range cases {
		for pi, prog := range progs {
			a := ExtractActions(c.g, prog, c.u, 30_000)
			b := ExtractActions(c.g, prog, c.v, 30_000)
			res := Run(c.g, a, b, c.u, c.v, Synchronizing{})
			if res.Met {
				t.Fatalf("%s prog %d: synchronizing adversary allowed a meeting at %d", c.g, pi, res.Node)
			}
		}
	}
}

func TestLagAdversaryOnTwoNode(t *testing.T) {
	// A genuine semantic difference from the synchronous model: an
	// unscheduled asynchronous agent is *present* at its start node (the
	// adversary merely withholds its moves), whereas a synchronous later
	// agent is absent until its start round. On K2 with "move every
	// round", Lag(δ) therefore meets for every δ >= 1 — for even δ the
	// lagging agent is simply walked over while held at its node — while
	// the synchronous run meets only for odd δ. Lag(0) coincides with the
	// synchronizing adversary and never meets.
	g := graph.TwoNode()
	for delta := 0; delta <= 4; delta++ {
		a := ExtractActions(g, agent.MoveEveryRound, 0, 200)
		b := ExtractActions(g, agent.MoveEveryRound, 1, 200)
		asyncRes := Run(g, a, b, 0, 1, Lag{Delay: delta})
		if want := delta >= 1; asyncRes.Met != want {
			t.Fatalf("δ=%d: async met=%v, want %v", delta, asyncRes.Met, want)
		}
		// The synchronous model agrees on odd delays (where the meeting
		// happens between two moving agents, not by walking over a held
		// one).
		if delta%2 == 1 {
			syncRes := sim.Run(g, agent.MoveEveryRound, 0, 1, uint64(delta), sim.Config{Budget: 300})
			if syncRes.Outcome != sim.Met {
				t.Fatalf("δ=%d: sync run should meet", delta)
			}
		}
	}
}

func TestAsyncNodeMeetingStillPossibleFromAsymmetry(t *testing.T) {
	// Space still breaks symmetry under the synchronizing adversary:
	// path-3 endpoints both step into the middle and meet.
	g := graph.Path(3)
	prog := agent.Script([]int{0})
	a := ExtractActions(g, prog, 0, 10)
	b := ExtractActions(g, prog, 2, 10)
	res := Run(g, a, b, 0, 2, Synchronizing{})
	if !res.Met || res.Node != 1 {
		t.Fatalf("expected meeting at node 1, got %+v", res)
	}
}

func TestRunDegenerateSameStart(t *testing.T) {
	g := graph.Cycle(4)
	res := Run(g, nil, nil, 2, 2, Synchronizing{})
	if !res.Met {
		t.Fatal("co-located start must meet immediately")
	}
}
