// Package async demonstrates the paper's concluding remark: in the
// asynchronous variant of the problem, time cannot be used to break
// symmetry, because the adversary controls the agents' speeds and
// relative starting lag. Only space (view asymmetry) can help, and with
// node-meeting semantics rendezvous cannot be guaranteed even on very
// simple graphs — which is why the asynchronous literature ([31] in the
// paper) relaxes meetings to the inside of edges.
//
// The model here: each agent's deterministic program induces a fixed
// stream of actions (its percepts depend only on its own walk, never on
// the other agent), and an Adversary decides, step by step, which agents
// complete their next action. A meeting occurs when both agents stand at
// the same node between actions. The Synchronizing adversary — advance
// both agents in lock-step, nullifying any intended delay — defeats every
// program from symmetric starts, by exactly the Lemma 3.1 argument with
// δ = 0; the Lag adversary shows the same machinery can also reproduce
// any synchronous delay, so the asynchronous adversary is strictly
// stronger than the synchronous one.
package async

import (
	"math"
	"sync"

	"repro/agent"
	"repro/graph"
)

// Action is one step of an extracted action stream: a move through a
// port, or a pause (the residue of a synchronous Wait, which carries no
// meaning under adversarial time).
type Action struct {
	Move bool
	Port int
}

// ExtractActions runs the program as a single agent on g from start and
// returns the first maxActions actions it performs (a Wait(k) contributes
// k pause entries). This is sound because the paper's agents are
// oblivious to each other until they meet: the stream never depends on
// the adversary. The result grows with the stream rather than being
// presized to maxActions, so a generous cap costs nothing up front.
func ExtractActions(g *graph.Graph, prog agent.Program, start int, maxActions int) []Action {
	return AppendActions(nil, g, prog, start, maxActions)
}

// AppendActions is ExtractActions appending to dst: it appends the first
// maxActions actions of the program's stream to dst and returns the
// extended slice. Callers extracting many streams pass a buffer back in
// (dst[:0]) to reuse its backing array.
func AppendActions(dst []Action, g *graph.Graph, prog agent.Program, start int, maxActions int) []Action {
	if maxActions <= 0 {
		return dst
	}
	x := extractors.Get().(*extractor)
	*x = extractor{
		g: g, pos: start, deg: g.Degree(start), entry: -1,
		actions: dst, limit: len(dst) + min(maxActions, math.MaxInt-len(dst)),
		entries: x.entries[:0], degrees: x.degrees[:0],
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(extractDone); ok {
					return
				}
				panic(r)
			}
		}()
		prog(x)
	}()
	dst = x.actions
	x.g, x.actions = nil, nil
	extractors.Put(x)
	return dst
}

// extractors pools extractor states — with their script percept buffers —
// so that extracting into a warm dst allocates nothing.
var extractors = sync.Pool{New: func() any { return new(extractor) }}

// extractDone unwinds the program once enough actions are recorded.
type extractDone struct{}

// extractor implements agent.World by walking the graph directly —
// single-agent execution needs no scheduler.
type extractor struct {
	g       *graph.Graph
	pos     int
	deg     int
	entry   int
	clock   uint64
	actions []Action
	limit   int // len(actions) at which the stream is complete

	// entries and degrees back the percept slices MoveSeq and
	// MoveSeqDegrees return, reused per the World ownership contract.
	entries, degrees []int
}

func (x *extractor) Degree() int    { return x.deg }
func (x *extractor) EntryPort() int { return x.entry }
func (x *extractor) Clock() uint64  { return x.clock }

func (x *extractor) Move(port int) int {
	if port < 0 || port >= x.deg {
		panic(agent.ErrBadPort{Port: port, Degree: x.deg})
	}
	to, ep := x.g.Succ(x.pos, port)
	x.pos, x.entry, x.deg = to, ep, x.g.Degree(to)
	x.clock++
	x.record(Action{Move: true, Port: port})
	return ep
}

// Wait records one pause per round. Pauses are not coalesced — the
// adversaries count steps — and the cap in record bounds even
// astronomically long waits.
func (x *extractor) Wait(rounds uint64) {
	for i := uint64(0); i < rounds; i++ {
		x.clock++
		x.record(Action{})
	}
}

// MoveSeq runs the script action by action, exactly as agent.RunScript
// does: each scripted move or wait is one recorded action.
func (x *extractor) MoveSeq(actions []int) []int {
	entries, _ := x.runScript(actions, false)
	return entries
}

// MoveSeqDegrees is MoveSeq also reporting degrees, as
// agent.RunScriptDegrees does; the degree stream changes what the program
// learns, not which actions it performs.
func (x *extractor) MoveSeqDegrees(actions []int) ([]int, []int) {
	return x.runScript(actions, true)
}

func (x *extractor) runScript(actions []int, withDegrees bool) (entries, degrees []int) {
	if len(actions) == 0 {
		return nil, nil
	}
	x.entries, x.degrees = x.entries[:0], x.degrees[:0]
	for _, a := range actions {
		if p, wait := agent.ActionPort(a, x.entry, x.deg); wait {
			x.Wait(1)
		} else {
			x.Move(p)
		}
		x.entries = append(x.entries, x.entry)
		if withDegrees {
			x.degrees = append(x.degrees, x.deg)
		}
	}
	if withDegrees {
		return x.entries, x.degrees
	}
	return x.entries, nil
}

// record appends a and unwinds the program the moment the stream is
// complete. AppendActions never starts the program for a cap of 0, so
// every stream holds exactly min(maxActions, program length) actions.
func (x *extractor) record(a Action) {
	x.actions = append(x.actions, a)
	if len(x.actions) >= x.limit {
		panic(extractDone{})
	}
}

// Adversary schedules the two action streams. Given how many actions each
// agent has completed, it says which agents advance in the next step; it
// must advance at least one agent with remaining actions.
type Adversary interface {
	Next(doneA, doneB, lenA, lenB int) (advanceA, advanceB bool)
}

// Synchronizing is the adversary from the paper's conclusion: both agents
// always advance together, so any intended start delay is nullified and
// symmetric starts remain split forever (node-meeting semantics).
type Synchronizing struct{}

func (Synchronizing) Next(doneA, doneB, lenA, lenB int) (bool, bool) { return true, true }

// Lag advances only the first agent for its first Delay steps and then
// both — reproducing exactly the synchronous execution with that delay.
// It shows the asynchronous adversary subsumes every synchronous one.
type Lag struct{ Delay int }

func (l Lag) Next(doneA, doneB, lenA, lenB int) (bool, bool) {
	if doneA < l.Delay {
		return true, false
	}
	return true, true
}

// Result of an asynchronous run.
type Result struct {
	Met   bool
	Node  int
	StepA int // actions completed by A when the run ended
	StepB int
}

// Run replays the two action streams under the adversary, checking for a
// node meeting after every step (and at the start). The run ends on
// meeting or when both streams are exhausted.
func Run(g *graph.Graph, actionsA, actionsB []Action, u, v int, adv Adversary) Result {
	posA, posB := u, v
	doneA, doneB := 0, 0
	if posA == posB {
		return Result{Met: true, Node: posA}
	}
	for doneA < len(actionsA) || doneB < len(actionsB) {
		advA, advB := adv.Next(doneA, doneB, len(actionsA), len(actionsB))
		advanced := false
		if advA && doneA < len(actionsA) {
			a := actionsA[doneA]
			if a.Move {
				posA, _ = g.Succ(posA, a.Port%g.Degree(posA))
			}
			doneA++
			advanced = true
		}
		if advB && doneB < len(actionsB) {
			b := actionsB[doneB]
			if b.Move {
				posB, _ = g.Succ(posB, b.Port%g.Degree(posB))
			}
			doneB++
			advanced = true
		}
		if !advanced {
			// Defensive: an adversary refusing to advance anything would
			// stall time forever; treat as end of run.
			break
		}
		if posA == posB {
			return Result{Met: true, Node: posA, StepA: doneA, StepB: doneB}
		}
	}
	return Result{StepA: doneA, StepB: doneB}
}
