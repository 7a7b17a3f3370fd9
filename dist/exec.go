package dist

import (
	"fmt"
	"slices"

	"repro/agent"
	"repro/graph"
	"repro/sim"
	"repro/view"
)

// viewSigNodeBudget bounds the view-signature tree: the signature depth
// is the largest depth (at most viewSigMaxDepth) whose worst-case node
// count stays under the budget, so dense graphs get shallow signatures
// instead of exponential ones. Both sides derive the depth from the same
// graph, so it never needs to travel.
const (
	viewSigNodeBudget = 2048
	viewSigMaxDepth   = 3
)

// viewSigDepth returns the signature truncation depth for g.
func viewSigDepth(g *graph.Graph) int {
	d := 0
	size := 1
	for d < viewSigMaxDepth {
		size *= max(1, g.MaxDegree())
		if size > viewSigNodeBudget {
			break
		}
		d++
	}
	return d
}

// appendViewSig appends g's view signature — the canonical binary
// encoding of the truncated view from node 0 — to dst. This is the
// protocol's cross-process view exchange: the worker derives it from the
// graph it actually decoded and executed on, the coordinator re-derives
// it from the graph it meant to send, and the byte comparison (plus a
// hardened round trip through view.Tree.Decode) turns "did the graph
// survive the wire" into an end-to-end check of the label structure
// itself rather than a checksum of unrelated bytes.
func appendViewSig(dst []byte, g *graph.Graph, t *view.Tree) []byte {
	t.Build(g, 0, viewSigDepth(g))
	return t.AppendEncode(dst)
}

// verifyViewSig checks a worker-reported signature against the
// coordinator-side graph.
func verifyViewSig(g *graph.Graph, sig []byte) error {
	var want view.Tree
	return verifySigBytes(appendViewSig(nil, g, &want), sig)
}

// verifySigBytes is the byte-level half of signature verification: the
// reported signature must decode as a view tree (the hardening round
// trip) and match the locally derived bytes exactly. Byte equality of
// deterministic encodings implies tree equality.
func verifySigBytes(local, sig []byte) error {
	var got view.Tree
	if err := got.Decode(sig); err != nil {
		return fmt.Errorf("dist: worker view signature does not decode: %w", err)
	}
	if string(local) != string(sig) {
		return fmt.Errorf("dist: worker view signature disagrees with the dispatched graph (graph corrupted in transit?)")
	}
	return nil
}

// maxGraphCache bounds a connection's graph cache: descriptors come off
// the wire, so however many distinct graphs a stream claims, the cache
// holds a modest number and resets — caching is an accelerant, never a
// commitment.
const maxGraphCache = 64

// graphKey identifies a shard's graph by its wire form — the builder
// spec or the inline encoding, whichever the descriptor carries.
type graphKey struct{ spec, text string }

// cachedGraph is one materialized graph plus its lazily derived view
// signature.
type cachedGraph struct {
	g   *graph.Graph
	sig []byte
}

func (e *cachedGraph) viewSig() []byte {
	if e.sig == nil {
		var t view.Tree
		e.sig = appendViewSig(nil, e.g, &t)
	}
	return e.sig
}

// graphCache memoizes graph materialization and view-signature
// derivation per connection. Production plans dispatch many shards of
// one graph — E7's parameter blocks, E12's seed blocks — and profiles
// showed the repeated graph decode and signature rebuild dominating the
// per-shard protocol cost on both ends of the wire. Graphs are
// immutable once built, so sharing the decoded *graph.Graph across
// shard executions is free.
type graphCache struct {
	m map[graphKey]*cachedGraph
}

func (gc *graphCache) lookup(sh *ShardDesc) (*cachedGraph, error) {
	k := graphKey{spec: sh.Spec, text: sh.GraphText}
	if e, ok := gc.m[k]; ok {
		return e, nil
	}
	g, err := sh.Graph()
	if err != nil {
		return nil, err
	}
	if gc.m == nil || len(gc.m) >= maxGraphCache {
		gc.m = make(map[graphKey]*cachedGraph, 8)
	}
	e := &cachedGraph{g: g}
	gc.m[k] = e
	return e, nil
}

// shardGraph materializes sh's graph and signature through the cache
// when one is supplied, freshly otherwise.
func shardGraph(gc *graphCache, sh *ShardDesc) (*cachedGraph, error) {
	if gc != nil {
		return gc.lookup(sh)
	}
	g, err := sh.Graph()
	if err != nil {
		return nil, err
	}
	return &cachedGraph{g: g}, nil
}

// Warmup clamps: hints come off the wire, so however corrupt or hostile
// the histogram, prewarming never commits more than a modest bounded
// amount of memory and goroutines — hints are advisory, and scripts
// larger than the clamp simply grow their buffers lazily as always.
const (
	prewarmMaxK         = 1024
	prewarmMaxScriptCap = 1 << 16
)

// prewarm applies a shard's warmup hints to the session.
func prewarm(sess *sim.Session, h *Hints) {
	k := int(h.K)
	if k > prewarmMaxK {
		k = prewarmMaxK
	}
	scriptCap := 0
	for i, n := range h.ScriptHist {
		if n > 0 && i < 31 {
			scriptCap = 1 << i // bucket i holds lengths in [2^(i-1), 2^i)
		}
	}
	if scriptCap > prewarmMaxScriptCap {
		scriptCap = prewarmMaxScriptCap
	}
	if k > 0 || scriptCap > 0 {
		sess.Prewarm(k, scriptCap)
	}
}

// progressFn is the between-cases progress hook of the execution paths:
// called with the number of cases completed so far, it is what lets a
// worker emit heartbeat frames while a long shard executes (liveness is
// measured on progress, never on wall-clock silence). Progress never
// influences results — a nil hook is always valid.
type progressFn func(done int)

// ExecShard runs every case of the shard, in order, on the given pooled
// session and returns the per-case aggregates plus the executed graph's
// view signature. Execution is deterministic: the same descriptor on any
// process yields the same ShardResult, which is the whole basis of the
// byte-identical-aggregation invariant. Shards with the Batch flag set
// route through ExecShardBatch (on a throwaway arena; workers that
// execute many shards pass their pooled arena to ExecShardBatch
// directly).
func ExecShard(sess *sim.Session, sh *ShardDesc) (*ShardResult, error) {
	if sh.Batch {
		return ExecShardBatch(sess, sim.NewBatch(), sh)
	}
	return execShard(sess, sh, nil, nil)
}

func execShard(sess *sim.Session, sh *ShardDesc, gc *graphCache, progress progressFn) (*ShardResult, error) {
	e, err := shardGraph(gc, sh)
	if err != nil {
		return nil, err
	}
	g := e.g
	prewarm(sess, &sh.Hints)
	res := &ShardResult{Cases: make([]CaseResult, len(sh.Cases))}
	for i := range sh.Cases {
		c := &sh.Cases[i]
		out := &res.Cases[i]
		out.Kind = c.Kind
		switch c.Kind {
		case KindTwoAgent:
			if err := checkStart(g, c.U); err != nil {
				return nil, fmt.Errorf("dist: case %d: %w", i, err)
			}
			if err := checkStart(g, c.V); err != nil {
				return nil, fmt.Errorf("dist: case %d: %w", i, err)
			}
			progA, err := buildProg(&c.ProgA, sh.SeedLo, sh.SeedHi)
			if err != nil {
				return nil, fmt.Errorf("dist: case %d: %w", i, err)
			}
			progB, err := buildProg(&c.ProgB, sh.SeedLo, sh.SeedHi)
			if err != nil {
				return nil, fmt.Errorf("dist: case %d: %w", i, err)
			}
			out.Two = sess.RunPrograms(g, progA, progB, c.U, c.V, c.Delay, sim.Config{Budget: c.Budget})
		default:
			agents := make([]sim.MultiAgent, len(c.Agents))
			for j := range c.Agents {
				a := &c.Agents[j]
				if err := checkStart(g, a.Start); err != nil {
					return nil, fmt.Errorf("dist: case %d agent %d: %w", i, j, err)
				}
				prog, err := buildProg(&a.Prog, sh.SeedLo, sh.SeedHi)
				if err != nil {
					return nil, fmt.Errorf("dist: case %d agent %d: %w", i, j, err)
				}
				agents[j] = sim.MultiAgent{Program: prog, Start: a.Start, Appear: a.Appear}
			}
			out.Multi = sess.RunMany(g, agents, sim.MultiConfig{
				Budget:             c.Budget,
				StopOnGather:       c.StopOnGather,
				StopOnFirstMeeting: c.StopOnFirstMeeting,
			})
		}
		out.Wakeups = sess.Wakeups()
		if progress != nil {
			progress(i + 1)
		}
	}
	res.ViewSig = e.viewSig()
	return res, nil
}

// progCache dedups built programs within one shard: the registry builds
// a fresh closure per call, but the batch engine memoizes behavior
// recordings by program VALUE, so descriptor-equal cases must hand it
// the same func value to share a recording — which the registry's
// determinism contract (same descriptor, same behavior, no state across
// invocations) makes sound. get also returns the descriptor's index, the
// program's identity for counting recordings. Shard groups are small; a
// linear scan beats a map here.
type progCache struct {
	descs []*ProgDesc
	progs []agent.Program
}

func (pc *progCache) get(p *ProgDesc, seedLo, seedHi uint64) (agent.Program, int, error) {
	for i, d := range pc.descs {
		if d.Name == p.Name && slices.Equal(d.Args, p.Args) {
			return pc.progs[i], i, nil
		}
	}
	prog, err := buildProg(p, seedLo, seedHi)
	if err != nil {
		return nil, 0, err
	}
	pc.descs = append(pc.descs, p)
	pc.progs = append(pc.progs, prog)
	return prog, len(pc.progs) - 1, nil
}

// batchBreakEven is the lanes-per-recording ratio from which a two-agent
// run of a batch-eligible shard executes through sim.RunPairsBatch
// rather than the per-case loop. Recording pays for a solo trajectory
// per distinct (program, start) out to the longest lane budget that
// needs it, while a live run stops at the meeting; only when enough
// lanes share each recording does resolving them beat running them.
// The value and the per-shard measurements behind it are in doc.go
// ("Batched shard execution").
const batchBreakEven = 3

// ExecShardBatch executes the shard through the batch engines: maximal
// runs of consecutive same-kind cases become one sim.RunBatch call each
// (k-agent runs) or, for two-agent runs whose lanes per distinct
// (program descriptor, start) recording reach batchBreakEven, one
// sim.RunPairsBatch call; two-agent runs below the break-even execute
// case by case on sess, exactly as ExecShard does. Per-case wakeup
// counts come from the batch's per-lane attribution or from
// sess.Wakeups. The ShardResult is identical to ExecShard's — the batch
// engines are pinned to full per-case equality — so batching is purely
// an execution strategy; b is the caller's reusable arena (workers keep
// one per connection). Two-agent programs are built once per distinct
// descriptor, so the engine's record-and-resolve memo fires across the
// whole group.
func ExecShardBatch(sess *sim.Session, b *sim.Batch, sh *ShardDesc) (*ShardResult, error) {
	return execShardBatch(sess, b, sh, nil, nil)
}

func execShardBatch(sess *sim.Session, b *sim.Batch, sh *ShardDesc, gc *graphCache, progress progressFn) (*ShardResult, error) {
	e, err := shardGraph(gc, sh)
	if err != nil {
		return nil, err
	}
	g := e.g
	prewarm(sess, &sh.Hints)
	res := &ShardResult{Cases: make([]CaseResult, len(sh.Cases))}
	for i := 0; i < len(sh.Cases); {
		j := i
		kind := sh.Cases[i].Kind
		for j < len(sh.Cases) && sh.Cases[j].Kind == kind {
			j++
		}
		if kind == KindTwoAgent {
			var pc progCache
			pcs := make([]sim.PairCase, j-i)
			recs := make(map[[2]int]struct{}, 2*(j-i))
			for c := i; c < j; c++ {
				cd := &sh.Cases[c]
				if err := checkStart(g, cd.U); err != nil {
					return nil, fmt.Errorf("dist: case %d: %w", c, err)
				}
				if err := checkStart(g, cd.V); err != nil {
					return nil, fmt.Errorf("dist: case %d: %w", c, err)
				}
				progA, ia, err := pc.get(&cd.ProgA, sh.SeedLo, sh.SeedHi)
				if err != nil {
					return nil, fmt.Errorf("dist: case %d: %w", c, err)
				}
				progB, ib, err := pc.get(&cd.ProgB, sh.SeedLo, sh.SeedHi)
				if err != nil {
					return nil, fmt.Errorf("dist: case %d: %w", c, err)
				}
				recs[[2]int{ia, cd.U}] = struct{}{}
				recs[[2]int{ib, cd.V}] = struct{}{}
				pcs[c-i] = sim.PairCase{ProgA: progA, ProgB: progB, U: cd.U, V: cd.V, Delay: cd.Delay, Budget: cd.Budget}
			}
			if len(pcs) >= batchBreakEven*len(recs) {
				two := sess.RunPairsBatch(g, pcs, b)
				wk := b.Wakeups()
				for c := i; c < j; c++ {
					res.Cases[c] = CaseResult{Kind: kind, Two: two[c-i], Wakeups: wk[c-i]}
				}
			} else {
				for c := i; c < j; c++ {
					pcc := &pcs[c-i]
					two := sess.RunPrograms(g, pcc.ProgA, pcc.ProgB, pcc.U, pcc.V, pcc.Delay, sim.Config{Budget: pcc.Budget})
					res.Cases[c] = CaseResult{Kind: kind, Two: two, Wakeups: sess.Wakeups()}
					if progress != nil {
						progress(c + 1)
					}
				}
			}
		} else {
			mcs := make([]sim.MultiCase, j-i)
			for c := i; c < j; c++ {
				cd := &sh.Cases[c]
				agents := make([]sim.MultiAgent, len(cd.Agents))
				for a := range cd.Agents {
					ad := &cd.Agents[a]
					if err := checkStart(g, ad.Start); err != nil {
						return nil, fmt.Errorf("dist: case %d agent %d: %w", c, a, err)
					}
					prog, err := buildProg(&ad.Prog, sh.SeedLo, sh.SeedHi)
					if err != nil {
						return nil, fmt.Errorf("dist: case %d agent %d: %w", c, a, err)
					}
					agents[a] = sim.MultiAgent{Program: prog, Start: ad.Start, Appear: ad.Appear}
				}
				mcs[c-i] = sim.MultiCase{Agents: agents, Cfg: sim.MultiConfig{
					Budget:             cd.Budget,
					StopOnGather:       cd.StopOnGather,
					StopOnFirstMeeting: cd.StopOnFirstMeeting,
				}}
			}
			multi := sess.RunBatch(g, mcs, b)
			wk := b.Wakeups()
			for c := i; c < j; c++ {
				res.Cases[c] = CaseResult{Kind: kind, Multi: multi[c-i], Wakeups: wk[c-i]}
			}
		}
		i = j
		if progress != nil {
			progress(j)
		}
	}
	res.ViewSig = e.viewSig()
	return res, nil
}

func checkStart(g *graph.Graph, v int) error {
	if v < 0 || v >= g.N() {
		return fmt.Errorf("start node %d outside graph of %d nodes", v, g.N())
	}
	return nil
}

// execShardOn routes a shard to the engine its Batch flag selects,
// reusing the caller's pooled arena for batch shards and its graph
// cache either way (the per-connection execution path of Serve).
func execShardOn(sess *sim.Session, b *sim.Batch, sh *ShardDesc, gc *graphCache, progress progressFn) (*ShardResult, error) {
	if sh.Batch {
		return execShardBatch(sess, b, sh, gc, progress)
	}
	return execShard(sess, sh, gc, progress)
}

// MeasureHints runs the shard's first case on a throwaway session and
// returns measured warmup hints: the case's agent count and the session's
// script-length histogram. Coordinators that dispatch many shards of one
// shape measure once and stamp the hints on all of them; hints are purely
// a warmup accelerant, so measuring is always optional.
func MeasureHints(sh *ShardDesc) (Hints, error) {
	h := Hints{}
	for i := range sh.Cases {
		if k := sh.Cases[i].K(); uint32(k) > h.K {
			h.K = uint32(k)
		}
	}
	if len(sh.Cases) == 0 {
		return h, nil
	}
	one := *sh
	one.Cases = sh.Cases[:1]
	one.Hints = Hints{}
	sess := sim.NewSession()
	defer sess.Close()
	if _, err := ExecShard(sess, &one); err != nil {
		return h, err
	}
	hist := sess.ScriptLenHist()
	top := 0
	for i, n := range hist {
		if n > 0 {
			top = i
		}
	}
	if top > 0 {
		h.ScriptHist = append([]uint64(nil), hist[:top+1]...)
	}
	return h, nil
}
