package sim

import (
	"unsafe"

	"repro/agent"
	"repro/graph"
)

// This file is the batch engine: the experiment sweeps and the dist
// workers run shards of many independent cases on ONE graph — one
// program pair under varying delays, budgets and start pairs — and the
// per-case engines charge each of them full per-run freight: two
// goroutine acquisitions, a park/unpark on every fetch, a poison abort
// and an unwind per agent, every case again. The batch engine charges that freight once per
// DISTINCT agent behavior instead. Until two agents co-locate they
// cannot interact (the paper's model: agents are mutually oblivious
// before meeting), so an agent's entire behavior — the rounds it moves,
// the positions it visits, the rounds its program interacts with the
// scheduler, the round it terminates — is a pure function of (graph,
// program, start). RunPairsBatch therefore drives one solo RECORDING per
// distinct (program value, start) pair on a pooled runner, run-length
// encoding that behavior as move and fetch events (waits of any length
// are one O(1) skip, exactly like the live engine), and RESOLVES every
// lane against two recordings: a two-pointer scan over the merged move
// events finds the first co-location, and binary searches over the event
// rounds reconstruct the per-case move and wakeup counts in closed form.
// A shard whose lanes vary only delay or budget executes its program
// pair twice — not 2W times — and every lane after the first costs a
// scan, no goroutines at all. A seed is part of the program value, so
// lanes varying only seeds share no recording; a recording also runs to
// the longest budget a lane needs, where a live run stops at its
// meeting, so the engine pays off only with several lanes per recording
// (dist batches a shard from 3). Recordings extend lazily and
// geometrically while lanes still need rounds, so early meetings stop
// the recorders early, and a runner whose program terminates is returned
// to the pool with no poison. RunBatch (the k-agent engine) keeps its
// interleaved live lanes: gathering semantics observe the joint
// schedule, which has no per-agent closed form.
//
// Batch results are defined by per-case equality: lane li of
// RunPairsBatch returns exactly Session.RunPrograms of its case, lane li
// of RunBatch exactly Session.RunMany — full Result/MultiResult equality
// including Meetings order, per-lane wakeup counts and slice nil-ness,
// pinned by the randomized differential suite in batchequiv_test.go.
// The memoization adds one requirement the per-case engines do not have:
// programs must be deterministic and carry no observable state across
// invocations (true of every program in this repository and required of
// dist registry programs by the wire protocol already) — a program
// shared by several lanes may be invoked once, not once per lane.

// PairCase is one two-agent lane of RunPairsBatch: the same parameters
// RunPrograms takes, minus the graph (shared by the whole batch) and the
// Observer (an observer disables fast-forwarding and defeats the point
// of batching; observed runs stay on the solo path).
type PairCase struct {
	ProgA, ProgB agent.Program
	U, V         int
	Delay        uint64
	Budget       uint64 // 0 = DefaultBudget
}

// MultiCase is one k-agent lane of RunBatch: the RunMany parameters
// minus the shared graph.
type MultiCase struct {
	Agents []MultiAgent
	Cfg    MultiConfig
}

// Batch is the reusable structure-of-arrays arena behind one in-flight
// batch run: per-lane progress arrays, the retired-runner list, the
// run's statistics sink and the multi-lane scheduler state, all recycled
// between calls so a warm arena executes whole shards with zero
// steady-state allocations (the pair path; multi results inherently
// allocate their Meetings/Moves). A Batch may be used by one batch run
// at a time; distinct Batches may run concurrently on one Session (the
// runner pool is the only shared state, and it is mutex-guarded). Sweeps
// get a per-worker arena from Scratch.Batch.
type Batch struct {
	stats runStats

	// Pair-lane state, indexed by case: lane parameters, the per-lane
	// wakeup counts, and each lane's two recording indices into recs
	// (lb -1 when the later agent never appears within budget).
	delay   []uint64
	budget  []uint64
	wakeups []uint64
	results []Result
	la, lb  []int32

	// The recording memo: recs[:nrec] are this run's recordings, recIdx
	// maps (program value, start) to an index. Both are recycled — the
	// map via clear (buckets survive), the recordings via their event
	// slices' backing arrays — so a warm arena replaying the same shard
	// shape allocates nothing.
	recs   []recording
	nrec   int
	recIdx map[recKey]int

	// act is the live-lane index list of the multi engine, compacted in
	// place as lanes retire; pending collects released runners whose
	// goroutines are still unwinding (collected in one overlapping pass
	// at batch end).
	act     []int
	pending []*runner

	// Multi-lane state: one parked multiRun per lane, its slices carved
	// from the flat arrays below (sized sum-of-k / sum-of-k² across the
	// batch), plus one shared per-step scratch set sized for the largest
	// lane — safe because lanes advance strictly one step at a time and
	// nothing in the scratch survives a step.
	runs       []multiRun
	mrunners   []*runner
	mpresent   []bool
	mmet       []bool
	mactive    []*runner
	mactiveIdx []int
	moved      []bool
	bhead      []int32
	bnext      []int32
	mresults   []MultiResult
}

// NewBatch returns an empty arena; arrays grow on first use and are
// recycled afterwards.
func NewBatch() *Batch { return &Batch{} }

// Wakeups returns the per-lane scheduler wakeup counts of the arena's
// most recent batch run: Wakeups()[i] is exactly what Session.Wakeups
// would have reported after running case i on the per-case engine. The
// slice is valid until the arena's next batch run.
func (b *Batch) Wakeups() []uint64 { return b.wakeups }

// ensure returns s resized to length n, reusing its backing array
// whenever it is large enough. Contents are unspecified.
func ensure[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// recNever marks a round that never arrives: a recording still running
// has doneAt recNever, and an exhausted event hunt reports recNever as
// the next event round.
const recNever = ^uint64(0)

// recKey identifies one recordable behavior: a program VALUE (the func
// object, not its code pointer — two closures over different captures
// must not share a recording; E12's per-seed programs are exactly that)
// plus its start node. The graph is not part of the key: a Batch run is
// single-graph by construction.
type recKey struct {
	prog  unsafe.Pointer
	start int
}

// progID returns the identity of a Program for memoization: the data
// word of the func value, which is the pointer to its closure object.
// The same Program value always yields the same identity; distinct
// closure instances yield distinct identities even when they share code.
// (reflect's Pointer() would return the shared code pointer and wrongly
// merge differently-captured closures.) Keeping the pointer in the map
// key keeps the closure object reachable, so identities cannot be reused
// by the allocator while the memo is live.
func progID(p agent.Program) unsafe.Pointer {
	return *(*unsafe.Pointer)(unsafe.Pointer(&p))
}

// recording is the run-length behavior trace of one (program, start) on
// the batch graph, extended on demand: moveR[i] is the i-th round whose
// end finds the agent at a new position movePos[i] (rounds without a
// move event leave the position unchanged, so the trace is exact, not
// sampled), moveScripted[i] records whether that move came from a script
// — the bit the resolver needs to reproduce the live engine's fused-
// burst retirement, which skips the meeting round's fetches. fetchR
// lists the rounds the scheduler consumed a request from the agent
// (wakeups, in per-case terms). All rounds are local: round 0 is the
// agent's own start; a lane maps them by its delay.
type recording struct {
	r      *runner // live recorder, nil once the program terminated
	hi     uint64  // trace is complete through local round hi
	doneAt uint64  // round the termination request was consumed; recNever while running
	start  int
	init   bool // round-0 fetch done

	moveR        []uint64
	movePos      []int32
	moveScripted []bool
	fetchR       []uint64
}

// movesAt returns the agent's move count at the end of local round t.
// Valid for t <= hi.
func (rec *recording) movesAt(t uint64) uint64 { return countLE(rec.moveR, t) }

// reqsAt returns how many scheduler wakeups the agent has caused through
// local round t. Valid for t <= hi.
func (rec *recording) reqsAt(t uint64) uint64 { return countLE(rec.fetchR, t) }

// countLE returns the number of entries of the ascending slice a that
// are <= t.
func countLE(a []uint64, t uint64) uint64 {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return uint64(lo)
}

// growTarget is the geometric extension schedule of the lazy recorder:
// doubling keeps the per-event amortized cost O(1) while never running
// more than one binary order past the rounds lanes actually ask about —
// which matters at both extremes: an E12 lane's budget is millions of
// rounds but its meetings come in thousands, and a per-move program
// costs a full channel round trip per recorded round, so a trivial case
// meeting at round 2 must not record to 64.
func growTarget(hi uint64) uint64 {
	if hi == 0 {
		return 1
	}
	t := hi * 2
	if t < hi {
		return recNever
	}
	return t
}

// getRecording returns the index in b.recs of the recording for
// (p, start), creating and acquiring it on first sight. Creation is
// acquire-only — the round-0 fetch happens on first extension — so the
// pre-pass overlaps all distinct program starts before any lane blocks
// on one.
func (s *Session) getRecording(b *Batch, g *graph.Graph, p agent.Program, start int) int32 {
	k := recKey{prog: progID(p), start: start}
	if i, ok := b.recIdx[k]; ok {
		return int32(i)
	}
	i := b.nrec
	if i == len(b.recs) {
		b.recs = append(b.recs, recording{})
	}
	b.nrec++
	rec := &b.recs[i]
	rec.r = s.acquireFor(g, p, start, &b.stats, nil)
	rec.hi = 0
	rec.doneAt = recNever
	rec.start = start
	rec.init = false
	rec.moveR = rec.moveR[:0]
	rec.movePos = rec.movePos[:0]
	rec.moveScripted = rec.moveScripted[:0]
	rec.fetchR = rec.fetchR[:0]
	b.recIdx[k] = i
	return int32(i)
}

// extendRec completes rec's trace through local round bound, driving the
// solo runner exactly as the per-case engine would: fused bursts through
// scripted moves, maxSkip fast-forwards through waits (a wait of any
// length is one event-free O(1) step), a fetch at every round an action
// completes. Fetch rounds are action-end rounds, which are invariant
// under how rounds are partitioned into advance calls — the property
// that makes the solo trace reusable under any partner and delay. A
// program that terminates releases its runner to the pool immediately,
// with no poison and no unwind.
func (s *Session) extendRec(b *Batch, rec *recording, bound uint64) {
	if !rec.init {
		rec.init = true
		r := rec.r
		r.fetch()
		rec.fetchR = append(rec.fetchR, 0)
		if r.state == stDone {
			rec.doneAt = 0
			s.releaseAsync(r)
			b.pending = append(b.pending, r)
			rec.r = nil
		}
	}
	if bound <= rec.hi {
		return
	}
	if rec.r == nil {
		rec.hi = bound // frozen: done programs extend for free
		return
	}
	r := rec.r
	t := rec.hi
	for t < bound {
		if r.scriptMoveReady() {
			if r.scriptDegs == nil {
				for r.scriptMoveReady() && t < bound {
					r.scriptStepPlain()
					t++
					rec.moveR = append(rec.moveR, t)
					rec.movePos = append(rec.movePos, int32(r.pos))
					rec.moveScripted = append(rec.moveScripted, true)
				}
			} else {
				for r.scriptMoveReady() && t < bound {
					r.scriptStep()
					t++
					rec.moveR = append(rec.moveR, t)
					rec.movePos = append(rec.movePos, int32(r.pos))
					rec.moveScripted = append(rec.moveScripted, true)
				}
			}
		} else {
			skip := r.maxSkip()
			if m := bound - t; skip > m {
				skip = m
			}
			if skip < 1 {
				skip = 1
			}
			moved := r.state == stMovePending
			r.advance(skip)
			t += skip
			if moved {
				rec.moveR = append(rec.moveR, t)
				rec.movePos = append(rec.movePos, int32(r.pos))
				rec.moveScripted = append(rec.moveScripted, false)
			}
		}
		if r.state == stNeedReq {
			r.fetch()
			rec.fetchR = append(rec.fetchR, t)
			if r.state == stDone {
				rec.doneAt = t
				s.releaseAsync(r)
				b.pending = append(b.pending, r)
				rec.r = nil
				break
			}
		}
	}
	rec.hi = bound
}

// RunPairsBatch executes every case on g through the record-and-resolve
// batch engine and returns the per-case results, results[i] being
// field-for-field what Session.RunPrograms(g, cases[i]...) returns. The
// returned slice is backed by the arena and valid until b's next batch
// run. See the file comment for the engine model and the determinism
// requirement memoization places on programs; per-lane wakeup counts are
// available from b.Wakeups afterwards.
//
// Like solo runs, a batch leaves the session's statistics (Wakeups,
// ScriptLenHist) describing it — here the engine work actually
// performed, i.e. the recorder activity: one program execution per
// distinct behavior, however many lanes shared it. The per-case-equal
// counts live in b.Wakeups.
func (s *Session) RunPairsBatch(g *graph.Graph, cases []PairCase, b *Batch) []Result {
	w := len(cases)
	b.stats = runStats{}
	b.delay = ensure(b.delay, w)
	b.budget = ensure(b.budget, w)
	b.wakeups = ensure(b.wakeups, w)
	b.results = ensure(b.results, w)
	b.la = ensure(b.la, w)
	b.lb = ensure(b.lb, w)
	if cap(b.pending) < 2*w {
		b.pending = make([]*runner, 0, 2*w)
	}
	if b.recIdx == nil {
		b.recIdx = make(map[recKey]int, 2*w)
	}
	b.nrec = 0
	defer b.cleanup(s)
	// Pre-pass: create every distinct recording (acquire only) before
	// resolving any lane, so the W-lane shard starts at most 2·distinct
	// program goroutines, all overlapping. Lanes whose later agent never
	// appears within budget get no B recording at all, exactly as the
	// per-case engine never acquires theirs.
	for i := range cases {
		c := &cases[i]
		b.delay[i] = c.Delay
		if c.Budget == 0 {
			b.budget[i] = DefaultBudget
		} else {
			b.budget[i] = c.Budget
		}
		b.wakeups[i] = 0
		b.la[i] = s.getRecording(b, g, c.ProgA, c.U)
		b.lb[i] = -1
		if c.Delay <= b.budget[i] {
			b.lb[i] = s.getRecording(b, g, c.ProgB, c.V)
		}
	}
	for i := range cases {
		la := &b.recs[b.la[i]]
		var lb *recording
		if b.lb[i] >= 0 {
			lb = &b.recs[b.lb[i]]
		}
		s.resolvePair(b, i, la, lb)
	}
	return b.results
}

// resolvePair computes lane li's Result from its two recordings — no
// goroutines, no channels, just a two-pointer scan over move events.
//
// Positions are piecewise-constant between move events, so the first
// co-location is found by checking only breakpoints: the merged move
// rounds of A and of B shifted by the lane's delay, starting at the
// delay round itself (B does not exist earlier; the per-case engine
// acquires it when its loop first reaches t >= delay). The scan bound is
// min(budget, t_nm) where t_nm = max(doneA, delay+doneB) is the first
// round the per-case engine sees both programs terminated; ties follow
// the engine's check order (meeting > both-done > budget). Recordings
// extend lazily while the hunt for the next move event is short of the
// bound, so a lane that meets early never records past its meeting.
//
// Move counts fall out of the event indices; wakeup counts are the
// fetch-round counts through the retirement round — with one correction:
// a meeting inside the engine's fused script burst (both agents moving
// scripted into the meeting round) retires before that round's fetches,
// so both sides count through the previous round instead.
func (s *Session) resolvePair(b *Batch, li int, la, lb *recording) {
	delay, budget := b.delay[li], b.budget[li]
	if lb == nil {
		// The later agent never appears: A alone runs out the budget.
		s.extendRec(b, la, budget)
		b.results[li] = Result{Outcome: BudgetExhausted, Rounds: budget, MovesA: la.movesAt(budget)}
		b.wakeups[li] = la.reqsAt(budget)
		return
	}
	s.extendRec(b, la, delay)
	s.extendRec(b, lb, 0)
	ia := int(countLE(la.moveR, delay))
	posA := int32(la.start)
	if ia > 0 {
		posA = la.movePos[ia-1]
	}
	ib := 0 // B cannot have moved by its round 0
	posB := int32(lb.start)
	T := delay
	bound := budget
	neverMeet := false
	boundFinal := false        // both terminations seen and folded into bound
	aScr, bScr := false, false // the moves into T were scripted (engine burst path)
	for {
		if !boundFinal && la.doneAt != recNever && lb.doneAt != recNever {
			boundFinal = true
			if tnm := max(la.doneAt, delay+lb.doneAt); tnm <= bound {
				bound, neverMeet = tnm, true
			}
		}
		if posA == posB {
			var wk uint64
			if aScr && bScr {
				wk = la.reqsAt(T-1) + lb.reqsAt(T-delay-1)
			} else {
				wk = la.reqsAt(T) + lb.reqsAt(T-delay)
			}
			b.wakeups[li] = wk
			b.results[li] = Result{
				Outcome:       Met,
				MeetingNode:   int(posA),
				MeetingRound:  T,
				TimeFromLater: T - delay,
				Rounds:        T,
				MovesA:        uint64(ia),
				MovesB:        uint64(ib),
			}
			return
		}
		if T >= bound {
			break
		}
		// Hunt the next move event on each side, extending recordings
		// geometrically while they are short of the bound. Move rounds
		// never exceed termination rounds, so a bound shrunk by a
		// just-discovered t_nm is never overshot.
		nA := recNever
		for {
			if ia < len(la.moveR) {
				nA = la.moveR[ia]
				break
			}
			if la.r == nil || la.hi >= bound {
				break
			}
			s.extendRec(b, la, min(bound, growTarget(la.hi)))
		}
		nB := recNever
		for {
			if ib < len(lb.moveR) {
				nB = delay + lb.moveR[ib]
				break
			}
			if lb.r == nil || lb.hi >= bound-delay {
				break
			}
			s.extendRec(b, lb, min(bound-delay, growTarget(lb.hi)))
		}
		// The hunts may just have recorded a termination; re-tighten the
		// bound before deciding the remaining moves are out of range.
		if !boundFinal && la.doneAt != recNever && lb.doneAt != recNever {
			boundFinal = true
			if tnm := max(la.doneAt, delay+lb.doneAt); tnm <= bound {
				bound, neverMeet = tnm, true
			}
		}
		Tn := min(nA, nB)
		if Tn > bound {
			break // no more moves in range: positions are frozen to the bound
		}
		T = Tn
		aScr, bScr = false, false
		if nA == Tn {
			posA = la.movePos[ia]
			aScr = la.moveScripted[ia]
			ia++
		}
		if nB == Tn {
			posB = lb.movePos[ib]
			bScr = lb.moveScripted[ib]
			ib++
		}
	}
	// No meeting by the bound: both-done retires as NeverMeet at t_nm,
	// otherwise the budget round retires the lane, fetches at the
	// retirement round included either way.
	s.extendRec(b, la, bound)
	s.extendRec(b, lb, bound-delay)
	b.wakeups[li] = la.reqsAt(bound) + lb.reqsAt(bound-delay)
	out := BudgetExhausted
	if neverMeet {
		out = NeverMeet
	}
	b.results[li] = Result{
		Outcome: out,
		Rounds:  bound,
		MovesA:  la.movesAt(bound),
		MovesB:  lb.movesAt(bound - delay),
	}
}

// RunBatch executes every k-agent case on g through interleaved lanes —
// the multi-agent batch engine — and returns the per-case results,
// results[i] being field-for-field what Session.RunMany(g, cases[i]...)
// returns (nil-ness of Meetings/Moves included). Each lane is a parked
// multiRun advanced one scheduler iteration (boundary + event horizon)
// per sweep; acquisition of all round-zero agents is batched up front
// and retired lanes release their goroutines asynchronously, so the
// per-case acquire/release handshakes overlap across the whole shard.
// The returned slice is backed by the arena and valid until b's next
// batch run; per-lane wakeups are available from b.Wakeups.
func (s *Session) RunBatch(g *graph.Graph, cases []MultiCase, b *Batch) []MultiResult {
	w := len(cases)
	b.stats = runStats{}
	sumK, sumK2, maxK := 0, 0, 0
	for i := range cases {
		k := len(cases[i].Agents)
		sumK += k
		sumK2 += k * k
		if k > maxK {
			maxK = k
		}
	}
	b.runs = ensure(b.runs, w)
	b.mrunners = ensure(b.mrunners, sumK)
	b.mpresent = ensure(b.mpresent, sumK)
	b.mmet = ensure(b.mmet, sumK2)
	b.mactive = ensure(b.mactive, sumK)
	b.mactiveIdx = ensure(b.mactiveIdx, sumK)
	b.moved = ensure(b.moved, maxK)
	b.wakeups = ensure(b.wakeups, w)
	b.mresults = ensure(b.mresults, w)
	if cap(b.act) < w {
		b.act = make([]int, 0, w)
	}
	if cap(b.pending) < sumK {
		b.pending = make([]*runner, 0, sumK)
	}
	useBuckets := maxK >= bucketScanMinK
	if useBuckets {
		b.bhead = ensure(b.bhead, g.N())
		for i := range b.bhead {
			b.bhead[i] = -1
		}
		b.bnext = ensure(b.bnext, maxK)
	}
	defer b.cleanup(s)

	off, off2 := 0, 0
	for i := range cases {
		b.wakeups[i] = 0
		k := len(cases[i].Agents)
		m := &b.runs[i]
		*m = multiRun{
			s:      s,
			g:      g,
			agents: cases[i].Agents,
			cfg:    cases[i].Cfg,
			stats:  &b.stats,
			lane:   &b.wakeups[i],
		}
		if k == 0 {
			// RunMany's k == 0 contract: the zero MultiResult, nil slices.
			m.done = true
			continue
		}
		m.runners = b.mrunners[off : off+k : off+k]
		m.present = b.mpresent[off : off+k : off+k]
		m.met = b.mmet[off2 : off2+k*k : off2+k*k]
		m.active = b.mactive[off : off : off+k]
		m.activeIdx = b.mactiveIdx[off : off : off+k]
		m.moved = b.moved
		if m.useBuckets = k >= bucketScanMinK; m.useBuckets {
			m.bhead = b.bhead[:g.N()]
			m.bnext = b.bnext
		}
		off += k
		off2 += k * k
		m.begin()
		// Pre-acquire the lane's round-zero agents so all lanes' program
		// starts overlap; the lane's first step fetches them exactly as
		// its boundary would have.
		for j := range m.agents {
			if m.agents[j].Appear == 0 {
				m.runners[j] = s.acquireFor(g, m.agents[j].Program, m.agents[j].Start, &b.stats, &b.wakeups[i])
				m.present[j] = true
				m.presentCount++
				m.rebuild = true
			}
		}
	}

	act := b.act[:0]
	for i := range b.runs {
		if !b.runs[i].done {
			act = append(act, i)
		}
	}
	for len(act) > 0 {
		n := 0
		for _, li := range act {
			m := &b.runs[li]
			if m.step() {
				for j, r := range m.runners {
					if r != nil {
						s.releaseAsync(r)
						b.pending = append(b.pending, r)
						m.runners[j] = nil
					}
				}
				continue // lane retired in place
			}
			act[n] = li
			n++
		}
		act = act[:n]
	}
	results := b.mresults[:w]
	for i := range b.runs {
		results[i] = b.runs[i].res
		b.runs[i] = multiRun{} // drop program/graph references
	}
	return results
}

// cleanup is the deferred tail of every batch run: release whatever
// runners are still live — recorders whose programs had not terminated
// by the last round any lane asked about (routine), multi-lane runners
// only on a panicking unwind — collect every released goroutine in one
// overlapping pass, and publish the batch totals as the session's
// most-recent-run statistics (under the pool lock: concurrent batches
// may finish together, and last-writer-wins is the documented "most
// recent" semantics).
func (b *Batch) cleanup(s *Session) {
	for i := 0; i < b.nrec; i++ {
		if r := b.recs[i].r; r != nil {
			s.releaseAsync(r)
			b.pending = append(b.pending, r)
			b.recs[i].r = nil
		}
	}
	if b.recIdx != nil {
		// Drop the program references (clear keeps the buckets, so a warm
		// arena re-keys the next shard without allocating).
		clear(b.recIdx)
	}
	for i := range b.runs {
		for j, r := range b.runs[i].runners {
			if r != nil {
				s.releaseAsync(r)
				b.pending = append(b.pending, r)
				b.runs[i].runners[j] = nil
			}
		}
	}
	for _, r := range b.pending {
		s.collect(r)
	}
	b.pending = b.pending[:0]
	s.mu.Lock()
	s.stats = b.stats
	s.mu.Unlock()
	publishRunStats(&b.stats, runKindBatch)
}

// PairItem is one case of a SweepPairs grid: the graph it runs on plus
// its lane parameters. Items sharing a *graph.Graph form one batchable
// shard.
type PairItem struct {
	G    *graph.Graph
	Case PairCase
}

// SweepPairs runs a two-agent case grid through the batch engine: items
// are sharded by graph — the same (graph, parameter-block) partition
// Sweep uses — and each shard executes as ONE RunPairsBatch call on its
// worker's pooled session and Batch arena, so whole shards pay batch
// rates instead of per-case scheduling. Results come back in input
// order, position-stable. workers <= 0 selects GOMAXPROCS.
func SweepPairs(items []PairItem, workers int) []Result {
	out := make([]Result, len(items))
	if len(items) == 0 {
		return out
	}
	type shard struct {
		g   *graph.Graph
		idx []int
	}
	byG := map[*graph.Graph]int{}
	var shards []shard
	for i := range items {
		si, ok := byG[items[i].G]
		if !ok {
			si = len(shards)
			byG[items[i].G] = si
			shards = append(shards, shard{g: items[i].G})
		}
		shards[si].idx = append(shards[si].idx, i)
	}
	// Shards write disjoint regions of out (they partition the index
	// space), so the per-shard scatter needs no synchronization — the
	// same aggregation argument as Sweep itself.
	Sweep(shards, workers, nil, func(sc *Scratch, sh shard) struct{} {
		cs := make([]PairCase, len(sh.idx))
		for j, i := range sh.idx {
			cs[j] = items[i].Case
		}
		res := sc.Session().RunPairsBatch(sh.g, cs, sc.Batch())
		for j, i := range sh.idx {
			out[i] = res[j]
		}
		return struct{}{}
	})
	return out
}
