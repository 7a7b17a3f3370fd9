package sim

import (
	"encoding/binary"
	"fmt"
	"reflect"

	"repro/agent"
	"repro/graph"
)

// This file is the checkpoint/replay layer: serialize a run's complete
// mid-round scheduler state at a boundary, and reconstruct the live run
// later inside any pooled Session. Runs here are worst-case-deterministic
// — a run's state at round t is a pure function of (graph, programs,
// starts, delays) and t — so a Checkpoint does not need to capture agent
// coroutine stacks or program closures (it cannot: RNG streams and
// recursion state live inside the program). Instead it pins the run's
// inputs, the round, and the full observable scheduler state at that
// round; Resume re-runs the inputs with the identical stop-clamped
// engine to round t, verifies the reconstructed state field-for-field
// against the checkpoint, and continues the live run to completion. The
// replay-equality suite (TestReplayEquality) pins the contract: the
// resumed Result/MultiResult is byte-identical to the uninterrupted
// run's, Meetings order and slice nil-ness included.
//
// Two snapshot tiers share the struct. Full (live engines, Full=true)
// captures every runner field down to the script cursors and skip
// caches, which replay reproduces exactly because capture and replay
// clamp to the same stop round. Core (Full=false, synthesized from batch
// recordings by Batch.CheckpointPair) captures the partition-invariant
// projection — positions, move counts, termination, wakeups — which is
// all a recording can know and all that cross-engine resume can check.

// Checkpoint kinds: a two-agent delayed-start run (RunPrograms /
// RunPairsBatch lanes) or a k-agent appearance-scheduled run (RunMany).
const (
	CkPair  uint8 = 0
	CkMulti uint8 = 1
)

// ckptVersion is the checkpoint wire-format version byte; decoding any
// other version fails, so the format can evolve without silent
// misinterpretation.
const ckptVersion = 1

// noStopRound disables the engines' checkpoint boundary — no real round
// reaches it.
const noStopRound = ^uint64(0)

// Decode bounds, in the same spirit as the dist wire reader: every count
// is additionally bounded by the remaining input bytes (each element
// costs at least one byte), so a hostile frame cannot make Decode
// allocate more than O(len(input)).
const (
	maxCkAgents   = 1 << 16
	maxCkScript   = 1 << 22 // the deferred-wait flush cap on script length
	maxCkMeetings = 1 << 20
	maxCkNode     = 1 << 28 // node ids, ports and cursor indices
)

// AgentCheckpoint is one agent's scheduler state at the checkpoint
// boundary. For an agent that has not appeared yet only Present=false is
// meaningful. State-dependent fields are zero unless their state makes
// them live (WaitLeft under stWaiting, MovePort under stMovePending, the
// Script* family under stScript): the runner pool does not reset all of
// them between runs, so capturing unconditionally would leak one run's
// stale values into another's checkpoint.
type AgentCheckpoint struct {
	Present bool
	Pos     int
	Entry   int // entry port at Pos, -1 at the start node
	Moves   uint64
	State   uint8 // agentState: stNeedReq..stDone

	WaitLeft uint64 // stWaiting: rounds left
	MovePort int    // stMovePending: requested port

	// Script execution state (stScript): the remaining actions from the
	// cursor on, plus the cursor/segment/lead/wait-run-cache values.
	// ScriptAt and SegEnd stay absolute (indices into the original
	// script), so Script's length is len(original) - ScriptAt. The grant
	// entry/degree output buffers are NOT captured: replay reconstructs
	// them, and their already-written prefixes are not observable to the
	// program until the grant completes.
	Script        []int
	ScriptAt      int
	SegEnd        int
	ScriptLead    uint64
	ScriptWaitRun uint64
	ScriptQuiet   bool
	ScriptDegs    bool
}

// Checkpoint is a run suspended at a scheduler boundary: the run's
// inputs (budget, delay or appearance schedule, starts), the boundary
// round, and the scheduler state at that round. Encode/Decode give it a
// versioned varint wire form with bounded-cursor decoding; Session.Resume
// reconstructs the live run. Program code is deliberately NOT part of a
// checkpoint — the caller passes the same programs to Resume, exactly as
// dist shard descriptors name programs by registry id rather than value.
type Checkpoint struct {
	Kind uint8 // CkPair or CkMulti
	// Full marks a live-engine snapshot whose Agents carry complete
	// runner state; false is the core tier (batch recordings): positions,
	// moves and termination only.
	Full  bool
	Round uint64 // the boundary round the run is suspended at

	// Run inputs.
	Budget             uint64
	Delay              uint64   // CkPair: later agent's appearance round
	StopOnGather       bool     // CkMulti config flags
	StopOnFirstMeeting bool     //
	Starts             []int    // one per agent
	Appear             []uint64 // CkMulti: appearance rounds (nil for CkPair)

	// Scheduler state at Round.
	Agents      []AgentCheckpoint
	Met         []bool    // CkMulti: k×k first-meeting matrix (row-major)
	Meetings    []Meeting // CkMulti: meetings recorded so far, in scan order
	Gathered    bool      // CkMulti: gathering already observed
	GatherNode  int
	GatherRound uint64

	// Wakeups is the scheduler wakeup count so far; StatsSum is an
	// FNV-1a digest of the per-phase wakeup and script-length histograms.
	// Replay recomputes both, so a resumed run's statistics match the
	// uninterrupted run's — the digest pins that without serializing the
	// histograms themselves.
	Wakeups  uint64
	StatsSum uint64
}

// ---------------------------------------------------------------------
// Wire codec.

func ckZig(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func ckUnzig(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvMix folds one 64-bit value into an FNV-1a digest byte by byte
// (little-endian), matching the dist frame checksum's hash family.
func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime64
		v >>= 8
	}
	return h
}

// statsDigest hashes the distribution part of a run's statistics (the
// per-phase wakeup histogram and the script-length histogram); the total
// wakeup count travels as its own checkpoint field.
func statsDigest(st *runStats) uint64 {
	h := uint64(fnvOffset64)
	for _, v := range st.wakeupsBy {
		h = fnvMix(h, v)
	}
	for _, v := range st.scriptHist {
		h = fnvMix(h, v)
	}
	return h
}

// Checkpoint top-level flag bits.
const (
	ckfFull = 1 << iota
	ckfStopOnGather
	ckfStopOnFirstMeeting
	ckfGathered
	ckfKnown = 1<<iota - 1
)

// AgentCheckpoint flag bits.
const (
	cafPresent = 1 << iota
	cafScriptQuiet
	cafScriptDegs
	cafKnown = 1<<iota - 1
)

// Encode returns the checkpoint's versioned varint wire frame.
func (cp *Checkpoint) Encode() []byte { return cp.AppendEncode(nil) }

// AppendEncode appends the wire frame to dst and returns the extended
// slice. The encoding is canonical on every decoded value: for any input
// that Decode accepts, decode-then-encode is a byte-level fixed point
// (the property FuzzCheckpointDecode pins).
func (cp *Checkpoint) AppendEncode(dst []byte) []byte {
	dst = append(dst, ckptVersion, cp.Kind)
	var flags byte
	if cp.Full {
		flags |= ckfFull
	}
	if cp.StopOnGather {
		flags |= ckfStopOnGather
	}
	if cp.StopOnFirstMeeting {
		flags |= ckfStopOnFirstMeeting
	}
	if cp.Gathered {
		flags |= ckfGathered
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, cp.Round)
	dst = binary.AppendUvarint(dst, cp.Budget)
	dst = binary.AppendUvarint(dst, cp.Delay)
	k := len(cp.Agents)
	dst = binary.AppendUvarint(dst, uint64(k))
	for _, st := range cp.Starts {
		dst = binary.AppendUvarint(dst, uint64(st))
	}
	if cp.Kind == CkMulti {
		for _, ap := range cp.Appear {
			dst = binary.AppendUvarint(dst, ap)
		}
	}
	for i := range cp.Agents {
		dst = cp.Agents[i].appendEncode(dst)
	}
	if cp.Kind == CkMulti {
		// k×k met matrix, packed 8 bits per byte, trailing bits zero.
		nb := (k*k + 7) / 8
		for b := 0; b < nb; b++ {
			var v byte
			for bit := 0; bit < 8; bit++ {
				if i := b*8 + bit; i < k*k && cp.Met[i] {
					v |= 1 << bit
				}
			}
			dst = append(dst, v)
		}
		dst = binary.AppendUvarint(dst, uint64(len(cp.Meetings)))
		for _, mt := range cp.Meetings {
			dst = binary.AppendUvarint(dst, uint64(mt.A))
			dst = binary.AppendUvarint(dst, uint64(mt.B))
			dst = binary.AppendUvarint(dst, uint64(mt.Node))
			dst = binary.AppendUvarint(dst, mt.Round)
		}
		dst = binary.AppendUvarint(dst, uint64(cp.GatherNode))
		dst = binary.AppendUvarint(dst, cp.GatherRound)
	}
	dst = binary.AppendUvarint(dst, cp.Wakeups)
	dst = binary.AppendUvarint(dst, cp.StatsSum)
	return dst
}

func (a *AgentCheckpoint) appendEncode(dst []byte) []byte {
	var fl byte
	if a.Present {
		fl |= cafPresent
	}
	if a.ScriptQuiet {
		fl |= cafScriptQuiet
	}
	if a.ScriptDegs {
		fl |= cafScriptDegs
	}
	dst = append(dst, fl)
	dst = binary.AppendUvarint(dst, uint64(a.Pos))
	dst = binary.AppendUvarint(dst, ckZig(int64(a.Entry)))
	dst = binary.AppendUvarint(dst, a.Moves)
	dst = append(dst, a.State)
	dst = binary.AppendUvarint(dst, a.WaitLeft)
	dst = binary.AppendUvarint(dst, uint64(a.MovePort))
	dst = binary.AppendUvarint(dst, uint64(a.ScriptAt))
	dst = binary.AppendUvarint(dst, uint64(a.SegEnd))
	dst = binary.AppendUvarint(dst, a.ScriptLead)
	dst = binary.AppendUvarint(dst, a.ScriptWaitRun)
	dst = binary.AppendUvarint(dst, uint64(len(a.Script)))
	for _, ac := range a.Script {
		dst = binary.AppendUvarint(dst, ckZig(int64(ac)))
	}
	return dst
}

// ckRd is the checkpoint decode cursor: the sim-side sibling of the dist
// wire reader. Every read checks remaining input, every count is bounded
// both by a semantic cap and by the bytes left, and the first failure
// sticks.
type ckRd struct {
	data []byte
	err  error
}

func (d *ckRd) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("sim: checkpoint: "+format, args...)
	}
}

func (d *ckRd) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data)
	if n <= 0 {
		d.fail("truncated or oversized varint")
		return 0
	}
	d.data = d.data[n:]
	return v
}

// intVal reads a uvarint bounded by max and returns it as an int —
// node ids, ports, cursor indices.
func (d *ckRd) intVal(max uint64, what string) int {
	v := d.uvarint()
	if d.err == nil && v > max {
		d.fail("%s %d exceeds bound %d", what, v, max)
	}
	return int(v)
}

// count reads an element count bounded by max and by the remaining input
// (each element costs at least one encoded byte).
func (d *ckRd) count(max int, what string) int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(max) || v > uint64(len(d.data)) {
		d.fail("%s count %d exceeds bound", what, v)
		return 0
	}
	return int(v)
}

func (d *ckRd) byteVal(what string) byte {
	if d.err != nil {
		return 0
	}
	if len(d.data) == 0 {
		d.fail("truncated %s", what)
		return 0
	}
	v := d.data[0]
	d.data = d.data[1:]
	return v
}

func (d *ckRd) raw(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n > len(d.data) {
		d.fail("truncated %s", what)
		return nil
	}
	v := d.data[:n]
	d.data = d.data[n:]
	return v
}

// Decode parses a checkpoint wire frame, replacing *cp. It never
// panics on hostile input, allocates O(len(data)) at most, and validates
// structure (version, kinds, flag bits, states, the met matrix's
// trailing bits) — run-level semantic validation against a graph and
// program set happens in Resume.
func (cp *Checkpoint) Decode(data []byte) error {
	d := &ckRd{data: data}
	if v := d.byteVal("version"); d.err == nil && v != ckptVersion {
		return fmt.Errorf("sim: checkpoint: unsupported version %d", v)
	}
	out := Checkpoint{Kind: d.byteVal("kind")}
	if d.err == nil && out.Kind > CkMulti {
		return fmt.Errorf("sim: checkpoint: unknown kind %d", out.Kind)
	}
	flags := d.byteVal("flags")
	if d.err == nil && flags&^byte(ckfKnown) != 0 {
		return fmt.Errorf("sim: checkpoint: unknown flag bits %#x", flags)
	}
	out.Full = flags&ckfFull != 0
	out.StopOnGather = flags&ckfStopOnGather != 0
	out.StopOnFirstMeeting = flags&ckfStopOnFirstMeeting != 0
	out.Gathered = flags&ckfGathered != 0
	out.Round = d.uvarint()
	out.Budget = d.uvarint()
	out.Delay = d.uvarint()
	k := d.count(maxCkAgents, "agent")
	if d.err != nil {
		return d.err
	}
	out.Starts = make([]int, k)
	for i := range out.Starts {
		out.Starts[i] = d.intVal(maxCkNode, "start")
	}
	if out.Kind == CkMulti {
		out.Appear = make([]uint64, k)
		for i := range out.Appear {
			out.Appear[i] = d.uvarint()
		}
	}
	out.Agents = make([]AgentCheckpoint, k)
	for i := range out.Agents {
		out.Agents[i].decode(d)
	}
	if out.Kind == CkMulti {
		nb := (k*k + 7) / 8
		bits := d.raw(nb, "met matrix")
		if d.err != nil {
			return d.err
		}
		out.Met = make([]bool, k*k)
		for i := range out.Met {
			out.Met[i] = bits[i/8]&(1<<(i%8)) != 0
		}
		for i := k * k; i < nb*8; i++ {
			if bits[i/8]&(1<<(i%8)) != 0 {
				return fmt.Errorf("sim: checkpoint: nonzero trailing met bits")
			}
		}
		if n := d.count(maxCkMeetings, "meeting"); d.err == nil && n > 0 {
			out.Meetings = make([]Meeting, n)
			for i := range out.Meetings {
				out.Meetings[i] = Meeting{
					A:     d.intVal(maxCkAgents, "meeting agent"),
					B:     d.intVal(maxCkAgents, "meeting agent"),
					Node:  d.intVal(maxCkNode, "meeting node"),
					Round: d.uvarint(),
				}
			}
		}
		out.GatherNode = d.intVal(maxCkNode, "gather node")
		out.GatherRound = d.uvarint()
	}
	out.Wakeups = d.uvarint()
	out.StatsSum = d.uvarint()
	if d.err != nil {
		return d.err
	}
	if len(d.data) != 0 {
		return fmt.Errorf("sim: checkpoint: %d trailing bytes", len(d.data))
	}
	*cp = out
	return nil
}

func (a *AgentCheckpoint) decode(d *ckRd) {
	fl := d.byteVal("agent flags")
	if d.err == nil && fl&^byte(cafKnown) != 0 {
		d.fail("unknown agent flag bits %#x", fl)
		return
	}
	a.Present = fl&cafPresent != 0
	a.ScriptQuiet = fl&cafScriptQuiet != 0
	a.ScriptDegs = fl&cafScriptDegs != 0
	a.Pos = d.intVal(maxCkNode, "position")
	a.Entry = int(ckUnzig(d.uvarint()))
	a.Moves = d.uvarint()
	a.State = d.byteVal("agent state")
	if d.err == nil && a.State > uint8(stDone) {
		d.fail("unknown agent state %d", a.State)
		return
	}
	a.WaitLeft = d.uvarint()
	a.MovePort = d.intVal(maxCkNode, "move port")
	a.ScriptAt = d.intVal(maxCkScript, "script cursor")
	a.SegEnd = d.intVal(maxCkScript, "segment end")
	a.ScriptLead = d.uvarint()
	a.ScriptWaitRun = d.uvarint()
	if n := d.count(maxCkScript, "script action"); d.err == nil && n > 0 {
		a.Script = make([]int, n)
		for i := range a.Script {
			a.Script[i] = int(ckUnzig(d.uvarint()))
		}
	}
}

// ---------------------------------------------------------------------
// Capture.

// snapRunner fills one AgentCheckpoint from a live runner, copying —
// never aliasing — pooled buffers, so the checkpoint stays valid after
// the runner is released back to the session pool. State-dependent
// fields are captured only under their owning state (see the
// AgentCheckpoint doc: the pool's acquire path does not reset them all).
func snapRunner(a *AgentCheckpoint, r *runner) {
	*a = AgentCheckpoint{
		Present: true,
		Pos:     r.pos,
		Entry:   r.entry,
		Moves:   r.moves,
		State:   uint8(r.state),
	}
	switch r.state {
	case stWaiting:
		a.WaitLeft = r.waitLeft
	case stMovePending:
		a.MovePort = r.movePort
	case stScript:
		if rest := r.script[r.scriptAt:]; len(rest) > 0 {
			a.Script = append([]int(nil), rest...)
		}
		a.ScriptAt = r.scriptAt
		a.SegEnd = r.segEnd
		a.ScriptLead = r.scriptLead
		a.ScriptWaitRun = r.scriptWaitRun
		a.ScriptQuiet = r.scriptQuiet
		a.ScriptDegs = r.scriptDegs != nil
	}
}

// capturePair snapshots a suspended two-agent run (runPair's onStop
// state) as a Full-tier checkpoint.
func (s *Session) capturePair(t uint64, ra, rb *runner, u, v int, delay, budget uint64) *Checkpoint {
	cp := &Checkpoint{
		Kind:     CkPair,
		Full:     true,
		Round:    t,
		Budget:   budget,
		Delay:    delay,
		Starts:   []int{u, v},
		Agents:   make([]AgentCheckpoint, 2),
		Wakeups:  s.stats.wakeups,
		StatsSum: statsDigest(&s.stats),
	}
	snapRunner(&cp.Agents[0], ra)
	if rb != nil {
		snapRunner(&cp.Agents[1], rb)
	}
	return cp
}

// captureMulti snapshots a suspended k-agent run (runMany's onStop
// state) as a Full-tier checkpoint.
func captureMulti(m *multiRun) *Checkpoint {
	k := len(m.agents)
	cp := &Checkpoint{
		Kind:               CkMulti,
		Full:               true,
		Round:              m.t,
		Budget:             m.budget,
		StopOnGather:       m.cfg.StopOnGather,
		StopOnFirstMeeting: m.cfg.StopOnFirstMeeting,
		Starts:             make([]int, k),
		Appear:             make([]uint64, k),
		Agents:             make([]AgentCheckpoint, k),
		Met:                append([]bool(nil), m.met...),
		Gathered:           m.res.Gathered,
		GatherNode:         m.res.GatherNode,
		GatherRound:        m.res.GatherRound,
		Wakeups:            m.stats.wakeups,
		StatsSum:           statsDigest(m.stats),
	}
	if len(m.res.Meetings) > 0 {
		cp.Meetings = append([]Meeting(nil), m.res.Meetings...)
	}
	for i := range m.agents {
		cp.Starts[i] = m.agents[i].Start
		cp.Appear[i] = m.agents[i].Appear
		if m.present[i] {
			snapRunner(&cp.Agents[i], m.runners[i])
		}
	}
	return cp
}

// RunProgramsCheckpointed runs the pair exactly like Session.RunPrograms
// with Config{Budget: budget} — observers are structurally excluded: an
// observer forces single-round stepping, a different boundary structure
// than replay reproduces — and additionally checkpoints the run at
// scheduler round at. If the run is still live when round at's meeting,
// termination and budget checks complete, it is abandoned and the
// returned Checkpoint captures its complete state (the Result is then
// zero). If the run finishes at or before round at — or at is past the
// budget — the finished Result is returned with a nil Checkpoint.
func (s *Session) RunProgramsCheckpointed(g *graph.Graph, progA, progB agent.Program, u, v int, delay uint64, budget uint64, at uint64) (Result, *Checkpoint) {
	if budget == 0 {
		budget = DefaultBudget
	}
	var cp *Checkpoint
	res, stopped := s.runPair(g, progA, progB, u, v, delay, Config{Budget: budget}, at,
		func(t uint64, ra, rb *runner) bool {
			cp = s.capturePair(t, ra, rb, u, v, delay, budget)
			return false
		})
	if stopped {
		return Result{}, cp
	}
	return res, nil
}

// RunManyCheckpointed is RunProgramsCheckpointed's k-agent analogue: run
// like Session.RunMany, but if still live at round at's boundary,
// abandon and return the captured Checkpoint instead of a result.
func (s *Session) RunManyCheckpointed(g *graph.Graph, agents []MultiAgent, cfg MultiConfig, at uint64) (MultiResult, *Checkpoint) {
	var cp *Checkpoint
	res, stopped := s.runMany(g, agents, cfg, at, func(m *multiRun) bool {
		cp = captureMulti(m)
		return false
	})
	if stopped {
		return MultiResult{}, cp
	}
	return res, nil
}

// ---------------------------------------------------------------------
// Resume.

// checkpointMismatch compares the replay-reconstructed state against the
// checkpoint's. Full-tier checkpoints require every field to match; core
// tier (batch recordings) checks the partition-invariant projection.
func checkpointMismatch(want, live *Checkpoint) error {
	if want.Full {
		if !reflect.DeepEqual(want, live) {
			return fmt.Errorf("sim: checkpoint: replayed state at round %d does not match the checkpoint", want.Round)
		}
		return nil
	}
	if want.Round != live.Round || want.Budget != live.Budget || want.Delay != live.Delay ||
		len(want.Agents) != len(live.Agents) || want.Wakeups != live.Wakeups {
		return fmt.Errorf("sim: checkpoint: replayed run shape at round %d does not match the checkpoint", want.Round)
	}
	for i := range want.Agents {
		w, l := &want.Agents[i], &live.Agents[i]
		if w.Present != l.Present {
			return fmt.Errorf("sim: checkpoint: agent %d presence mismatch at round %d", i, want.Round)
		}
		if !w.Present {
			continue
		}
		if w.Pos != l.Pos || w.Moves != l.Moves ||
			(w.State == uint8(stDone)) != (l.State == uint8(stDone)) {
			return fmt.Errorf("sim: checkpoint: agent %d trajectory mismatch at round %d (pos %d/%d moves %d/%d)",
				i, want.Round, w.Pos, l.Pos, w.Moves, l.Moves)
		}
	}
	return nil
}

// validate checks a checkpoint's run-level semantics against the graph
// and program count it is being resumed with.
func (cp *Checkpoint) validate(g *graph.Graph, progs int) error {
	k := len(cp.Agents)
	if k == 0 {
		return fmt.Errorf("sim: checkpoint: no agents")
	}
	if progs != k || len(cp.Starts) != k {
		return fmt.Errorf("sim: checkpoint: %d agents, %d starts, %d programs", k, len(cp.Starts), progs)
	}
	switch cp.Kind {
	case CkPair:
		if k != 2 || cp.Appear != nil {
			return fmt.Errorf("sim: checkpoint: malformed pair checkpoint")
		}
	case CkMulti:
		if len(cp.Appear) != k || (cp.Full && len(cp.Met) != k*k) {
			return fmt.Errorf("sim: checkpoint: malformed multi checkpoint")
		}
	default:
		return fmt.Errorf("sim: checkpoint: unknown kind %d", cp.Kind)
	}
	if cp.Budget == 0 {
		return fmt.Errorf("sim: checkpoint: zero budget")
	}
	if cp.Round > cp.Budget {
		return fmt.Errorf("sim: checkpoint: round %d past budget %d", cp.Round, cp.Budget)
	}
	for _, st := range cp.Starts {
		if st < 0 || st >= g.N() {
			return fmt.Errorf("sim: checkpoint: start %d out of range for %d-node graph", st, g.N())
		}
	}
	return nil
}

// ResumePair reconstructs a checkpointed two-agent run and drives it to
// completion, returning the run's final Result — byte-identical to what
// the uninterrupted run would have returned. The programs must be the
// ones the checkpointed run was started with (deterministic, so equal
// seeds mean equal streams); replay re-runs them to the checkpoint
// round, verifies the reconstructed scheduler state against the
// checkpoint field-for-field, and errors out on any mismatch — a wrong
// program, graph, or a tampered frame — instead of continuing a run that
// is not the checkpointed one.
func (s *Session) ResumePair(g *graph.Graph, progA, progB agent.Program, cp *Checkpoint) (Result, error) {
	if cp.Kind != CkPair {
		return Result{}, fmt.Errorf("sim: checkpoint: ResumePair on kind %d", cp.Kind)
	}
	if err := cp.validate(g, 2); err != nil {
		return Result{}, err
	}
	var verr error
	reached := false
	res, stopped := s.runPair(g, progA, progB, cp.Starts[0], cp.Starts[1], cp.Delay,
		Config{Budget: cp.Budget}, cp.Round,
		func(t uint64, ra, rb *runner) bool {
			reached = true
			live := s.capturePair(t, ra, rb, cp.Starts[0], cp.Starts[1], cp.Delay, cp.Budget)
			verr = checkpointMismatch(cp, live)
			return verr == nil
		})
	if verr != nil {
		return Result{}, verr
	}
	if stopped || !reached {
		return Result{}, fmt.Errorf("sim: checkpoint: run ended before checkpoint round %d — wrong programs or graph", cp.Round)
	}
	return res, nil
}

// ResumeMany is ResumePair's k-agent analogue: progs[i] must be the
// program agent i was started with; starts and appearance rounds come
// from the checkpoint.
func (s *Session) ResumeMany(g *graph.Graph, progs []agent.Program, cp *Checkpoint) (MultiResult, error) {
	if cp.Kind != CkMulti {
		return MultiResult{}, fmt.Errorf("sim: checkpoint: ResumeMany on kind %d", cp.Kind)
	}
	if err := cp.validate(g, len(progs)); err != nil {
		return MultiResult{}, err
	}
	agents := make([]MultiAgent, len(progs))
	for i := range agents {
		agents[i] = MultiAgent{Program: progs[i], Start: cp.Starts[i], Appear: cp.Appear[i]}
	}
	cfg := MultiConfig{
		Budget:             cp.Budget,
		StopOnGather:       cp.StopOnGather,
		StopOnFirstMeeting: cp.StopOnFirstMeeting,
	}
	var verr error
	reached := false
	res, stopped := s.runMany(g, agents, cfg, cp.Round, func(m *multiRun) bool {
		reached = true
		verr = checkpointMismatch(cp, captureMulti(m))
		return verr == nil
	})
	if verr != nil {
		return MultiResult{}, verr
	}
	if stopped || !reached {
		return MultiResult{}, fmt.Errorf("sim: checkpoint: run ended before checkpoint round %d — wrong programs or graph", cp.Round)
	}
	return res, nil
}

// ---------------------------------------------------------------------
// Core-tier checkpoints from batch recordings.

// CheckpointPair synthesizes a checkpoint for lane i of the arena's most
// recent RunPairsBatch call, suspended at round at. cases must be the
// slice that call ran. No live runner is involved: the lane's state is
// read from the solo trajectory recordings at their round-at offsets, so
// the snapshot is the core tier (Full=false) — positions, move counts,
// termination and wakeups, the partition-invariant projection of live
// scheduler state, which is exactly what ResumePair verifies before
// continuing the run live. Returns nil when the lane's run had already
// finished by round at (nothing to resume). The recordings — and
// therefore this method's view of the lane — stay valid until the
// arena's next batch run.
func (b *Batch) CheckpointPair(cases []PairCase, i int, at uint64) *Checkpoint {
	c := cases[i]
	res := b.results[i]
	if at >= res.Rounds {
		return nil
	}
	delay, budget := b.delay[i], b.budget[i]
	cp := &Checkpoint{
		Kind:   CkPair,
		Round:  at,
		Budget: budget,
		Delay:  delay,
		Starts: []int{c.U, c.V},
		Agents: make([]AgentCheckpoint, 2),
	}
	la := &b.recs[b.la[i]]
	snapRecording(&cp.Agents[0], la, at)
	cp.Wakeups = la.reqsAt(at)
	if at >= delay && b.lb[i] >= 0 {
		lb := &b.recs[b.lb[i]]
		snapRecording(&cp.Agents[1], lb, at-delay)
		cp.Wakeups += lb.reqsAt(at - delay)
	}
	return cp
}

// snapRecording fills one core-tier AgentCheckpoint from a trajectory
// recording at local round t (rounds since this agent appeared).
// Recordings keep positions and event rounds but not entry ports or
// script internals — the core tier's Entry stays -1 and its script
// family zero, and checkpointMismatch does not consult them.
func snapRecording(a *AgentCheckpoint, rec *recording, t uint64) {
	*a = AgentCheckpoint{Present: true, Pos: rec.start, Entry: -1, Moves: rec.movesAt(t)}
	if a.Moves > 0 {
		a.Pos = int(rec.movePos[a.Moves-1])
	}
	if rec.doneAt <= t {
		a.State = uint8(stDone)
	}
}
