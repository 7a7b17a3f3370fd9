// Package dist is the distributed sweep dispatcher: it takes the same
// (graph, parameter-block) shards that sim.Sweep runs on in-process
// workers and dispatches them to worker processes — forked subprocesses
// on one machine (NewLocal, `rvx --dist-workers`), TCP-connected
// `rvworker -listen` processes on other machines (Dial), or protocol
// workers inside this process (NewInProcess, the reference everything
// else is pinned against) — over a length-prefixed binary protocol
// (v3) built around failure as a normal event: shards requeue off dead
// connections or migrate mid-shard to survivors, workers heartbeat while
// they compute, dispatch is pipelined, and workers may join (AddConn,
// DialAdd) or be respawned (WithRespawn) mid-sweep. Dial and DialAdd
// absorb workers that come up slower than their coordinator by retrying
// each address with capped exponential backoff plus jitter (DialRetry,
// DialWith).
//
// Package rvd builds the long-running service on top of this dispatcher:
// a daemon owning one fleet and a persistent content-addressed result
// store keyed by the canonical ShardDesc encodings this package pins
// (see rvd's doc.go for the cache-key derivation and crash-recovery
// contract). The codec properties dist guarantees — canonical
// decode→encode fixed point, hardened bounded decoding — are exactly
// what make those cache keys stable and safe.
//
// # Protocol framing (v3)
//
// A connection carries varint length-prefixed frames in both directions:
// each frame is binary.AppendUvarint(len(payload)) followed by the
// payload, whose first byte is the frame type. Payloads are capped (64
// MiB) so a corrupt length cannot demand unbounded memory. Every frame
// except the hello additionally carries a trailing 32-bit FNV-1a
// checksum of its payload inside the length-prefixed region (the hello
// keeps v1 framing so version negotiation never depends on v2 rules).
//
//	worker → coordinator   hello     {version, capacity}          once, on connect; no checksum
//	coordinator → worker   shard     {id, ShardDesc}              up to `capacity` in flight per connection
//	worker → coordinator   heartbeat {id, casesDone}              liveness while a shard executes
//	worker → coordinator   chunk     {id, ResultChunk}            bounded case batch; terminal chunk carries the view signature
//	worker → coordinator   error     {id, message}                deterministic per-shard failure; never retried
//	coordinator → worker   shutdown  {}                           drain and exit
//	coordinator → worker   checkpoint {id, from, ShardDesc tail}  v3: migrate an in-flight shard, resuming after `from` completed cases
//
// The v1 whole-shard result frame (type 3) is retired; results travel
// exclusively as chunk frames. The v3 checkpoint frame is a shard frame
// whose descriptor holds only the cases from the resume offset on; the
// worker reports heartbeat counts and chunk starts offset by `from`, so
// the coordinator's in-order aggregation and terminal accounting run
// unchanged in whole-shard case coordinates. The checksum is the line between the two
// failure classes: a frame that fails its checksum (or desyncs the
// stream) means the CONNECTION can no longer be trusted — it is severed
// and its in-flight shards requeue — while a frame that decodes cleanly
// but names an unknown program or an out-of-range start is a
// deterministic per-shard error that would fail identically on any
// worker, so it surfaces as the sweep error instead of being retried.
//
// # Pipelined dispatch and elastic membership
//
// The hello frame announces the worker's capacity: how many shard
// frames it is willing to hold decoded ahead of execution (a reader
// goroutine decodes into a capacity-bounded queue while the executor
// drains it). The coordinator keeps up to min(capacity, Tuning.MaxWindow)
// shards outstanding per connection and matches frames to shards by id,
// which hides dispatch latency on high-RTT links — the next shard is
// already on the worker when the previous one finishes (pinned by
// BenchmarkDistPipelined against a delayed transport). Connections may
// join at any time: AddConn / DialAdd attach a new worker to an
// in-flight sweep, and a NewLocal backend built WithRespawn forks a
// replacement process whenever a connection dies, within a bounded
// respawn budget.
//
// A worker serves shards on one pooled sim.Session, so its runner
// goroutines, channels and script buffers stay warm across every shard
// it drains — the cross-process analogue of one sim.Sweep worker.
// cmd/rvworker is the standalone worker binary (stdin/stdout or TCP);
// any other binary becomes a worker pool for itself by calling
// RunWorkerIfChild first thing in main.
//
// # Requeue, attempts, liveness
//
// The coordinator holds one shard queue per Run (dealt largest-first,
// sim.Sweep's policy). When a connection dies — read error, checksum
// failure, stream desync, transport cut — its in-flight shards return
// to the queue and re-deal to the surviving (or newly joined)
// connections; partial chunk aggregations from the dead connection are
// discarded, which is sound because descriptors are self-contained and
// execution is deterministic. A sweep fails outright only when no live
// connection remains. Each shard's dispatch count is bounded by
// Tuning.MaxAttempts, so a poison shard that kills every worker it
// lands on surfaces as a per-shard error after MaxAttempts dispatches
// instead of cycling forever.
//
// # Mid-shard migration (v3)
//
// With Tuning.Migrate set, a shard stranded on a dying connection with
// chunks already aggregated is not requeued from zero: the coordinator
// stashes the partial aggregation (chunk payloads are decoded copies,
// independent of the dead connection's buffers) and re-dispatches the
// shard as a checkpoint frame — the resume offset plus a descriptor
// holding only the remaining cases. The receiving worker structurally
// cannot re-execute completed cases (they are not on the wire), executes
// the tail on its own pooled session, and streams chunks whose starts
// continue exactly where the dead connection's stopped, so the in-order
// splice preserves byte-identical aggregation (pinned by the migration
// chaos matrix and the frame-level skip test). Migrations are counted
// in RunStats.Migrations/MigratedCases, separately from Requeues; a
// migrated dispatch still consumes one of the shard's MaxAttempts. The
// completed-case chunk boundary is the wire's checkpoint granularity;
// mid-run engine state within one case is sim.Checkpoint's domain (see
// sim's package comment), which rvx uses for experiment-level
// save/resume.
//
// Liveness is measured on progress, never on wall-clock silence: a
// worker emits heartbeat frames between cases whenever it has been
// silent longer than its heartbeat interval, and every frame touches
// its connection's progress clock. A connection holding in-flight work
// whose clock goes stale past Tuning.BaseDeadline plus Tuning.PerCase
// per in-flight case is severed by the watchdog and handled exactly
// like a death. RunStats (via LastRunStats) reports how much of this
// machinery a sweep actually exercised.
//
// # Chunked results
//
// Workers stream each shard's results as bounded ResultChunk frames
// (chunkCases cases per frame) rather than one monolithic result: the
// coordinator aggregates incrementally, a huge shard never demands a
// proportionate frame, and every chunk doubles as a progress signal.
// Chunks of one shard arrive in order (Start must equal the cases
// already received); the terminal chunk closes the shard and is the
// only one carrying the view signature.
//
// # Descriptor schema
//
// A ShardDesc carries everything a worker needs to reproduce the shard
// bit-for-bit: the graph (a graph.FromSpec builder spec, or an inline
// graph.Encode image for instances with no spec), the task's opaque
// parameter block, the declared PRNG seed range (validated against
// seeded program arguments — a cheap end-to-end transposition guard),
// pool warmup hints (the maximum concurrent agent count and a
// script-length histogram in sim.Session.ScriptLenHist's buckets, fed to
// sim.Session.Prewarm before the first case), and the ordered case list.
// A CaseDesc names its programs as registry entries (RegisterProgram) —
// programs are closures and cannot travel, so the wire carries (name,
// args) resolved identically on both sides, the classic task-registry
// shape. Descriptor decoding is hardened the same way view.Tree.Decode
// is: arbitrary bytes produce an error or a valid descriptor, never a
// panic or a disproportionate allocation (pinned by FuzzShardDecode and
// FuzzResultChunkDecode).
//
// # Batched shard execution
//
// A shard whose cases vary one (graph, program-pair) grid in parameters
// — delay, budget, start pair, seed — can be flagged Batch
// (Planner.SetBatch). The flag declares eligibility only; the worker
// decides per maximal run of same-kind cases how to execute it. A
// k-agent run goes through sim.RunBatch. A two-agent run builds each
// distinct (name, args) program descriptor once, so descriptor-equal
// cases share one program value, and counts its distinct (descriptor,
// start) pairs: the solo recordings sim's record-and-resolve engine
// (sim.RunPairsBatch — see sim's package comment for the lane model)
// would make. Seeds are program arguments, so seed-only variation shares
// nothing: each seed is its own descriptor, and a 32-case E12 shard
// makes 64 recordings. The run goes through sim.RunPairsBatch only when
// it has at least batchBreakEven (3) lanes per recording; below that it
// runs case by case on the session, exactly as an unflagged shard does.
// Either way the results are pinned to full per-case equality, wakeup
// counts included, so the aggregation invariant below is untouched.
//
// The break-even comes from timing both engines on every two-agent run
// of one table regeneration and of the perfbench sweep plan (2-vCPU
// x86-64 host, median of repeated warm runs, min of 5 each):
//
//	shard                          lanes recs ratio  batch ms  loop ms
//	E7  path-3/path-4/K2, 1 STIC       1    2  0.5      ≤0.07    ≤0.04
//	E12 lazyrandom, 5 graphs          32   64  0.5   0.62-1.51 0.38-0.84
//	sweep lazyrandom, 5 graphs        16   32  0.5   0.19-0.37 0.13-0.21
//	E7  path-3                         3    3  1.0       0.07     0.05
//	E7  symtree-(())                   3    2  1.5      13.1      7.0
//	E7  K2                             4    2  2.0       0.27     0.19
//	sweep universal K2                 6    2  3.0       0.26     0.31
//	sweep universal ring-3            18    3  6.0       5.0      6.7
//	sweep universal ring-4            24    4  6.0       0.84     0.70
//	sweep universal hypercube-2       24    4  6.0       0.97     1.28
//	sweep universal complete-4        24    4  6.0       0.09     0.29
//	sweep universal ring-5            40    5  8.0       0.09     0.40
//
// Every run at 2 or fewer lanes per recording is faster live: a live
// run stops at its meeting and skips waits, while a recording runs out
// to the longest lane budget that needs it. From 3 on, the batch engine
// wins in total (7.2 against 9.7 ms), as sim's BenchmarkBatchShard
// (8-128 lanes per recording) shows at scale. Alongside the pooled
// session and batch arena, each connection keeps a small graph cache —
// decoded graphs plus their lazily-derived view signatures, on both the
// worker and coordinator sides — since a sweep's shards repeat a handful
// of graphs and the decode plus signature derivation are the protocol's
// largest per-shard costs.
//
// # Byte-identical aggregation
//
// The invariant the whole package is built around: a sweep executed
// through ANY backend returns, per case, exactly the Go value the
// in-process engine produces — sim.Result / sim.MultiResult equality
// field by field, Meetings order and slice nil-ness included — and the
// coordinator places shard results back at their shard's input indices
// (never in completion order), so the flattened output of Planner.Run is
// indistinguishable from running sim.Sweep in-process. This holds
// because every run is deterministic, the result codec is lossless, and
// aggregation is position-stable by construction — and it must keep
// holding with faults injected: requeued shards re-execute from their
// self-contained descriptors, partial chunks are discarded whole, and
// duplicated work is harmless because both executions produce the same
// bytes. The randomized differential suite pins it across mixed graphs,
// parameter blocks, case kinds and worker counts; the fault-injection
// suite re-pins it across seeded schedules of dropped, delayed and
// garbled frames, severed connections, crashing workers (a kill-matrix
// over every worker × crash-point pair) and hung workers reaped by the
// deadline watchdog; and the CI smoke jobs re-check it end-to-end
// through real forked worker processes (`rvx --dist-workers 2` must
// reproduce the in-process experiment tables byte-for-byte, with and
// without crash-injected workers being respawned mid-sweep).
//
// # Fault injection contract
//
// FaultConn is the transport seam the suite drives: a seeded
// deterministic wrapper applying write-side faults at frame granularity
// (the protocol flushes once per frame) — drop, delay, single-byte
// garble, sever-after-N-writes — to whichever direction of a link a
// test wraps. WithCrashAfterShards (and cmd/rvworker's -crash-after
// flag, or CrashEnv for forked workers) makes a worker execute its n-th
// shard, stream its non-terminal chunks, withhold the terminal chunk
// and sever — the crashed-process shape. Same seed, same schedule:
// every failing fault run is replayable.
//
// # Trace timelines and metrics
//
// The coordinator stamps every shard's lifecycle into a bounded ring
// timeline (internal/obs.Timeline) owned by the backend, accumulating
// across every Run of the backend's lifetime with run-start/run-end
// markers delimiting sweeps. Each shard's story lives on its own track
// (Chrome trace tid = shard index): a "dispatch" instant when the shard
// is handed to a connection (arg: conn and attempt), a "first-chunk"
// instant when its first result chunk lands, and a closing "shard" span
// covering dispatch→terminal — with "requeue", "migrate", "heartbeat"
// and "attempts-exhausted" instants marking the fault machinery when it
// fires. Connection lifecycle ("conn-join", "conn-dead") rides negative
// tracks so worker churn reads as its own lane group. By construction
// span start <= dispatch ts <= first-chunk ts <= span end (the start is
// stamped under the coordinator lock before the dispatch instant is
// emitted), which the trace round-trip test pins. WriteTrace exports a
// backend's timeline as Chrome trace-event JSON loadable in Perfetto or
// chrome://tracing; `rvx -trace out.json` wires it to the CLI. The
// coordinator also publishes counters and histograms (dispatches,
// requeues, migrations, chunk and heartbeat gap distributions, per-conn
// inflight gauges) into obs.Default(), exposed by rvd's GET /metrics —
// all on coordination paths only, never inside the engine (see obs's
// zero-overhead contract).
//
// # View exchange
//
// The protocol's graph-integrity check rides the view codec: each shard
// result carries the view signature — view.Tree.AppendEncode of the
// executed graph's truncated view from node 0 (depth bounded by a node
// budget) — which the coordinator re-derives from the descriptor it sent
// and compares byte-for-byte after a hardened round trip through
// view.Tree.Decode. The first cross-process consumer of the view wire
// format the ROADMAP called for: agents' label structure, not an
// unrelated checksum, is what certifies the graph survived the wire.
package dist
