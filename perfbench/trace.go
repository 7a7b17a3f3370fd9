package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/dist"
	"repro/internal/obs"
	"repro/sim"
)

// Traced ops record spans at each layer boundary the benchmark calls
// into (op → experiment → dist sweep → shard replay; op → daemon job →
// backend run) on one obs.Timeline, written as a Chrome trace when the
// run ends, and accumulate per-layer numbers into one sample per op.
// Spans live on track 1 while the op runs and on track 2 for the
// post-op shard replay; each span's detail names its id and parent.

const traceCap = 1 << 16

type tracer struct {
	tl     *obs.Timeline
	nextID int
	sess   *sim.Session // serial replay session, pooled across ops
	arena  *sim.Batch
}

func newTracer() *tracer {
	return &tracer{tl: obs.NewTimeline(traceCap), sess: sim.NewSession(), arena: sim.NewBatch()}
}

func (t *tracer) close() { t.sess.Close() }

// span is an open span; end records it.
type span struct {
	t          *tracer
	name, cat  string
	id, parent int
	track      int64
	start      int64 // timeline nanoseconds
}

func (t *tracer) begin(name, cat string, parent int, track int64) *span {
	t.nextID++
	return &span{t: t, name: name, cat: cat, id: t.nextID, parent: parent, track: track, start: t.tl.Now()}
}

// end records the span and returns its duration.
func (s *span) end() time.Duration {
	d := s.t.tl.Now() - s.start
	s.t.tl.Add(obs.Event{Name: s.name, Cat: s.cat, Track: s.track, Start: s.start, Dur: d,
		Arg: fmt.Sprintf("id=%d parent=%d", s.id, s.parent)})
	return time.Duration(d)
}

// sweepRec is one dist.Backend.Run call captured by timedBackend.
type sweepRec struct {
	shards []*dist.ShardDesc
	res    []*dist.ShardResult
	span   int
}

// opTrace collects one traced op: the sweeps it dispatched, the time
// spent inside the backend, the registry deltas and the per-layer
// sample. With a nil tracer it records no spans.
type opTrace struct {
	t        *tracer
	parent   int // span id that backend runs nest under
	sweeps   []sweepRec
	runDur   time.Duration
	requeues int
	chunks   int
	before   map[string]uint64
	sample   map[string]float64
}

func (t *tracer) newOp() *opTrace {
	return &opTrace{t: t, sample: map[string]float64{}}
}

// timedBackend is the timing dist.Backend decorator of traced ops: it
// times every Run, reads the coordinator's run statistics, and keeps
// the shards and results for the post-op replay.
type timedBackend struct {
	inner dist.Backend
	op    *opTrace
}

func (b *timedBackend) Run(shards []*dist.ShardDesc) ([]*dist.ShardResult, error) {
	var sp *span
	if b.op.t != nil {
		sp = b.op.t.begin("dist.sweep", "dist", b.op.parent, 1)
	}
	t0 := time.Now()
	res, err := b.inner.Run(shards)
	b.op.runDur += time.Since(t0)
	rec := sweepRec{shards: shards, res: res}
	if sp != nil {
		sp.end()
		rec.span = sp.id
	}
	if st, ok := dist.LastRunStats(b.inner); ok {
		b.op.requeues += st.Requeues
		b.op.chunks += st.Chunks
	}
	if err == nil {
		b.op.sweeps = append(b.op.sweeps, rec)
	}
	return res, err
}

func (b *timedBackend) Close() error { return b.inner.Close() }

// obsDelta returns after-before for every registry sample.
func obsDelta(before, after map[string]uint64) map[string]uint64 {
	d := make(map[string]uint64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// meanOf returns a histogram delta's mean (sum/count) divided by scale.
func meanOf(d map[string]uint64, fam string, scale float64) float64 {
	n := d[fam+"_count"]
	if n == 0 {
		return 0
	}
	return float64(d[fam+"_sum"]) / float64(n) / scale
}

var phases = []string{"viewWalk", "explore", "symmRV", "schedule", "other"}

// startCounters snapshots the registry before the op's timed part.
func (o *opTrace) startCounters() { o.before = obs.Default().Values() }

// stopCounters copies the op's sim and rvd registry deltas into the
// sample. sim_runs_total{engine="batch"} counts batch shard calls, not
// cases, and rvd_store_hits_total counts the store's own read-after-
// write too, so hits come from rvd_shards_cache_hits_total.
func (o *opTrace) stopCounters() {
	d := obsDelta(o.before, obs.Default().Values())
	s := o.sample
	for _, e := range []string{"pair", "multi", "batch"} {
		s["sim.runs."+e] = float64(d[fmt.Sprintf(`sim_runs_total{engine=%q}`, e)])
	}
	s["sim.wakeups"] = float64(d["sim_wakeups_total"])
	for _, p := range phases {
		s["sim.wakeups."+p] = float64(d[fmt.Sprintf(`sim_wakeups_phase_total{phase=%q}`, p)])
	}
	exec, hits := d["rvd_shards_executed_total"], d["rvd_shards_cache_hits_total"]
	s["rvd.shards_executed"] = float64(exec)
	s["rvd.cache_hits"] = float64(hits)
	if exec+hits > 0 {
		s["rvd.hit_ratio"] = float64(hits) / float64(exec+hits)
	}
	s["rvd.store_misses"] = float64(d["rvd_store_misses_total"])
	s["rvd.store_written_bytes"] = float64(d["rvd_store_written_bytes_total"])
	s["rvd.store_read_bytes"] = float64(d["rvd_store_read_bytes_total"])
	s["rvd.journal_appends"] = float64(d["rvd_journal_appends_total"])
	s["rvd.journal_fsync_mean_us"] = meanOf(d, "rvd_journal_fsync_ns", 1e3)
	s["rvd.queue_wait_mean_us"] = meanOf(d, "rvd_queue_wait_ns", 1e3)
}

// analyze runs after the op's timed part: dispatch counts from the
// captured plans, simulated rounds from the results, codec timing, and
// the serial replay of every shard — batch-flagged shards with the
// batch engines on and off — which must reproduce the dispatched
// results byte for byte.
func (o *opTrace) analyze() error {
	s := o.sample
	s["dist.sweeps"] = float64(len(o.sweeps))
	s["dist.run_ms"] = ms(o.runDur)
	s["dist.requeues"] = float64(o.requeues)
	s["dist.chunks"] = float64(o.chunks)
	var shards, cases int
	var rounds uint64
	var codec, replay, batch, loop time.Duration
	var buf []byte
	for _, sw := range o.sweeps {
		for i, sh := range sw.shards {
			res := sw.res[i]
			shards++
			cases += len(sh.Cases)
			for _, c := range res.Cases {
				if c.Kind == dist.KindMulti {
					rounds += c.Multi.Rounds
				} else {
					rounds += c.Two.Rounds
				}
			}

			t0 := time.Now()
			buf = sh.AppendEncode(buf[:0])
			var dsh dist.ShardDesc
			if err := dsh.Decode(buf); err != nil {
				return fmt.Errorf("decoding shard descriptor: %w", err)
			}
			want := res.AppendEncode(nil)
			var dres dist.ShardResult
			if err := dres.Decode(want); err != nil {
				return fmt.Errorf("decoding shard result: %w", err)
			}
			codec += time.Since(t0)

			sp := o.t.begin("sim.replay", "sim", sw.span, 2)
			var got *dist.ShardResult
			var err error
			if sh.Batch {
				got, err = dist.ExecShardBatch(o.t.sess, o.t.arena, sh)
			} else {
				got, err = dist.ExecShard(o.t.sess, sh)
			}
			d := sp.end()
			replay += d
			if err != nil {
				return fmt.Errorf("replaying shard %d: %w", i, err)
			}
			if !bytes.Equal(got.AppendEncode(nil), want) {
				return fmt.Errorf("shard %d: serial replay differs from the dispatched result", i)
			}
			if !sh.Batch {
				continue
			}
			batch += d
			plain := *sh
			plain.Batch = false
			sp = o.t.begin("sim.replay.loop", "sim", sw.span, 2)
			got, err = dist.ExecShard(o.t.sess, &plain)
			loop += sp.end()
			if err != nil {
				return fmt.Errorf("replaying shard %d without batching: %w", i, err)
			}
			if !bytes.Equal(got.AppendEncode(nil), want) {
				return fmt.Errorf("shard %d: replay with batching off differs from the dispatched result", i)
			}
		}
	}
	s["dist.shards"] = float64(shards)
	s["dist.cases"] = float64(cases)
	if shards > 0 {
		s["dist.codec_us_per_shard"] = float64(codec.Nanoseconds()) / 1e3 / float64(shards)
	}
	s["sim.rounds"] = float64(rounds)
	s["sim.replay_ms"] = ms(replay)
	s["sim.batch_ms"] = ms(batch)
	s["sim.loop_ms"] = ms(loop)
	if o.runDur > 0 {
		s["dist.exec_share"] = float64(replay) / float64(o.runDur)
	}
	return nil
}
