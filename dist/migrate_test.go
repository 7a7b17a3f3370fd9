package dist_test

// Mid-shard migration chaos suite (protocol v3): when Tuning.Migrate is
// on, a shard stranded on a dying connection with delivered chunks is
// re-dispatched to a survivor as a checkpoint frame — resume offset plus
// the remaining-case descriptor — instead of being requeued from zero.
// The suite pins the two halves of that contract: aggregation stays
// byte-identical to the in-process sweep (the migrated tail splices onto
// the preserved prefix exactly), and the checkpoint frames on the wire
// carry only the cases past the resume offset, so a survivor structurally
// cannot re-execute completed cases.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/dist"
	"repro/internal/simtest"
)

// plannerForMigration scans seeds for a plan whose every shard holds at
// least minCases cases: with WithChunkCases(2), a crashing worker then
// always delivers at least one non-terminal chunk before the link cuts,
// so the coordinator holds a partial prefix and migration must fire.
func plannerForMigration(seed int64, minShards, minCases int) (*dist.Planner, []planCase) {
	for s := seed; ; s++ {
		r := rand.New(rand.NewSource(s))
		p, cases := buildPlan(r)
		shards := p.Shards()
		if len(shards) < minShards {
			continue
		}
		ok := true
		for _, sh := range shards {
			if len(sh.Cases) < minCases {
				ok = false
				break
			}
		}
		if ok {
			return p, cases
		}
	}
}

// TestMigrationChaosMatrix is the kill-schedule matrix with migration
// enabled: worker i crashes while executing its j-th shard for every
// (i, j), the terminal chunk is withheld, and the survivor resumes the
// stranded shard from its delivered prefix. Every cell must aggregate
// byte-identically to the in-process sweep, and every crash that left a
// partial prefix must surface as a migration, not a from-zero requeue.
func TestMigrationChaosMatrix(t *testing.T) {
	p, cases := plannerForMigration(9100, 3, 3)
	want := rawSweep(t, cases)
	tun := faultTuning()
	tun.Migrate = true
	for i := 0; i < 2; i++ {
		for j := 1; j <= 3; j++ {
			t.Run(fmt.Sprintf("kill-worker%d-after%d", i, j), func(t *testing.T) {
				links := make([]workerLink, 2)
				streams := make([]io.ReadWriteCloser, 2)
				for w := range links {
					opts := []dist.ServeOption{dist.WithChunkCases(2)}
					if w == i {
						opts = append(opts, dist.WithCrashAfterShards(j))
					}
					links[w] = startServeWorker(nil, nil, opts...)
					streams[w] = links[w].coord
				}
				be := dist.NewFromStreams(streams, dist.WithTuning(tun))
				defer be.Close()
				got, err := p.Run(be)
				if err != nil {
					t.Fatalf("sweep failed with one worker killed: %v", err)
				}
				simtest.RequireEqualResults(t, "migrated sweep", want, got)
				stats, ok := dist.LastRunStats(be)
				if !ok {
					t.Fatal("no run stats from a connection backend")
				}
				if stats.MaxAttempts > tun.MaxAttempts {
					t.Fatalf("shard dispatched %d times, budget %d", stats.MaxAttempts, tun.MaxAttempts)
				}
				// Every shard has >= 3 cases and chunks are 2 cases wide,
				// so the crashed shard always left a delivered prefix:
				// a dead connection implies at least one migration with at
				// least one preserved case.
				if stats.DeadConns > 0 {
					if stats.Migrations == 0 {
						t.Fatalf("worker died holding a partial shard but nothing migrated: %+v", stats)
					}
					if stats.MigratedCases < stats.Migrations {
						t.Fatalf("migration with an empty preserved prefix: %+v", stats)
					}
				}
			})
		}
	}
}

// captureConn records every byte the coordinator writes toward one
// worker so the test can re-parse the coordinator→worker frame stream
// after the sweep.
type captureConn struct {
	io.ReadWriteCloser
	mu  sync.Mutex
	buf []byte
}

func (c *captureConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.buf = append(c.buf, p...)
	c.mu.Unlock()
	return c.ReadWriteCloser.Write(p)
}

func (c *captureConn) bytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.buf...)
}

// firstWriteConn closes wrote when the coordinator first writes toward
// the worker — the coordinator writes nothing before its first shard
// frame, so that is the moment the worker was dispatched a shard.
type firstWriteConn struct {
	io.ReadWriteCloser
	wrote chan struct{}
	once  sync.Once
}

func (c *firstWriteConn) Write(p []byte) (int, error) {
	c.once.Do(func() { close(c.wrote) })
	return c.ReadWriteCloser.Write(p)
}

// gatedReadConn blocks the coordinator's reads from the worker, its
// hello included, until gate is closed.
type gatedReadConn struct {
	io.ReadWriteCloser
	gate chan struct{}
}

func (c *gatedReadConn) Read(p []byte) (int, error) {
	<-c.gate
	return c.ReadWriteCloser.Read(p)
}

// checkpointFrames re-parses a captured coordinator→worker stream and
// decodes every checkpoint frame (type byte 8): shard id, resume offset,
// remaining-case descriptor. Parsing stops at the first truncated frame
// (the stream ends mid-write when the sweep finishes and the link drops).
func checkpointFrames(t *testing.T, stream []byte) (ids []int, froms []int, descs []*dist.ShardDesc) {
	t.Helper()
	for len(stream) > 0 {
		n, w := binary.Uvarint(stream)
		if w <= 0 || uint64(len(stream)-w) < n {
			break
		}
		payload := stream[w : w+int(n)]
		stream = stream[w+int(n):]
		// Every coordinator→worker frame carries a trailing 32-bit
		// checksum inside the length-prefixed region.
		if len(payload) < 5 || payload[0] != 8 {
			continue
		}
		body := payload[:len(payload)-4]
		id, iw := binary.Uvarint(body[1:])
		if iw <= 0 {
			t.Fatal("checkpoint frame with truncated shard id")
		}
		from, fw := binary.Uvarint(body[1+iw:])
		if fw <= 0 {
			t.Fatal("checkpoint frame with truncated resume offset")
		}
		sub := new(dist.ShardDesc)
		if err := sub.Decode(body[1+iw+fw:]); err != nil {
			t.Fatalf("checkpoint frame descriptor does not decode: %v", err)
		}
		ids = append(ids, int(id))
		froms = append(froms, int(from))
		descs = append(descs, sub)
	}
	return ids, froms, descs
}

// TestMigrationSkipsCompletedCases pins the structural half of the
// migration contract at the frame level: every checkpoint frame on the
// wire carries a strictly positive resume offset and a descriptor whose
// case list is exactly the original shard's cases from that offset on —
// the completed prefix is not on the wire, so the receiving worker
// cannot re-execute it.
func TestMigrationSkipsCompletedCases(t *testing.T) {
	p, cases := plannerForMigration(9100, 3, 3)
	want := rawSweep(t, cases)
	tun := faultTuning()
	tun.Migrate = true

	crasher := startServeWorker(nil, nil, dist.WithChunkCases(2), dist.WithCrashAfterShards(1))
	survivor := startServeWorker(nil, nil, dist.WithChunkCases(2))
	// The survivor's hello is held back until the coordinator has sent
	// the crasher its first shard: otherwise the survivor can drain the
	// whole queue before the crasher is dispatched anything, and no
	// crash ever happens.
	dispatched := make(chan struct{})
	taps := []*captureConn{
		{ReadWriteCloser: &firstWriteConn{ReadWriteCloser: crasher.coord, wrote: dispatched}},
		{ReadWriteCloser: &gatedReadConn{ReadWriteCloser: survivor.coord, gate: dispatched}},
	}
	be := dist.NewFromStreams([]io.ReadWriteCloser{taps[0], taps[1]}, dist.WithTuning(tun))
	defer be.Close()
	got, err := p.Run(be)
	if err != nil {
		t.Fatalf("sweep failed: %v", err)
	}
	simtest.RequireEqualResults(t, "sniffed migration sweep", want, got)

	shards := p.Shards()
	total := 0
	for _, tap := range taps {
		ids, froms, descs := checkpointFrames(t, tap.bytes())
		for k := range ids {
			total++
			si, from, sub := ids[k], froms[k], descs[k]
			if si >= len(shards) {
				t.Fatalf("checkpoint frame names shard %d of %d", si, len(shards))
			}
			if from <= 0 {
				t.Fatalf("shard %d migrated with resume offset %d; a zero offset must use a plain shard frame", si, from)
			}
			orig := shards[si]
			if from >= len(orig.Cases) {
				t.Fatalf("shard %d resume offset %d covers all %d cases; a complete shard must not be re-dispatched", si, from, len(orig.Cases))
			}
			if !reflect.DeepEqual(sub.Cases, orig.Cases[from:]) {
				t.Fatalf("shard %d checkpoint descriptor is not the original's case tail from %d:\n  frame %+v\n  want  %+v",
					si, from, sub.Cases, orig.Cases[from:])
			}
			if sub.GraphText != orig.GraphText || !reflect.DeepEqual(sub.Params, orig.Params) {
				t.Fatalf("shard %d checkpoint descriptor changed the parameter block", si)
			}
		}
	}
	stats, _ := dist.LastRunStats(be)
	if stats.Migrations == 0 || total == 0 {
		t.Fatalf("crash-after-first-shard never produced a checkpoint frame: stats %+v, frames %d", stats, total)
	}
	if total != stats.Migrations {
		t.Fatalf("%d checkpoint frames on the wire, stats counted %d migrations", total, stats.Migrations)
	}
}
