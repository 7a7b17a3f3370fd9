package dist_test

// FuzzShardDecode guards the shard-descriptor wire decoder the same way
// FuzzTreeDecode guards the view codec: arbitrary input — corrupt
// headers, truncated varints, hostile count claims — must produce an
// error or a valid descriptor, never a panic and never an allocation
// disproportionate to the input. Accepted inputs must re-encode to a
// canonical fixed point. CI runs a short -fuzz smoke on top of the seed
// corpus.

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/dist"
)

func FuzzShardDecode(f *testing.F) {
	// Valid encodings across the descriptor shapes.
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		f.Add(randShardDesc(r).Encode())
	}
	// Hand-built corruption: empty input, unterminated varint, truncated
	// string, hostile case/agent/arg counts, trailing garbage.
	f.Add([]byte{})
	f.Add([]byte{0x80})
	f.Add([]byte{0x05, 'r', 'i'})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x01, 0x00})
	f.Add(append(randShardDesc(r).Encode(), 0xAA))

	f.Fuzz(func(t *testing.T, data []byte) {
		var sh dist.ShardDesc
		if err := sh.Decode(data); err != nil {
			return // rejected: fine, as long as it never panics
		}
		enc := sh.Encode()
		var sh2 dist.ShardDesc
		if err := sh2.Decode(enc); err != nil {
			t.Fatalf("re-decode of own encoding failed: %v\ninput: %x\nenc:   %x", err, data, enc)
		}
		if !reflect.DeepEqual(sh, sh2) {
			t.Fatalf("decode(encode(desc)) changed the descriptor\ninput: %x", data)
		}
		if enc2 := sh2.Encode(); !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixed point: %x vs %x", enc, enc2)
		}
	})
}

// FuzzResultChunkDecode applies the contract to the v2 chunk frames —
// the unit results actually travel in, and the decoder that meets every
// faulty byte stream first. Accepted chunks must round-trip.
func FuzzResultChunkDecode(f *testing.F) {
	// A couple of valid chunks: empty non-terminal, terminal with a sig.
	empty := dist.ResultChunk{}
	f.Add(empty.AppendEncode(nil))
	term := dist.ResultChunk{Start: 3, Terminal: true, ViewSig: []byte{1, 2, 3}}
	f.Add(term.AppendEncode(nil))
	// Corruption: truncated varints, hostile counts, trailing garbage.
	f.Add([]byte{})
	f.Add([]byte{0x80})
	f.Add([]byte{0x00, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Add(append(term.AppendEncode(nil), 0xAA))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ck dist.ResultChunk
		if err := ck.Decode(data); err != nil {
			return
		}
		if !ck.Terminal && ck.ViewSig != nil {
			t.Fatal("non-terminal chunk decoded with a view signature")
		}
		enc := ck.AppendEncode(nil)
		var ck2 dist.ResultChunk
		if err := ck2.Decode(enc); err != nil {
			t.Fatalf("re-decode of own encoding failed: %v\ninput: %x", err, data)
		}
		if !reflect.DeepEqual(ck, ck2) {
			t.Fatalf("decode(encode(chunk)) changed the chunk\ninput: %x", data)
		}
	})
}

// FuzzShardResultDecode applies the same contract to the aggregate
// decoder — the coordinator feeds it bytes straight off worker sockets.
func FuzzShardResultDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x80})
	f.Add([]byte{0x01, 0x00, 0x00})
	f.Add([]byte{0x01, 0x01, 0x00, 0x01, 0x00, 0x00, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Fuzz(func(t *testing.T, data []byte) {
		var res dist.ShardResult
		if err := res.Decode(data); err != nil {
			return
		}
		enc := res.AppendEncode(nil)
		var res2 dist.ShardResult
		if err := res2.Decode(enc); err != nil {
			t.Fatalf("re-decode of own encoding failed: %v\ninput: %x", err, data)
		}
		if !reflect.DeepEqual(res, res2) {
			t.Fatalf("decode(encode(result)) changed the result\ninput: %x", data)
		}
	})
}
