package diskstore

import (
	"bytes"
	"math/rand"
	"testing"

	"hierpart/internal/gen"
	"hierpart/internal/treedecomp"
)

// The decoders sit on the disk and peer-wire trust boundary: whatever
// bytes arrive, they must return an error or a value, never panic, and
// a value they accept must re-encode to exactly the bytes it came from
// (the encodings are canonical, so an accepted payload has one form).

// smallDecompSeeds are decomposition entries of a 6-vertex graph, with
// and without a permutation. The seeds stay a few hundred bytes: the
// fuzzing engine makes little progress mutating multi-kilobyte inputs.
func smallDecompSeeds() [][]byte {
	g := gen.Community(rand.New(rand.NewSource(3)), 2, 3, 0.6, 0.05, 10, 1)
	gen.EqualDemands(g, 0.5)
	d := treedecomp.Build(g, treedecomp.Options{Trees: 2, Seed: 3, Workers: 1})
	return [][]byte{EncodeDecompEntry(d, nil), EncodeDecompEntry(d, []int{1, 0, 2, 3, 5, 4})}
}

func FuzzDecompEntry(f *testing.F) {
	for _, seed := range smallDecompSeeds() {
		f.Add(WrapWire(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		payload, err := UnwrapWire(raw)
		if err != nil {
			return
		}
		if !bytes.Equal(WrapWire(payload), raw) {
			t.Fatal("an accepted frame re-wraps to other bytes")
		}
		dec, perm, err := DecodeDecompEntry(payload)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeDecompEntry(dec, perm), payload) {
			t.Fatal("an accepted decomposition entry re-encodes to other bytes")
		}
	})
}

// FuzzDecompPayload fuzzes DecodeDecompEntry behind a valid frame, so
// mutations reach the decoder instead of dying at the checksum.
func FuzzDecompPayload(f *testing.F) {
	for _, seed := range smallDecompSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		dec, perm, err := DecodeDecompEntry(payload)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeDecompEntry(dec, perm), payload) {
			t.Fatal("an accepted decomposition entry re-encodes to other bytes")
		}
	})
}

func FuzzDecodeResult(f *testing.F) {
	f.Add(EncodeResult(sampleResult()))
	partial := sampleResult()
	partial.Partial = true
	f.Add(EncodeResult(partial))
	f.Fuzz(func(t *testing.T, payload []byte) {
		res, err := DecodeResult(payload)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeResult(res), payload) {
			t.Fatal("an accepted result re-encodes to other bytes")
		}
	})
}

func FuzzDecodeHint(f *testing.F) {
	f.Add(encodeHint(testHint("http://a:1", "key-one", []byte("payload-one"))))
	f.Add(encodeHint(Hint{Peer: "http://10.0.0.2:8080", Kind: "result", Key: "ab", Payload: EncodeResult(sampleResult())}))
	f.Fuzz(func(t *testing.T, payload []byte) {
		h, err := decodeHint(payload)
		if err != nil {
			return
		}
		if !bytes.Equal(encodeHint(h), payload) {
			t.Fatal("an accepted hint re-encodes to other bytes")
		}
	})
}
