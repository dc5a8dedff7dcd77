package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"github.com/galoisfield/gfre/internal/anf"
	"github.com/galoisfield/gfre/internal/rewrite"
)

// FuzzCheckpoint drives Decode over arbitrary bytes. The contract under
// test is the package's core robustness promise: a snapshot file, however
// truncated, bit-flipped or version-skewed, either decodes into a snapshot
// that round-trips losslessly, or fails with an error wrapping
// ErrCheckpoint — never a panic, never a silently wrong acceptance.
func FuzzCheckpoint(f *testing.F) {
	// Seed with a valid snapshot and targeted mutations of it, so the fuzzer
	// starts at the interesting boundary instead of random noise.
	valid := encodeSeedSnapshot(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add(valid[:headerLen])
	f.Add(valid[:len(valid)-1])
	flip := append([]byte(nil), valid...)
	flip[headerLen+2] ^= 0x40
	f.Add(flip)
	skew := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(skew[8:], Version+1)
	f.Add(skew)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCheckpoint) {
				t.Fatalf("Decode returned a non-ErrCheckpoint error: %v", err)
			}
			return
		}
		// Accepted input: the snapshot must be internally consistent and
		// survive a re-encode/re-decode cycle unchanged.
		if s.M != len(s.Bits) {
			t.Fatalf("accepted snapshot with m=%d but %d bits", s.M, len(s.Bits))
		}
		var buf bytes.Buffer
		if err := Encode(&buf, s); err != nil {
			t.Fatalf("re-encoding an accepted snapshot: %v", err)
		}
		s2, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding an accepted snapshot: %v", err)
		}
		if s2.NetlistHash != s.NetlistHash || s2.M != s.M || s2.Retries != s.Retries ||
			s2.P != s.P || s2.Complete != s.Complete {
			t.Fatal("snapshot changed across encode/decode")
		}
		for i := range s.Bits {
			if s2.Bits[i] != s.Bits[i] {
				t.Fatalf("bit %d changed across encode/decode", i)
			}
		}
	})
}

// encodeSeedSnapshot builds a small valid snapshot without touching the
// netlist generator (the fuzz engine re-runs the seed function often).
func encodeSeedSnapshot(f *testing.F) []byte {
	f.Helper()
	hash := make([]byte, 64)
	for i := range hash {
		hash[i] = "0123456789abcdef"[i%16]
	}
	s := &Snapshot{
		NetlistHash: string(hash),
		NetlistName: "seed",
		M:           2,
		Retries:     1,
		Bits: []Cone{
			{Bit: 0, Name: "z0"},
			{Bit: 1, Name: "z1"},
		},
	}
	var buf bytes.Buffer
	if err := Encode(&buf, s); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzConeLog drives replayLog, the cone log's reader, over arbitrary
// bytes. A log either replays into a snapshot that validates and survives
// a re-encode/re-replay cycle unchanged, or fails with ErrCheckpoint —
// never a panic. The seeds sit at the boundaries a crash or a writer bug
// would produce.
func FuzzConeLog(f *testing.F) {
	log := seedConeLog(f)
	hdr := appendLogHeader(nil, seedLogSnapshot())
	f.Add([]byte{})
	f.Add(hdr)
	f.Add(log[:len(log)-3]) // torn tail
	flip := append([]byte(nil), log...)
	flip[len(hdr)+5] ^= 0x01 // the first record's CRC
	f.Add(flip)
	f.Add(appendConeRecord(append([]byte(nil), log...), Cone{Bit: 0, Status: string(rewrite.StatusBudget), Err: "again"}, nil))
	f.Add(appendConeRecord(append([]byte(nil), hdr...), Cone{Bit: 2, Status: string(rewrite.StatusBudget)}, nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := replayLog(data)
		if err != nil {
			if !errors.Is(err, ErrCheckpoint) {
				t.Fatalf("replayLog returned a non-ErrCheckpoint error: %v", err)
			}
			return
		}
		if err := s.validate(); err != nil {
			t.Fatalf("accepted a log whose snapshot does not validate: %v", err)
		}
		enc, err := encodeLog(s)
		if err != nil {
			t.Fatalf("re-encoding an accepted log: %v", err)
		}
		s2, err := replayLog(enc)
		if err != nil {
			t.Fatalf("re-replaying an accepted log: %v", err)
		}
		if s2.NetlistHash != s.NetlistHash || s2.NetlistName != s.NetlistName || s2.M != s.M ||
			s2.Retries != s.Retries || s2.P != s.P || s2.Complete != s.Complete {
			t.Fatal("snapshot changed across encode/replay")
		}
		for i := range s.Bits {
			if s2.Bits[i] != s.Bits[i] {
				t.Fatalf("bit %d changed across encode/replay", i)
			}
		}
	})
}

// seedLogSnapshot is a two-bit snapshot with no cone attempted yet.
func seedLogSnapshot() *Snapshot {
	return &Snapshot{
		NetlistHash: strings.Repeat("0123456789abcdef", 4),
		NetlistName: "seed",
		M:           2,
		Bits:        []Cone{{Bit: 0, Name: "z0"}, {Bit: 1, Name: "z1"}},
	}
}

// seedConeLog is a valid log of seedLogSnapshot with one completed cone,
// one failed cone, a retry count and a verdict.
func seedConeLog(f testing.TB) []byte {
	f.Helper()
	s := seedLogSnapshot()
	expr := anf.Variable(3).Add(anf.FromMonos(anf.NewMono(1, 2)))
	s.Bits[0], _ = packCone(rewrite.BitResult{
		BitStats: rewrite.BitStats{Bit: 0, Name: "z0", FinalTerms: expr.Len(), Substitutions: 4},
		Expr:     expr, Status: rewrite.StatusOK,
	})
	s.Bits[1], _ = packCone(rewrite.BitResult{
		BitStats: rewrite.BitStats{Bit: 1, Name: "z1"}, Status: rewrite.StatusTimeout, Err: "deadline",
	})
	s.Retries, s.P, s.Complete = 1, "x^2+x+1", true
	log, err := encodeLog(s)
	if err != nil {
		f.Fatal(err)
	}
	return log
}

// TestReplayLogRecords pins the replay rules the fuzz seeds sit on: a later
// record for a bit supersedes the earlier one, a zero-filled tail (what a
// crash can leave after the file grew) ends the replay like any torn
// record, and a record that passes its CRC but names a bit past m or an
// unknown kind is ErrCheckpoint.
func TestReplayLogRecords(t *testing.T) {
	log := seedConeLog(t)
	s, err := replayLog(log)
	if err != nil {
		t.Fatal(err)
	}
	if s.DoneCones() != 1 || s.Bits[1].Status != string(rewrite.StatusTimeout) || s.Retries != 1 || !s.Complete {
		t.Fatalf("seed log replayed as %+v", s)
	}

	again := appendConeRecord(append([]byte(nil), log...), Cone{Bit: 0, Status: string(rewrite.StatusBudget), Err: "again"}, nil)
	if s, err := replayLog(again); err != nil || s.DoneCones() != 0 || s.Bits[0].Err != "again" {
		t.Fatalf("superseding record: err %v, bit 0 %+v", err, s.Bits[0])
	}
	zeros := append(append([]byte(nil), log...), make([]byte, 64)...)
	if s, err := replayLog(zeros); err != nil || s.DoneCones() != 1 {
		t.Fatalf("zero-filled tail: %v", err)
	}
	hdr := appendLogHeader(nil, seedLogSnapshot())
	for name, data := range map[string][]byte{
		"bit past m":   appendConeRecord(append([]byte(nil), hdr...), Cone{Bit: 2, Status: string(rewrite.StatusBudget)}, nil),
		"unknown kind": sealFrame(append(append(append([]byte(nil), hdr...), zeroFrameHeader[:]...), 9), len(hdr)),
	} {
		if _, err := replayLog(data); !errors.Is(err, ErrCheckpoint) {
			t.Errorf("%s: got %v, want ErrCheckpoint", name, err)
		}
	}
}
