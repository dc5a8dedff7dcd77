// Wire envelopes of the /shards HTTP protocol, with validating decoders.
// Everything a peer sends crosses a trust boundary — lease IDs, epochs and
// packed cone expressions all come from the network — so decoding is
// strict: bounded sizes, well-formed IDs, and per-cone expression unpacking
// through the same CRC-checked path the checkpoint codec uses. The fuzz
// targets (FuzzResultEnvelope, FuzzGrant) hammer exactly these functions.
package shard

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"github.com/galoisfield/gfre/internal/checkpoint"
	"github.com/galoisfield/gfre/internal/rewrite"
)

// Envelope size bounds: a result envelope is at most one lease's cones and
// a grant at most one netlist, so multi-megabyte payloads are garbage.
const (
	maxEnvelopeCones = 4096
	maxEnvelopeBytes = 64 << 20
)

// LeaseRequest is the body of POST /shards/lease.
type LeaseRequest struct {
	Worker string `json:"worker"`
	Max    int    `json:"max,omitempty"`
	// Have lists netlist content hashes the worker already holds, so the
	// grant can omit the netlist body.
	Have []string `json:"have,omitempty"`
}

// RenewRequest is the body of POST /shards/{id}/renew.
type RenewRequest struct {
	Epoch uint64 `json:"epoch"`
}

// RenewReply acknowledges a heartbeat with the extended deadline.
type RenewReply struct {
	DeadlineUnixNS int64 `json:"deadline_unix_ns"`
}

// resultEnvelope is the body of POST /shards/{id}/result: the packed cone
// results of one lease, submitted under its epoch.
type resultEnvelope struct {
	Epoch uint64            `json:"epoch"`
	Cones []checkpoint.Cone `json:"cones"`
}

// encodeResultEnvelope packs the results of one lease into its wire form.
func encodeResultEnvelope(epoch uint64, results []rewrite.BitResult) []byte {
	env := resultEnvelope{Epoch: epoch, Cones: make([]checkpoint.Cone, len(results))}
	for i, br := range results {
		env.Cones[i] = checkpoint.FromBitResult(br)
	}
	data, _ := json.Marshal(env) // plain structs: cannot fail
	return data
}

// DecodeResultEnvelope parses and validates a result envelope and unpacks
// its cones. Cones must be in range of no particular netlist here (the
// pool checks against its own bit count), but each must carry a terminal
// status other than cancelled, and each completed cone's packed expression
// must decode — a truncated or bit-flipped body fails here,
// before any scheduling state is touched. This is the only place a remote
// result is unpacked.
func DecodeResultEnvelope(data []byte) (epoch uint64, results []rewrite.BitResult, err error) {
	if len(data) > maxEnvelopeBytes {
		return 0, nil, fmt.Errorf("shard: result envelope of %d bytes exceeds limit", len(data))
	}
	var env resultEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return 0, nil, fmt.Errorf("shard: bad result envelope: %w", err)
	}
	if env.Epoch == 0 {
		return 0, nil, fmt.Errorf("shard: result envelope missing epoch")
	}
	if len(env.Cones) == 0 || len(env.Cones) > maxEnvelopeCones {
		return 0, nil, fmt.Errorf("shard: result envelope holds %d cones (want 1..%d)", len(env.Cones), maxEnvelopeCones)
	}
	seen := map[int]bool{}
	results = make([]rewrite.BitResult, len(env.Cones))
	for i, c := range env.Cones {
		if c.Bit < 0 {
			return 0, nil, fmt.Errorf("shard: cone %d has negative bit %d", i, c.Bit)
		}
		if seen[c.Bit] {
			return 0, nil, fmt.Errorf("shard: bit %d appears twice in one envelope", c.Bit)
		}
		seen[c.Bit] = true
		switch rewrite.Status(c.Status) {
		case rewrite.StatusOK, rewrite.StatusBudget, rewrite.StatusTimeout, rewrite.StatusPanic, rewrite.StatusError:
		default:
			// Workers submit only terminal verdicts; anything else would
			// count as a governor failure here and end up a "completed"
			// bit without an expression.
			return 0, nil, fmt.Errorf("shard: cone %d (bit %d) has no terminal status (%q)", i, c.Bit, c.Status)
		}
		if results[i], err = c.BitResult(); err != nil {
			return 0, nil, fmt.Errorf("shard: cone %d (bit %d): %w", i, c.Bit, err)
		}
	}
	return env.Epoch, results, nil
}

// DecodeGrant parses and validates a lease grant as received by a peer.
func DecodeGrant(data []byte) (*Grant, error) {
	if len(data) > maxEnvelopeBytes {
		return nil, fmt.Errorf("shard: grant of %d bytes exceeds limit", len(data))
	}
	var g Grant
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("shard: bad grant: %w", err)
	}
	if !validLeaseID(g.Lease) {
		return nil, fmt.Errorf("shard: bad lease ID %q", g.Lease)
	}
	if g.Epoch == 0 {
		return nil, fmt.Errorf("shard: grant missing epoch")
	}
	if len(g.Hash) != 64 {
		return nil, fmt.Errorf("shard: grant hash %q is not a sha256 hex digest", g.Hash)
	}
	if _, err := hex.DecodeString(g.Hash); err != nil {
		return nil, fmt.Errorf("shard: grant hash %q is not hex", g.Hash)
	}
	if len(g.Cones) == 0 || len(g.Cones) > maxEnvelopeCones {
		return nil, fmt.Errorf("shard: grant holds %d cones (want 1..%d)", len(g.Cones), maxEnvelopeCones)
	}
	seen := map[int]bool{}
	for _, bit := range g.Cones {
		if bit < 0 {
			return nil, fmt.Errorf("shard: grant cone bit %d is negative", bit)
		}
		if seen[bit] {
			return nil, fmt.Errorf("shard: grant lists bit %d twice", bit)
		}
		seen[bit] = true
	}
	if g.BudgetTerms < 0 || g.ConeDeadlineMS < 0 {
		return nil, fmt.Errorf("shard: grant carries negative governance hints")
	}
	return &g, nil
}

// newLeaseID returns a 16-hex-char random lease identifier.
func newLeaseID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("shard: crypto/rand unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// validLeaseID matches what newLeaseID produces — and nothing else, since
// lease IDs travel in URL paths.
func validLeaseID(id string) bool {
	if len(id) != 16 {
		return false
	}
	for _, c := range id {
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'f':
		default:
			return false
		}
	}
	return true
}
