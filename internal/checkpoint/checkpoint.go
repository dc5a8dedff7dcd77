// Package checkpoint makes backward rewriting survive process death.
//
// Per Theorem 2 the per-output-cone rewrites are independent, so every
// completed cone is individually meaningful: a crash, OOM kill or operator
// interrupt halfway through a GF(2^233) extraction loses nothing but the
// cones still in flight — provided the completed ones were durably recorded.
// This package is that record: a Snapshot holds the per-cone status and
// extracted ANF of every output bit, the retry state of the resource
// governor, and a content hash binding the snapshot to the exact netlist it
// was computed from.
//
// On disk a run is an append-only cone log (LogFile, see log.go): a header
// naming the netlist hash and outputs, written once by temp file, fsync,
// rename and directory fsync, then one CRC-framed binary record per
// finished cone, appended and fsynced as the cone completes. Bytes written
// per run grow with the cones, not with the cones squared, and a cone costs
// one append and one fsync. A crash can tear at most the record being
// written: Load replays the log up to the first record that fails its
// length or CRC check, so earlier cones are adopted and later ones are
// simply rewritten again. A damaged header, another netlist's hash, or a
// record that passes its CRC yet does not parse is ErrCheckpoint — a
// corrupt checkpoint surfaces as a typed error, never as a panic or a
// silently wrong resume.
//
// Directories written before the log existed hold one snapshot.gfre: a
// fixed header (magic, version, payload length, CRC-32) and a JSON payload
// with base64-wrapped expressions. Load still reads it through Decode, and
// a Restore from it continues into a fresh log seeded with its cones.
//
// Expressions are varint-packed term lists (packExpr). Term order is the
// polynomial's table order, not canonical: two packings of one polynomial
// may differ byte for byte, and unpacking accepts any order.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/galoisfield/gfre/internal/anf"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/rewrite"
)

// Sentinel errors; use errors.Is against them.
var (
	// ErrCheckpoint means a checkpoint exists but cannot be trusted: a
	// damaged log header or legacy snapshot, an unsupported version, a
	// malformed record, or a binding to a different netlist than the one
	// being resumed.
	ErrCheckpoint = errors.New("checkpoint: invalid snapshot")
	// ErrNoCheckpoint means the directory holds neither a cone log nor a
	// legacy snapshot — a fresh start, not a failure.
	ErrNoCheckpoint = errors.New("checkpoint: no snapshot")
)

const (
	// magic opens every legacy snapshot file.
	magic = "GFRESNAP"
	// Version is the legacy snapshot format version. Decode accepts only
	// this version: the format carries extracted expressions, so a lossy
	// cross-version migration could silently corrupt a resumed P(x).
	Version = 1
	// SnapshotFile is the legacy snapshot's file name within its directory.
	SnapshotFile = "snapshot.gfre"
	// maxPayload bounds the declared payload size Decode will allocate for.
	// The largest legitimate snapshots (GF(2^571) Montgomery) stay far below
	// this; a header claiming more is corruption, not data.
	maxPayload = 1 << 30
	headerLen  = len(magic) + 4 + 8 + 4 // magic + version + length + CRC
)

// Cone is the durable record of one output cone.
type Cone struct {
	Bit    int    `json:"bit"`
	Name   string `json:"name"`
	Status string `json:"status"` // rewrite.Status; "" = never attempted
	Err    string `json:"err,omitempty"`

	ConeGates     int   `json:"cone_gates,omitempty"`
	Substitutions int   `json:"substitutions,omitempty"`
	PeakTerms     int   `json:"peak_terms,omitempty"`
	FinalTerms    int   `json:"final_terms,omitempty"`
	Cancelled     int   `json:"cancelled,omitempty"`
	RuntimeNS     int64 `json:"runtime_ns,omitempty"`

	// Expr is the varint-packed ANF of a completed cone (see packExpr);
	// empty for pending or failed cones.
	Expr string `json:"expr,omitempty"`
}

// Done reports whether the cone completed with a valid expression.
func (c Cone) Done() bool { return rewrite.Status(c.Status) == rewrite.StatusOK }

// Snapshot is the durable state of one extraction run.
type Snapshot struct {
	// NetlistHash is the hex SHA-256 of the netlist's canonical EQN
	// serialization; Restore refuses a snapshot whose hash does not match
	// the netlist being resumed.
	NetlistHash string `json:"netlist_hash"`
	// NetlistName is informational (diagnostics only).
	NetlistName string `json:"netlist_name,omitempty"`
	// M is the output count the Bits slice is indexed by.
	M int `json:"m"`
	// Retries carries the governor's retry counter across restarts.
	Retries int `json:"retries"`
	// Bits has exactly M entries, Bits[i].Bit == i.
	Bits []Cone `json:"bits"`
	// P is the recovered polynomial once extraction completed ("" before).
	P string `json:"p,omitempty"`
	// Complete marks a snapshot whose extraction finished end to end.
	Complete bool `json:"complete,omitempty"`
	// SavedUnixNS is the wall-clock time of the last save.
	SavedUnixNS int64 `json:"saved_unix_ns,omitempty"`
}

// DoneCones counts the cones that completed with a valid expression.
func (s *Snapshot) DoneCones() int {
	n := 0
	for _, c := range s.Bits {
		if c.Done() {
			n++
		}
	}
	return n
}

// PendingCones counts the cones a resumed run still has to rewrite
// (never attempted, failed, or cancelled).
func (s *Snapshot) PendingCones() int { return s.M - s.DoneCones() }

// HashNetlist returns the content hash binding snapshots to netlists: the
// hex SHA-256 of the canonical EQN serialization (netlist.Digest, memoized
// on the netlist). Any structural change — a different gate, name, or port
// order — changes the hash. The name is deliberately part of the hash
// (field snapshots depend on it staying stable); consumers that re-read a
// serialized netlist and need the hash to reproduce must restore the name
// from the EQN header first, as netlist.EQNName does.
func HashNetlist(n *netlist.Netlist) (string, error) {
	return n.Digest()
}

// HashSubmission computes the content-hash key the server's dedup layer
// groups identical submissions under: the hex SHA-256 of the raw netlist
// source, its format, and every extraction knob that changes the result,
// NUL-separated so no field pair can collide by concatenation. Unlike
// HashNetlist it hashes source text without parsing — it keys admissions,
// not snapshots, and must work on inputs that have not been validated yet.
func HashSubmission(source, format string, knobs ...string) string {
	h := sha256.New()
	io.WriteString(h, format) //nolint:errcheck — sha256 never errors
	h.Write([]byte{0})
	io.WriteString(h, source) //nolint:errcheck
	for _, k := range knobs {
		h.Write([]byte{0})
		io.WriteString(h, k) //nolint:errcheck
	}
	return hex.EncodeToString(h.Sum(nil))
}

// appendExpr appends the packed form of an ANF polynomial to dst: uvarint
// term count, then per monomial a uvarint variable count followed by the
// delta-encoded uvarint variables (ascending). Terms come in the
// polynomial's table order, which is not canonical (see the package doc).
func appendExpr(dst []byte, p anf.Poly) []byte {
	dst = binary.AppendUvarint(dst, uint64(p.Len()))
	p.Terms(func(vars []anf.Var) bool {
		dst = binary.AppendUvarint(dst, uint64(len(vars)))
		prev := uint64(0)
		for _, v := range vars {
			dst = binary.AppendUvarint(dst, uint64(v)-prev)
			prev = uint64(v)
		}
		return true
	})
	return dst
}

// packExpr is appendExpr base64-wrapped for JSON transport (Cone.Expr).
func packExpr(p anf.Poly) string {
	return base64.StdEncoding.EncodeToString(appendExpr(nil, p))
}

// unpackExpr reverses packExpr, validating structure as it reads: any term
// order is accepted, duplicate monomials are not.
func unpackExpr(s string) (anf.Poly, error) {
	raw, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return anf.Poly{}, fmt.Errorf("%w: expression not base64: %v", ErrCheckpoint, err)
	}
	r := bytes.NewReader(raw)
	nTerms, err := binary.ReadUvarint(r)
	if err != nil {
		return anf.Poly{}, fmt.Errorf("%w: truncated expression", ErrCheckpoint)
	}
	if nTerms > uint64(len(raw))+1 {
		// Every term costs at least one byte; a larger claim is corruption.
		return anf.Poly{}, fmt.Errorf("%w: expression claims %d terms in %d bytes", ErrCheckpoint, nTerms, len(raw))
	}
	p := anf.NewPoly()
	vars := make([]anf.Var, 0, 8)
	for t := uint64(0); t < nTerms; t++ {
		nVars, err := binary.ReadUvarint(r)
		if err != nil {
			return anf.Poly{}, fmt.Errorf("%w: truncated expression", ErrCheckpoint)
		}
		if nVars > uint64(len(raw)) {
			return anf.Poly{}, fmt.Errorf("%w: monomial claims %d variables", ErrCheckpoint, nVars)
		}
		vars = vars[:0]
		prev := uint64(0)
		for v := uint64(0); v < nVars; v++ {
			d, err := binary.ReadUvarint(r)
			if err != nil {
				return anf.Poly{}, fmt.Errorf("%w: truncated expression", ErrCheckpoint)
			}
			prev += d
			if prev > 1<<32-1 {
				return anf.Poly{}, fmt.Errorf("%w: variable id %d overflows", ErrCheckpoint, prev)
			}
			vars = append(vars, anf.Var(prev))
		}
		m := anf.NewMono(vars...)
		if p.Contains(m) {
			return anf.Poly{}, fmt.Errorf("%w: duplicate monomial in expression", ErrCheckpoint)
		}
		p.Toggle(m)
	}
	if r.Len() != 0 {
		return anf.Poly{}, fmt.Errorf("%w: %d trailing bytes after expression", ErrCheckpoint, r.Len())
	}
	return p, nil
}

// FromBitResult converts a completed (or failed) rewrite result into its
// durable form.
func FromBitResult(br rewrite.BitResult) Cone {
	c, _ := packCone(br)
	return c
}

// packCone is FromBitResult that also returns the raw packed expression
// (nil unless the cone completed), for the log record.
func packCone(br rewrite.BitResult) (Cone, []byte) {
	c := Cone{
		Bit:           br.Bit,
		Name:          br.Name,
		Status:        string(br.Status),
		Err:           br.Err,
		ConeGates:     br.ConeGates,
		Substitutions: br.Substitutions,
		PeakTerms:     br.PeakTerms,
		FinalTerms:    br.FinalTerms,
		Cancelled:     br.Cancelled,
		RuntimeNS:     int64(br.Runtime),
	}
	var raw []byte
	if br.Status == rewrite.StatusOK {
		raw = appendExpr(nil, br.Expr)
		c.Expr = base64.StdEncoding.EncodeToString(raw)
	}
	return c, raw
}

// BitResult converts a durable cone back into the rewriting engine's form.
// Only Done cones carry an expression.
func (c Cone) BitResult() (rewrite.BitResult, error) {
	br := rewrite.BitResult{
		BitStats: rewrite.BitStats{
			Bit:           c.Bit,
			Name:          c.Name,
			ConeGates:     c.ConeGates,
			Substitutions: c.Substitutions,
			PeakTerms:     c.PeakTerms,
			FinalTerms:    c.FinalTerms,
			Cancelled:     c.Cancelled,
			Runtime:       time.Duration(c.RuntimeNS),
		},
		Status: rewrite.Status(c.Status),
		Err:    c.Err,
	}
	if c.Done() {
		expr, err := unpackExpr(c.Expr)
		if err != nil {
			return rewrite.BitResult{}, err
		}
		if expr.Len() != c.FinalTerms {
			return rewrite.BitResult{}, fmt.Errorf("%w: bit %d expression has %d terms, recorded %d",
				ErrCheckpoint, c.Bit, expr.Len(), c.FinalTerms)
		}
		br.Expr = expr
	}
	return br, nil
}

// Decode reads and validates a snapshot. Every way a file can be wrong —
// short header, bad magic, unsupported version, length or CRC mismatch,
// malformed JSON, structurally invalid payload — yields an error wrapping
// ErrCheckpoint.
func Decode(r io.Reader) (*Snapshot, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCheckpoint, err)
	}
	if string(hdr[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCheckpoint, hdr[:len(magic)])
	}
	if v := binary.BigEndian.Uint32(hdr[8:]); v != Version {
		return nil, fmt.Errorf("%w: unsupported version %d (have %d)", ErrCheckpoint, v, Version)
	}
	length := binary.BigEndian.Uint64(hdr[12:])
	if length > maxPayload {
		return nil, fmt.Errorf("%w: payload claims %d bytes", ErrCheckpoint, length)
	}
	payload, err := io.ReadAll(io.LimitReader(r, int64(length)+1))
	if err != nil {
		return nil, fmt.Errorf("%w: reading payload: %v", ErrCheckpoint, err)
	}
	if uint64(len(payload)) != length {
		return nil, fmt.Errorf("%w: payload is %d bytes, header says %d", ErrCheckpoint, len(payload), length)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.BigEndian.Uint32(hdr[20:]); got != want {
		return nil, fmt.Errorf("%w: CRC mismatch (payload %08x, header %08x)", ErrCheckpoint, got, want)
	}
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	s := &Snapshot{}
	if err := dec.Decode(s); err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrCheckpoint, err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// knownStatuses are the cone statuses a snapshot may carry.
var knownStatuses = map[rewrite.Status]bool{
	"": true, rewrite.StatusOK: true, rewrite.StatusBudget: true,
	rewrite.StatusTimeout: true, rewrite.StatusPanic: true,
	rewrite.StatusCancelled: true, rewrite.StatusError: true,
}

func (s *Snapshot) validate() error {
	if s.M < 1 {
		return fmt.Errorf("%w: m=%d", ErrCheckpoint, s.M)
	}
	if len(s.NetlistHash) != hex.EncodedLen(sha256.Size) {
		return fmt.Errorf("%w: netlist hash has length %d", ErrCheckpoint, len(s.NetlistHash))
	}
	if _, err := hex.DecodeString(s.NetlistHash); err != nil {
		return fmt.Errorf("%w: netlist hash not hex", ErrCheckpoint)
	}
	if len(s.Bits) != s.M {
		return fmt.Errorf("%w: %d bit records for m=%d", ErrCheckpoint, len(s.Bits), s.M)
	}
	for i, c := range s.Bits {
		if c.Bit != i {
			return fmt.Errorf("%w: bit record %d carries index %d", ErrCheckpoint, i, c.Bit)
		}
		if !knownStatuses[rewrite.Status(c.Status)] {
			return fmt.Errorf("%w: bit %d has unknown status %q", ErrCheckpoint, i, c.Status)
		}
		if c.Done() {
			// Decode the expression eagerly so corruption surfaces here, not
			// in the middle of a resumed extraction.
			if _, err := c.BitResult(); err != nil {
				return err
			}
		} else if c.Expr != "" {
			return fmt.Errorf("%w: bit %d carries an expression but status %q", ErrCheckpoint, i, c.Status)
		}
	}
	return nil
}

// replaceFile writes data as dir/name crash-safely: temp file, fsync,
// atomic rename over name, fsync of the directory. A concurrent reader (or
// a post-crash restart) sees either the previous file or this one.
func replaceFile(dir, name string, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, name+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs the directory so the rename itself is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	// Some platforms refuse fsync on directories; the rename is still
	// atomic there, just not yet durable, which is the platform's floor.
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return err
	}
	return nil
}

// Load reads the checkpoint in dir: the cone log when there is one (see
// replayLog), else a legacy snapshot.gfre through Decode. A directory with
// neither is ErrNoCheckpoint; an unreadable or invalid checkpoint is
// ErrCheckpoint.
func Load(dir string) (*Snapshot, error) {
	path := filepath.Join(dir, LogFile)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return loadLegacy(dir)
	}
	if err != nil {
		return nil, err
	}
	s, err := replayLog(data)
	if err != nil {
		return nil, err
	}
	if fi, err := os.Stat(path); err == nil {
		s.SavedUnixNS = fi.ModTime().UnixNano()
	}
	return s, nil
}

// loadLegacy reads a snapshot.gfre written before the cone log existed.
func loadLegacy(dir string) (*Snapshot, error) {
	f, err := os.Open(filepath.Join(dir, SnapshotFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w in %s", ErrNoCheckpoint, dir)
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}
