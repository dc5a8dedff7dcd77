package checkpoint

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// The cone log. A file is the magic and a big-endian uint32 version, then
// frames: a big-endian uint32 payload length, a big-endian uint32 CRC-32
// (IEEE) over the length bytes and the payload, then the payload. The
// first frame is the header; every later frame is one record:
//
//	header:  hash, name (uvarint-length strings), uvarint m, m output names
//	cone:    kindCone, uvarint bit, status, err, six zigzag varint counters
//	         (cone gates, substitutions, peak, final, cancelled, runtime ns),
//	         then the raw packed expression (appendExpr) to the frame's end
//	retries: kindRetries, zigzag varint cumulative retry count
//	final:   kindFinal, a 0/1 complete byte, P(x) string
//
// Later records for the same bit, or later retries and final records,
// supersede earlier ones. The CRC covers the length so a zero-filled tail,
// which a crash can leave after a file grew, never reads as a frame.
const (
	// LogFile is the cone log's file name within its directory.
	LogFile = "cones.gfrelog"

	logMagic    = "GFRECLOG"
	logVersion  = 1
	logPrefix   = len(logMagic) + 4
	frameHeader = 8 // payload length + CRC
)

// Record kinds: the first payload byte of every frame after the header.
// Kinds and the complete flag are one-byte uvarints.
const (
	kindCone byte = 1 + iota
	kindRetries
	kindFinal
)

var zeroFrameHeader [frameHeader]byte

// sealFrame fills in the header of the frame opened at offset at, whose
// payload runs to the end of dst.
func sealFrame(dst []byte, at int) []byte {
	binary.BigEndian.PutUint32(dst[at:], uint32(len(dst)-at-frameHeader))
	crc := crc32.Update(crc32.ChecksumIEEE(dst[at:at+4]), crc32.IEEETable, dst[at+frameHeader:])
	binary.BigEndian.PutUint32(dst[at+4:], crc)
	return dst
}

// openRecord appends a frame header for sealFrame to fill and the record's
// kind, and returns the frame's offset.
func openRecord(dst []byte, kind byte) ([]byte, int) {
	return append(append(dst, zeroFrameHeader[:]...), kind), len(dst)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendLogHeader appends the file prefix and the header frame for s.
func appendLogHeader(dst []byte, s *Snapshot) []byte {
	dst = append(dst, logMagic...)
	dst = binary.BigEndian.AppendUint32(dst, logVersion)
	at := len(dst)
	dst = append(dst, zeroFrameHeader[:]...)
	dst = appendString(dst, s.NetlistHash)
	dst = appendString(dst, s.NetlistName)
	dst = binary.AppendUvarint(dst, uint64(len(s.Bits)))
	for _, c := range s.Bits {
		dst = appendString(dst, c.Name)
	}
	return sealFrame(dst, at)
}

// appendConeRecord appends the record of cone c, whose raw packed
// expression is expr (nil unless c is done).
func appendConeRecord(dst []byte, c Cone, expr []byte) []byte {
	dst, at := openRecord(dst, kindCone)
	dst = binary.AppendUvarint(dst, uint64(c.Bit))
	dst = appendString(dst, c.Status)
	dst = appendString(dst, c.Err)
	for _, v := range [...]int64{int64(c.ConeGates), int64(c.Substitutions), int64(c.PeakTerms),
		int64(c.FinalTerms), int64(c.Cancelled), c.RuntimeNS} {
		dst = binary.AppendVarint(dst, v)
	}
	dst = append(dst, expr...)
	return sealFrame(dst, at)
}

func appendRetriesRecord(dst []byte, retries int) []byte {
	dst, at := openRecord(dst, kindRetries)
	dst = binary.AppendVarint(dst, int64(retries))
	return sealFrame(dst, at)
}

func appendFinalRecord(dst []byte, complete bool, p string) []byte {
	dst, at := openRecord(dst, kindFinal)
	if complete {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = appendString(dst, p)
	return sealFrame(dst, at)
}

// encodeLog renders s as a complete log: its header, then one record per
// attempted cone, its retry count and its verdict. replayLog(encodeLog(s))
// gives s back.
func encodeLog(s *Snapshot) ([]byte, error) {
	dst := appendLogHeader(nil, s)
	for _, c := range s.Bits {
		if c.Status == "" {
			continue
		}
		expr, err := base64.StdEncoding.DecodeString(c.Expr)
		if err != nil {
			return nil, fmt.Errorf("%w: bit %d expression not base64: %v", ErrCheckpoint, c.Bit, err)
		}
		dst = appendConeRecord(dst, c, expr)
	}
	if s.Retries != 0 {
		dst = appendRetriesRecord(dst, s.Retries)
	}
	if s.Complete || s.P != "" {
		dst = appendFinalRecord(dst, s.Complete, s.P)
	}
	return dst, nil
}

// writeLog replaces dir's cone log with encodeLog(s), crash-safely (see
// replaceFile), and removes a legacy snapshot the new log supersedes.
func writeLog(dir string, s *Snapshot) error {
	data, err := encodeLog(s)
	if err != nil {
		return err
	}
	if err := replaceFile(dir, LogFile, data); err != nil {
		return err
	}
	// Load prefers the log anyway; this only keeps the directory to one
	// format.
	if err := os.Remove(filepath.Join(dir, SnapshotFile)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// appendFile appends data to the existing file at path and fsyncs it. The
// file must exist: a log without its header is never started by an append.
func appendFile(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// nextFrame splits the first frame off b. ok is false when b does not
// start with a whole frame whose CRC matches — the torn tail a crash
// leaves, or damage.
func nextFrame(b []byte) (payload, rest []byte, ok bool) {
	if len(b) < frameHeader {
		return nil, nil, false
	}
	n := binary.BigEndian.Uint32(b)
	if uint64(n) > uint64(len(b)-frameHeader) {
		return nil, nil, false
	}
	end := frameHeader + int(n)
	payload = b[frameHeader:end]
	if crc32.Update(crc32.ChecksumIEEE(b[:4]), crc32.IEEETable, payload) != binary.BigEndian.Uint32(b[4:]) {
		return nil, nil, false
	}
	return payload, b[end:], true
}

// replayLog rebuilds the snapshot a cone log records. It stops at the
// first frame that fails its length or CRC check: everything before it is
// what the writer had made durable. A damaged prefix or header, a frame
// that passes its CRC but does not parse, or a snapshot that fails
// validate is ErrCheckpoint.
func replayLog(data []byte) (*Snapshot, error) {
	if len(data) < logPrefix || string(data[:len(logMagic)]) != logMagic {
		return nil, fmt.Errorf("%w: not a cone log", ErrCheckpoint)
	}
	if v := binary.BigEndian.Uint32(data[len(logMagic):]); v != logVersion {
		return nil, fmt.Errorf("%w: unsupported cone log version %d (have %d)", ErrCheckpoint, v, logVersion)
	}
	hdr, rest, ok := nextFrame(data[logPrefix:])
	if !ok {
		return nil, fmt.Errorf("%w: damaged cone log header", ErrCheckpoint)
	}
	s, err := parseLogHeader(hdr)
	if err != nil {
		return nil, err
	}
	for {
		payload, next, ok := nextFrame(rest)
		if !ok {
			break
		}
		if err := s.apply(payload); err != nil {
			return nil, err
		}
		rest = next
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// fields reads a frame payload; any overrun sets bad and yields zeros.
type fields struct {
	b   []byte
	bad bool
}

func (f *fields) uvarint() uint64 {
	v, n := binary.Uvarint(f.b)
	if f.bad || n <= 0 {
		f.bad = true
		return 0
	}
	f.b = f.b[n:]
	return v
}

func (f *fields) varint() int64 {
	v, n := binary.Varint(f.b)
	if f.bad || n <= 0 {
		f.bad = true
		return 0
	}
	f.b = f.b[n:]
	return v
}

func (f *fields) str() string {
	n := f.uvarint()
	if f.bad || n > uint64(len(f.b)) {
		f.bad = true
		return ""
	}
	s := string(f.b[:n])
	f.b = f.b[n:]
	return s
}

func parseLogHeader(payload []byte) (*Snapshot, error) {
	f := fields{b: payload}
	s := &Snapshot{NetlistHash: f.str(), NetlistName: f.str()}
	m := f.uvarint()
	// Every name costs at least its length byte, which bounds m before
	// anything is allocated for it.
	if f.bad || m > uint64(len(f.b)) {
		return nil, fmt.Errorf("%w: malformed cone log header", ErrCheckpoint)
	}
	s.M = int(m)
	s.Bits = make([]Cone, m)
	for i := range s.Bits {
		s.Bits[i] = Cone{Bit: i, Name: f.str()}
	}
	if f.bad || len(f.b) != 0 {
		return nil, fmt.Errorf("%w: malformed cone log header", ErrCheckpoint)
	}
	return s, nil
}

// apply folds one record into s.
func (s *Snapshot) apply(payload []byte) error {
	f := fields{b: payload}
	switch kind := f.uvarint(); kind {
	case uint64(kindCone):
		bit := f.uvarint()
		c := Cone{Status: f.str(), Err: f.str()}
		for _, v := range [...]*int{&c.ConeGates, &c.Substitutions, &c.PeakTerms, &c.FinalTerms, &c.Cancelled} {
			*v = int(f.varint())
		}
		c.RuntimeNS = f.varint()
		if f.bad || bit >= uint64(len(s.Bits)) {
			return fmt.Errorf("%w: malformed cone record (bit %d of %d)", ErrCheckpoint, bit, len(s.Bits))
		}
		c.Bit, c.Name = int(bit), s.Bits[bit].Name
		if len(f.b) > 0 {
			c.Expr = base64.StdEncoding.EncodeToString(f.b)
		}
		s.Bits[bit] = c
		return nil
	case uint64(kindRetries):
		s.Retries = int(f.varint())
	case uint64(kindFinal):
		complete := f.uvarint()
		s.P = f.str()
		if complete > 1 {
			f.bad = true
		}
		s.Complete = complete == 1
	default:
		return fmt.Errorf("%w: unknown cone log record kind %d", ErrCheckpoint, kind)
	}
	if f.bad || len(f.b) != 0 {
		return fmt.Errorf("%w: malformed cone log record", ErrCheckpoint)
	}
	return nil
}
