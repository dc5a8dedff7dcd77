package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
)

// Encode writes the snapshot to w in the legacy snapshot.gfre format that
// Decode reads. The package no longer writes that format; Encode and Save
// stay to build legacy files for the reader's tests.
func Encode(w io.Writer, s *Snapshot) error {
	payload, err := json.Marshal(s)
	if err != nil {
		return err
	}
	var hdr [headerLen]byte
	copy(hdr[:], magic)
	binary.BigEndian.PutUint32(hdr[8:], Version)
	binary.BigEndian.PutUint64(hdr[12:], uint64(len(payload)))
	binary.BigEndian.PutUint32(hdr[20:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// Save writes s as dir's legacy snapshot.gfre, crash-safely.
func Save(dir string, s *Snapshot) error {
	var buf bytes.Buffer
	if err := Encode(&buf, s); err != nil {
		return err
	}
	return replaceFile(dir, SnapshotFile, buf.Bytes())
}
