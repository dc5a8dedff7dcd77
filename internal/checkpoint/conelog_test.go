package checkpoint_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/galoisfield/gfre/internal/anf"
	"github.com/galoisfield/gfre/internal/checkpoint"
	"github.com/galoisfield/gfre/internal/extract"
	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/gf2poly"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/polytab"
)

// loggedRun extracts a planted m=16 Mastrovito multiplier under an
// unthrottled manager and returns the netlist, its P(x), the run's
// per-bit expressions and the cone log the run left.
func loggedRun(t *testing.T) (*netlist.Netlist, gf2poly.Poly, []anf.Poly, []byte) {
	t.Helper()
	p, err := polytab.Default(16)
	if err != nil {
		t.Fatal(err)
	}
	n, err := gen.Mastrovito(16, p)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ext, err := extract.IrreduciblePolynomial(n, extract.Options{Threads: 2, Checkpoint: checkpoint.NewManager(dir, 0)})
	if err != nil {
		t.Fatal(err)
	}
	exprs := make([]anf.Poly, len(ext.Rewrite.Bits))
	for i, br := range ext.Rewrite.Bits {
		exprs[i] = br.Expr
	}
	data, err := os.ReadFile(filepath.Join(dir, checkpoint.LogFile))
	if err != nil {
		t.Fatal(err)
	}
	return n, p, exprs, data
}

// loadBytes loads data as the cone log of a fresh directory.
func loadBytes(t *testing.T, data []byte) (string, *checkpoint.Snapshot, error) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, checkpoint.LogFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := checkpoint.Load(dir)
	return dir, s, err
}

// checkCones fails unless every done cone of s is the run's expression.
func checkCones(t *testing.T, what string, s *checkpoint.Snapshot, exprs []anf.Poly) {
	t.Helper()
	for _, c := range s.Bits {
		if !c.Done() {
			continue
		}
		br, err := c.BitResult()
		if err != nil {
			t.Fatalf("%s: bit %d does not unpack: %v", what, c.Bit, err)
		}
		if !br.Expr.Equal(exprs[c.Bit]) {
			t.Fatalf("%s: bit %d replayed an expression the run never produced", what, c.Bit)
		}
	}
}

// wholeRecords counts the frames after the header that end at or before n.
func wholeRecords(ends []int, n int) int {
	k := 0
	for _, e := range ends[1:] {
		if e <= n {
			k++
		}
	}
	return k
}

// TestConeLogTruncatedAtEveryOffset cuts a real run's log at every byte
// offset, as a crash between any two bytes of an append would. A cut
// inside the header is ErrCheckpoint. Any later cut loads exactly the
// cones whose records are whole, each with the run's expression, and a
// resumed extraction from it recovers the planted P(x), reusing exactly
// the replayed done cones.
func TestConeLogTruncatedAtEveryOffset(t *testing.T) {
	n, p, exprs, data := loggedRun(t)
	ends := checkpoint.LogFrameEnds(data)
	if ends[len(ends)-1] != len(data) || len(ends) != 1+len(exprs)+1 {
		t.Fatalf("log of %d bytes has frames ending at %v; want a header, %d cones and a verdict",
			len(data), ends, len(exprs))
	}
	step := 1
	if testing.Short() {
		step = 13
	}
	for cut := 0; cut <= len(data); cut += step {
		dir, s, err := loadBytes(t, data[:cut])
		if cut < ends[0] {
			if !errors.Is(err, checkpoint.ErrCheckpoint) {
				t.Fatalf("cut at %d inside the header: got %v, want ErrCheckpoint", cut, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		whole := wholeRecords(ends, cut)
		if want := min(whole, len(exprs)); s.DoneCones() != want {
			t.Fatalf("cut at %d: %d done cones, want %d", cut, s.DoneCones(), want)
		}
		if s.Complete != (cut == len(data)) {
			t.Fatalf("cut at %d: complete=%v", cut, s.Complete)
		}
		checkCones(t, "cut", s, exprs)

		ext, err := extract.IrreduciblePolynomial(n, extract.Options{
			Threads: 2, Checkpoint: checkpoint.NewManager(dir, -1), Resume: true,
		})
		if err != nil {
			t.Fatalf("resume from cut at %d: %v", cut, err)
		}
		if !ext.P.Equal(p) {
			t.Fatalf("resume from cut at %d recovered %v, planted %v", cut, ext.P, p)
		}
		if ext.Rewrite.Reused != s.DoneCones() {
			t.Fatalf("resume from cut at %d reused %d cones, log replayed %d", cut, ext.Rewrite.Reused, s.DoneCones())
		}
	}
}

// TestConeLogByteFlips damages a real run's log one byte at a time. A
// damaged header is ErrCheckpoint; damage anywhere after it ends the
// replay at the damaged record, so the earlier cones load with the run's
// expressions and nothing altered is ever returned.
func TestConeLogByteFlips(t *testing.T) {
	_, _, exprs, data := loggedRun(t)
	ends := checkpoint.LogFrameEnds(data)
	damaged := make([]byte, len(data))
	for i := range data {
		copy(damaged, data)
		damaged[i] ^= 0xA5
		_, s, err := loadBytes(t, damaged)
		if i < ends[0] {
			if !errors.Is(err, checkpoint.ErrCheckpoint) {
				t.Fatalf("flip at %d inside the header: got %v, want ErrCheckpoint", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("flip at %d: %v", i, err)
		}
		// The record holding byte i and everything after it are dropped.
		if want := min(wholeRecords(ends, i), len(exprs)); s.DoneCones() != want {
			t.Fatalf("flip at %d: %d done cones, want %d", i, s.DoneCones(), want)
		}
		if s.Complete {
			t.Fatalf("flip at %d: a damaged log replayed as complete", i)
		}
		checkCones(t, "flip", s, exprs)
	}
}

// TestLegacySnapshotUpgradeResume resumes the pre-log crossversion fixture
// (14 of 16 cones done), which finishes the two missing cones into a fresh
// cone log, then cuts that log inside the last cone record and resumes
// again: the second resume must reuse the 15 whole cones and still recover
// P(x).
func TestLegacySnapshotUpgradeResume(t *testing.T) {
	p, err := polytab.Default(16)
	if err != nil {
		t.Fatal(err)
	}
	n, err := gen.Mastrovito(16, p)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "crossversion", checkpoint.SnapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, checkpoint.SnapshotFile), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	resume := func(d string) *extract.Extraction {
		t.Helper()
		ext, err := extract.IrreduciblePolynomial(n, extract.Options{
			Threads: 2, Checkpoint: checkpoint.NewManager(d, 0), Resume: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !ext.P.Equal(p) {
			t.Fatalf("resume recovered %v, planted %v", ext.P, p)
		}
		return ext
	}
	if ext := resume(dir); ext.Rewrite.Reused != 14 {
		t.Fatalf("legacy resume reused %d cones, want 14", ext.Rewrite.Reused)
	}
	if _, err := os.Stat(filepath.Join(dir, checkpoint.SnapshotFile)); !os.IsNotExist(err) {
		t.Fatalf("legacy snapshot still present after the upgrade: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, checkpoint.LogFile))
	if err != nil {
		t.Fatal(err)
	}
	// Header, 14 carried-over cones, the two new ones, the verdict.
	ends := checkpoint.LogFrameEnds(data)
	if len(ends) != 1+16+1 {
		t.Fatalf("upgraded log has %d frames, want 18", len(ends))
	}
	cut := ends[len(ends)-3] + (ends[len(ends)-2]-ends[len(ends)-3])/2
	cutDir, s, err := loadBytes(t, data[:cut])
	if err != nil {
		t.Fatal(err)
	}
	if s.DoneCones() != 15 || s.Complete {
		t.Fatalf("cut log: %d done cones, complete=%v; want 15, false", s.DoneCones(), s.Complete)
	}
	if ext := resume(cutDir); ext.Rewrite.Reused != 15 {
		t.Fatalf("resume from the cut log reused %d cones, want 15", ext.Rewrite.Reused)
	}
}
