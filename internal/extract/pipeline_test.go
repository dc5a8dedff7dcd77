package extract

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/galoisfield/gfre/internal/checkpoint"
	"github.com/galoisfield/gfre/internal/netlist"
	"github.com/galoisfield/gfre/internal/obs"
	"github.com/galoisfield/gfre/internal/polytab"
)

// readTestdata parses one of the committed netlists under testdata/.
func readTestdata(t *testing.T, name string) *netlist.Netlist {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n, err := netlist.ReadEQN(f, name)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestInferredRunCheckpointsAndTracesOneRoot: port inference is a stage of
// the one pipeline, so an inferred run writes and resumes checkpoints like
// any other and its phases nest under a single "extraction" root span.
func TestInferredRunCheckpointsAndTracesOneRoot(t *testing.T) {
	n := readTestdata(t, "scrambled16.eqn")
	p, err := polytab.Default(16)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	rec := obs.NewRecorder()
	ext, _, err := IrreduciblePolynomialInferred(n, Options{
		Checkpoint: checkpoint.NewManager(dir, 0), Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ext.P.Equal(p) || !ext.Verified {
		t.Fatalf("recovered %v (verified %v), want %v verified", ext.P, ext.Verified, p)
	}
	snap, err := checkpoint.Load(dir)
	if err != nil {
		t.Fatalf("checkpointed inferred run left no snapshot: %v", err)
	}
	if !snap.Complete || snap.P != p.String() {
		t.Fatalf("snapshot complete=%v p=%q, want complete with %v", snap.Complete, snap.P, p)
	}

	roots := rec.TraceTree()
	if len(roots) != 1 || roots[0].Name != "extraction" {
		names := make([]string, len(roots))
		for i, r := range roots {
			names[i] = r.Name
		}
		t.Fatalf("trace roots %v, want exactly one named extraction", names)
	}

	ext2, _, err := IrreduciblePolynomialInferred(n, Options{
		Checkpoint: checkpoint.NewManager(dir, 0), Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if outs := len(n.Outputs()); ext2.Rewrite.Reused != outs {
		t.Fatalf("resumed inferred run reused %d cones, want %d", ext2.Rewrite.Reused, outs)
	}
	if !ext2.P.Equal(p) {
		t.Fatalf("resumed run recovered %v, want %v", ext2.P, p)
	}
}

// TestMismatchLeavesSnapshotIncomplete: a design that fails the golden
// model must not leave a snapshot claiming a complete, recovered P(x).
func TestMismatchLeavesSnapshotIncomplete(t *testing.T) {
	n := readTestdata(t, "trojan8.eqn")
	dir := t.TempDir()
	_, err := IrreduciblePolynomial(n, Options{Checkpoint: checkpoint.NewManager(dir, 0)})
	if !errors.Is(err, ErrMismatch) {
		t.Fatalf("err = %v, want ErrMismatch", err)
	}
	snap, err := checkpoint.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Complete {
		t.Fatalf("mismatching run left a complete snapshot with P = %q", snap.P)
	}
}
