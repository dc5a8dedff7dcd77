package netlint_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"github.com/galoisfield/gfre/internal/gen"
	"github.com/galoisfield/gfre/internal/gf2poly"
	"github.com/galoisfield/gfre/internal/netlint"
	"github.com/galoisfield/gfre/internal/netlist"
)

// TestAnalyzeSourceAllocation guards the cost of linting a file: a file
// the reader accepts is read once and analyzed, with no source scan, so
// AnalyzeSource allocates about what netlist.Read and netlint.Analyze do
// on the same bytes. A linter that builds a name graph of every file first
// allocates about 7 times as much on a clean m=64 Mastrovito design. Each
// measurement lints under a name of its own, so the semantic sweep's cache
// serves neither side; the minimum of three rounds is compared.
func TestAnalyzeSourceAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation figures are not meaningful under the race detector")
	}
	n, err := gen.Mastrovito(64, gf2poly.MustParse("x^64+x^4+x^3+x+1"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.WriteEQN(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	source, direct := uint64(1<<63), uint64(1<<63)
	for round := 0; round < 3; round++ {
		source = min(source, allocated(func() {
			if err := netlint.AnalyzeSource(data, fmt.Sprintf("src%d.eqn", round), "eqn", netlint.Options{}).Err(); err != nil {
				t.Fatal(err)
			}
		}))
		direct = min(direct, allocated(func() {
			n, err := netlist.Read(bytes.NewReader(data), "eqn", fmt.Sprintf("direct%d", round))
			if err != nil {
				t.Fatal(err)
			}
			if err := netlint.Analyze(n, netlint.Options{}).Err(); err != nil {
				t.Fatal(err)
			}
		}))
	}
	ratio := float64(source) / float64(direct)
	t.Logf("AnalyzeSource allocated %.1f MB, Read+Analyze %.1f MB (%.2fx)", float64(source)/1e6, float64(direct)/1e6, ratio)
	if ratio > 1.5 {
		t.Errorf("AnalyzeSource allocated %.2fx what Read+Analyze do on the same bytes, want at most 1.5x", ratio)
	}
}
