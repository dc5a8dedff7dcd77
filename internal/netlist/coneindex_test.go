package netlist

import (
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
)

// checkConeIndex asserts that the cone index agrees with Cone on every
// output: ConeSizes[i] == len(Cone(root_i)), and ConeMembership's row bits
// name exactly the gates of each cone.
func checkConeIndex(t *testing.T, n *Netlist) {
	t.Helper()
	outs := n.Outputs()
	sizes := n.ConeSizes()
	if len(sizes) != len(outs) {
		t.Fatalf("ConeSizes has %d entries for %d outputs", len(sizes), len(outs))
	}
	members := make([][]int, len(outs))
	n.ConeMembership(func(base int, rows []uint64) {
		for id, row := range rows {
			for ; row != 0; row &= row - 1 {
				j := base + bits.TrailingZeros64(row)
				members[j] = append(members[j], id)
			}
		}
	})
	for i, root := range outs {
		cone := n.Cone(root)
		if sizes[i] != len(cone) {
			t.Errorf("output %d (root %d): ConeSizes %d, len(Cone) %d", i, root, sizes[i], len(cone))
		}
		if !reflect.DeepEqual(members[i], cone) {
			t.Errorf("output %d (root %d): membership %v, Cone %v", i, root, members[i], cone)
		}
	}
}

func TestConeIndexZeroGateNetlist(t *testing.T) {
	n := New("empty")
	if sizes := n.ConeSizes(); len(sizes) != 0 {
		t.Fatalf("sizes = %v, want empty", sizes)
	}
	n.ConeMembership(func(int, []uint64) { t.Fatal("visit called on a netlist without outputs") })
}

func TestConeIndexDegenerateShapes(t *testing.T) {
	n := New("degenerate")
	a, _ := n.AddInput("a")
	b, _ := n.AddInput("b")
	c, _ := n.AddInput("c")
	g0, _ := n.AddGate(And, a, b)
	// A disconnected island: c feeds gates no output reads.
	island, _ := n.AddGate(Not, c)
	n.AddGate(Xor, island, c) //nolint:errcheck
	g1, _ := n.AddGate(Xor, g0, a)
	n.MarkOutput("direct", b) //nolint:errcheck — output driven by an input
	n.MarkOutput("z0", g1)    //nolint:errcheck
	n.MarkOutput("z1", g1)    //nolint:errcheck — two outputs sharing one root
	n.MarkOutput("z2", g0)    //nolint:errcheck
	checkConeIndex(t, n)
	if got, want := n.ConeSizes(), []int{1, 4, 4, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("sizes %v, want %v", got, want)
	}
}

// TestConeIndexManyBlocks covers more than one 64-output block and cones
// deep enough to exercise the bit-sliced counter's carries.
func TestConeIndexManyBlocks(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	n := New("random")
	for i := 0; i < 40; i++ {
		n.AddInput("") //nolint:errcheck
	}
	for i := 0; i < 3000; i++ {
		top := n.NumGates()
		n.AddGate(Xor, r.Intn(top), r.Intn(top)) //nolint:errcheck
	}
	for i := 0; i < 150; i++ {
		n.MarkOutput("", n.NumGates()-1-r.Intn(2000)) //nolint:errcheck
	}
	checkConeIndex(t, n)
}

// TestConeSizesInvalidatedByMutation: the memoized sizes must follow every
// mutator, and callers must not be able to corrupt the memo.
func TestConeSizesInvalidatedByMutation(t *testing.T) {
	n := New("grow")
	a, _ := n.AddInput("a")
	n.MarkOutput("z0", a) //nolint:errcheck
	sizes := n.ConeSizes()
	sizes[0] = 99
	if got := n.ConeSizes(); got[0] != 1 {
		t.Fatalf("memo corrupted through the returned slice: %v", got)
	}
	b, _ := n.AddInput("b")
	g, _ := n.AddGate(And, a, b)
	n.MarkOutput("z1", g) //nolint:errcheck
	if got, want := n.ConeSizes(), []int{1, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after MarkOutput: sizes %v, want %v", got, want)
	}
	checkConeIndex(t, n)
}

// TestWalkConeExpandsOnlyChosenGates: gates reachable only through
// unexpanded visits are never visited, shared fanins still are, and the
// order is descending.
func TestWalkConeExpandsOnlyChosenGates(t *testing.T) {
	n := New("walk")
	a, _ := n.AddInput("a")
	b, _ := n.AddInput("b")
	c, _ := n.AddInput("c")
	left, _ := n.AddGate(And, a, b)  // expanded
	right, _ := n.AddGate(And, b, c) // not expanded: c is reachable only through it
	root, _ := n.AddGate(Xor, left, right)
	var visited []int
	err := n.WalkCone(root, func(id int) (bool, error) {
		visited = append(visited, id)
		return id != right, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{root, right, left, b, a}; !reflect.DeepEqual(visited, want) {
		t.Fatalf("visited %v, want %v", visited, want)
	}
}
