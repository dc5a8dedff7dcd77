package netlist_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"github.com/galoisfield/gfre/internal/netlist"
)

// nameOracle is the netlist name table as a Go map: the reference the flat
// name index must agree with, Lookup for Lookup and NameOf for NameOf.
type nameOracle struct {
	gates       int
	names       []string
	byName      map[string]int
	shadowed    map[int]bool
	shadowLater map[int]bool
}

func oracleSynthesizedID(name string) (int, bool) {
	if len(name) < 2 || name[0] != 'n' || name[1] < '0' || name[1] > '9' || name[1] == '0' && len(name) > 2 {
		return 0, false
	}
	id, err := strconv.Atoi(name[1:])
	return id, err == nil
}

func (o *nameOracle) shadow(name string, id int) {
	k, ok := oracleSynthesizedID(name)
	if !ok || k == id {
		return
	}
	if k >= o.gates {
		o.shadowLater[k] = true
	} else {
		o.shadowed[k] = true
	}
}

func (o *nameOracle) appendGate() int {
	id := o.gates
	o.gates++
	o.names = append(o.names, "")
	if o.shadowLater[id] {
		delete(o.shadowLater, id)
		o.shadowed[id] = true
	}
	return id
}

func (o *nameOracle) setName(id int, name string) bool {
	if name == "" {
		return true
	}
	if old, ok := o.byName[name]; ok && old != id {
		return false
	}
	o.byName[name] = id
	o.names[id] = name
	o.shadow(name, id)
	return true
}

func (o *nameOracle) nameOf(id int) string {
	if s := o.names[id]; s != "" {
		return s
	}
	s := "n" + strconv.Itoa(id)
	if !o.shadowed[id] {
		return s
	}
	for j := 1; ; j++ {
		if _, taken := o.byName[s+"_"+strconv.Itoa(j)]; !taken {
			return s + "_" + strconv.Itoa(j)
		}
	}
}

// TestNameIndexMatchesMapOracle drives netlists through random AddInput,
// AddGate, SetSignalName and MarkOutput sequences next to the map oracle
// and compares every Lookup and NameOf after every step. The name pool
// makes duplicates, gates named twice or more, and synthesized "n<id>"
// names (before and after their gate exists) common, and is large enough
// that the index grows several times mid-sequence.
func TestNameIndexMatchesMapOracle(t *testing.T) {
	pool := []string{"", "a", "b", "z", "n0", "n1", "n2", "n3", "n7", "n12", "n40",
		"n3_1", "n3_2", "n7_1", "n01", "n1x", "n99999999999999999999", "x[0]", "a.b"}
	for i := range 60 {
		pool = append(pool, fmt.Sprintf("s%d", i), fmt.Sprintf("n%d", 13+i))
	}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := netlist.New("oracle")
		o := &nameOracle{byName: map[string]int{}, shadowed: map[int]bool{}, shadowLater: map[int]bool{}}
		for step := range 150 {
			name := pool[rng.Intn(len(pool))]
			op := rng.Intn(4)
			switch {
			case op == 0 || o.gates == 0:
				_, err := n.AddInput(name)
				id := o.appendGate()
				if ok := o.setName(id, name); !ok {
					o.gates--
					o.names = o.names[:id]
				}
				if (err == nil) != (o.gates > id) {
					t.Fatalf("seed %d step %d: AddInput(%q) err = %v, oracle disagrees", seed, step, name, err)
				}
			case op == 1:
				f0, f1 := rng.Intn(o.gates), rng.Intn(o.gates)
				if _, err := n.AddGate(netlist.And, f0, f1); err != nil {
					t.Fatal(err)
				}
				o.appendGate()
			case op == 2:
				id := rng.Intn(o.gates + 1)
				err := n.SetSignalName(id, name)
				ok := id < o.gates && o.setName(id, name)
				if (err == nil) != ok {
					t.Fatalf("seed %d step %d: SetSignalName(%d, %q) err = %v, oracle ok = %v", seed, step, id, name, err, ok)
				}
			default:
				id := rng.Intn(o.gates)
				if err := n.MarkOutput(name, id); err != nil {
					t.Fatal(err)
				}
				o.shadow(name, id)
			}
			for _, s := range pool {
				id, ok := n.Lookup(s)
				wid, wok := o.byName[s]
				if ok != wok || id != wid {
					t.Fatalf("seed %d step %d: Lookup(%q) = %d, %v; oracle %d, %v", seed, step, s, id, ok, wid, wok)
				}
			}
			for id := range o.gates {
				if got, want := n.NameOf(id), o.nameOf(id); got != want {
					t.Fatalf("seed %d step %d: NameOf(%d) = %q, oracle %q", seed, step, id, got, want)
				}
			}
		}
	}
}

// TestNameIndexKeepsEveryNameOfARenamedGate checks that a gate named twice
// answers to both names, that a rename back to an earlier name is allowed,
// and that neither name can then be given to another gate.
func TestNameIndexKeepsEveryNameOfARenamedGate(t *testing.T) {
	n := netlist.New("rename")
	a, _ := n.AddInput("a")
	b, _ := n.AddInput("b")
	g, _ := n.AddGate(netlist.Xor, a, b)
	for _, name := range []string{"p", "q", "p", "r"} {
		if err := n.SetSignalName(g, name); err != nil {
			t.Fatalf("SetSignalName(g, %q): %v", name, err)
		}
		if got := n.NameOf(g); got != name {
			t.Errorf("after naming %q: NameOf(g) = %q", name, got)
		}
	}
	for _, name := range []string{"p", "q", "r"} {
		if id, ok := n.Lookup(name); !ok || id != g {
			t.Errorf("Lookup(%q) = %d, %v; want %d", name, id, ok, g)
		}
		if err := n.SetSignalName(b, name); err == nil {
			t.Errorf("SetSignalName(b, %q) accepted a name gate %d carries", name, g)
		}
	}
	if id, ok := n.Lookup("b"); !ok || id != b {
		t.Errorf("Lookup(b) = %d, %v after refused renames; want %d", id, ok, b)
	}
}

// TestSelfNameRejectsDuplicatesBothWays checks the duplicate rule for self
// names, a gate's own "n<id>", which take no slot in the name index: "n5"
// cannot go to gate 7 while gate 5 carries it as its self name, nor to
// gate 5 while gate 7 carries it.
func TestSelfNameRejectsDuplicatesBothWays(t *testing.T) {
	build := func() *netlist.Netlist {
		n := netlist.New("dup")
		a, _ := n.AddInput("a")
		b, _ := n.AddInput("b")
		for range 6 {
			if _, err := n.AddGate(netlist.Xor, a, b); err != nil {
				t.Fatal(err)
			}
		}
		return n
	}
	n := build()
	if err := n.SetSignalName(5, "n5"); err != nil {
		t.Fatal(err)
	}
	if err := n.SetSignalName(7, "n5"); err == nil {
		t.Error("gate 7 took n5, gate 5's self name")
	}
	if id, ok := n.Lookup("n5"); !ok || id != 5 {
		t.Errorf("Lookup(n5) = %d, %v; want 5", id, ok)
	}
	if got := n.NameOf(7); got != "n7" {
		t.Errorf("NameOf(7) = %q after the refused rename, want n7", got)
	}

	n = build()
	if err := n.SetSignalName(7, "n5"); err != nil {
		t.Fatal(err)
	}
	if err := n.SetSignalName(5, "n5"); err == nil {
		t.Error("gate 5 took n5, the name gate 7 carries")
	}
	if id, ok := n.Lookup("n5"); !ok || id != 7 {
		t.Errorf("Lookup(n5) = %d, %v; want 7", id, ok)
	}
	if got := n.NameOf(5); got != "n5_1" {
		t.Errorf("NameOf(5) = %q, want n5_1 beside gate 7's n5", got)
	}
}

// TestRenamedSelfNamedGateKeepsItsName checks that a self name a gate is
// renamed away from keeps resolving to the gate, as any earlier name does,
// and stays refused to other gates.
func TestRenamedSelfNamedGateKeepsItsName(t *testing.T) {
	n := netlist.New("rename-self")
	a, _ := n.AddInput("a")
	b, _ := n.AddInput("b")
	g, _ := n.AddGate(netlist.Xor, a, b)
	h, _ := n.AddGate(netlist.And, a, b)
	for _, name := range []string{"n2", "sum", "n2", "p"} {
		if err := n.SetSignalName(g, name); err != nil {
			t.Fatalf("SetSignalName(g, %q): %v", name, err)
		}
	}
	for _, name := range []string{"n2", "sum", "p"} {
		if id, ok := n.Lookup(name); !ok || id != g {
			t.Errorf("Lookup(%q) = %d, %v; want %d", name, id, ok, g)
		}
		if err := n.SetSignalName(h, name); err == nil {
			t.Errorf("SetSignalName(h, %q) accepted a name gate %d carries", name, g)
		}
	}
	if got := n.NameOf(g); got != "p" {
		t.Errorf("NameOf(g) = %q, want p", got)
	}
}

// TestRoundTripWithShiftedSelfNames writes a netlist whose complex cell
// and constant expand, on reading back, into more gates than they were:
// the names "n3" to "n6" that WriteEQN gives their gates then land on
// other IDs, so they are not self names of the netlist read back and go
// through the name index. Reading, writing and reading again must keep
// every name and the function.
func TestRoundTripWithShiftedSelfNames(t *testing.T) {
	n := netlist.New("shift")
	a, _ := n.AddInput("a")
	b, _ := n.AddInput("b")
	c, _ := n.AddInput("c")
	aoi, _ := n.AddGate(netlist.Aoi21, a, b, c) // n3 = !(a * b + c)
	one, _ := n.AddGate(netlist.Const1)         // n4 = 1
	x, _ := n.AddGate(netlist.Xor, aoi, a)      // n5 = n3 ^ a
	y, _ := n.AddGate(netlist.And, x, one)      // n6 = n5 * n4
	if err := n.MarkOutput("z", y); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.WriteEQN(&buf); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	back, err := netlist.ReadEQN(strings.NewReader(first), "shift")
	if err != nil {
		t.Fatalf("read back: %v\n%s", err, first)
	}
	for _, name := range []string{"n3", "n4", "n5", "n6"} {
		id, ok := back.Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) failed after the round trip\n%s", name, first)
		}
		if k, _ := strconv.Atoi(name[1:]); id == k {
			t.Errorf("test premise: %s is gate %d again, a self name", name, id)
		}
		if got := back.NameOf(id); got != name {
			t.Errorf("NameOf(%d) = %q, want %q", id, got, name)
		}
	}
	buf.Reset()
	if err := back.WriteEQN(&buf); err != nil {
		t.Fatal(err)
	}
	again, err := netlist.ReadEQN(&buf, "shift")
	if err != nil {
		t.Fatalf("second read back: %v\n%s", err, buf.String())
	}
	words := []uint64{0xf0f0, 0xcccc, 0xaaaa}
	for _, m := range []*netlist.Netlist{back, again} {
		v1, _ := n.Simulate(words)
		v2, err := m.Simulate(words)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := m.OutputWords(v2)[0]&0xffff, n.OutputWords(v1)[0]&0xffff; got != want {
			t.Errorf("round trip changed z: %#x, want %#x", got, want)
		}
	}
}
