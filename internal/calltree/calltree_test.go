package calltree

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// buildSample constructs the Figure-2 style tree:
//
//	MAIN ─ FOO, BAR; FOO ─ BAZ
func buildSample(t *testing.T) *Tree {
	t.Helper()
	tr := New()
	tr.MustAddPath("MAIN", "FOO", "BAZ")
	tr.MustAddPath("MAIN", "BAR")
	return tr
}

func TestAddPathAndLookup(t *testing.T) {
	tr := buildSample(t)
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	n := tr.NodeByPath([]string{"MAIN", "FOO", "BAZ"})
	if n == nil || n.Name() != "BAZ" || n.Depth() != 2 {
		t.Fatalf("lookup failed: %+v", n)
	}
	if n.Parent().Name() != "FOO" {
		t.Error("parent wrong")
	}
	if got := n.PathString(); got != "MAIN/FOO/BAZ" {
		t.Errorf("PathString = %q", got)
	}
	if tr.NodeByPath([]string{"MAIN", "GHOST"}) != nil {
		t.Error("lookup of absent path should be nil")
	}
	// Re-adding an existing path is idempotent.
	tr.MustAddPath("MAIN", "FOO")
	if tr.Len() != 4 {
		t.Error("re-adding existing path changed node count")
	}
	if _, err := tr.AddPath(nil); err == nil {
		t.Error("empty path must be rejected")
	}
}

func TestTraversalOrder(t *testing.T) {
	tr := buildSample(t)
	var names []string
	for _, n := range tr.Nodes() {
		names = append(names, n.Name())
	}
	want := []string{"MAIN", "FOO", "BAZ", "BAR"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("pre-order = %v, want %v", names, want)
	}
	leaves := tr.Leaves()
	if len(leaves) != 2 || leaves[0].Name() != "BAZ" || leaves[1].Name() != "BAR" {
		t.Errorf("leaves = %v", leaves)
	}
}

func TestPathIdentityDistinguishesHomonyms(t *testing.T) {
	// Two nodes named "Mult" under different parents are distinct.
	tr := New()
	a := tr.MustAddPath("main", "solverA", "Mult")
	b := tr.MustAddPath("main", "solverB", "Mult")
	if a == b || a.Key() == b.Key() {
		t.Error("same-name nodes under different parents must be distinct")
	}
	if got := len(tr.NodesByName("Mult")); got != 2 {
		t.Errorf("NodesByName = %d, want 2", got)
	}
}

func TestEncodePathInjective(t *testing.T) {
	if EncodePath([]string{"a/b"}) == EncodePath([]string{"a", "b"}) {
		t.Error("separator collision")
	}
	if EncodePath([]string{"ab", "c"}) == EncodePath([]string{"a", "bc"}) {
		t.Error("boundary collision")
	}
}

func TestUnionAndIntersect(t *testing.T) {
	a := New()
	a.MustAddPath("main", "foo")
	a.MustAddPath("main", "bar")
	b := New()
	b.MustAddPath("main", "bar")
	b.MustAddPath("main", "qux")

	u := Union(a, b)
	if u.Len() != 4 { // main, foo, bar, qux
		t.Errorf("union size = %d, want 4", u.Len())
	}
	i := Intersect(a, b)
	if i.Len() != 2 { // main, bar
		t.Errorf("intersect size = %d, want 2", i.Len())
	}
	if i.NodeByPath([]string{"main", "bar"}) == nil {
		t.Error("intersection missing shared node")
	}
	if i.NodeByPath([]string{"main", "foo"}) != nil {
		t.Error("intersection kept unshared node")
	}
}

func TestUnionAlgebraProperties(t *testing.T) {
	mk := func(paths [][]string) *Tree {
		tr := New()
		for _, p := range paths {
			if len(p) == 0 {
				continue
			}
			if _, err := tr.AddPath(p); err != nil {
				t.Fatal(err)
			}
		}
		return tr
	}
	a := mk([][]string{{"m", "x"}, {"m", "y", "z"}})
	b := mk([][]string{{"m", "y"}, {"m", "w"}})

	// Idempotence: A ∪ A == A.
	if !Union(a, a).Equal(a) {
		t.Error("union not idempotent")
	}
	// Commutativity on node sets.
	if !Union(a, b).Equal(Union(b, a)) {
		t.Error("union not commutative on node sets")
	}
	// Intersection is contained in both.
	i := Intersect(a, b)
	for _, n := range i.Nodes() {
		if !a.Contains(n.Key()) || !b.Contains(n.Key()) {
			t.Error("intersection contains foreign node")
		}
	}
	// A ∩ A == A, A ∩ (A ∪ B) == A.
	if !Intersect(a, a).Equal(a) {
		t.Error("intersection not idempotent")
	}
	if !Intersect(a, Union(a, b)).Equal(a) {
		t.Error("absorption law violated")
	}
}

func TestTreeSetAlgebraProperty(t *testing.T) {
	// Random path sets: |A ∪ B| + |A ∩ B| == |A| + |B| (with implicit
	// ancestor closure making both sides count closed sets).
	type pathSpec []uint8
	build := func(specs []pathSpec) *Tree {
		tr := New()
		for _, spec := range specs {
			if len(spec) == 0 {
				continue
			}
			path := make([]string, 0, len(spec)%4+1)
			for i := 0; i < len(spec)%4+1 && i < len(spec); i++ {
				path = append(path, string(rune('a'+spec[i]%5)))
			}
			if _, err := tr.AddPath(path); err != nil {
				t.Fatal(err)
			}
		}
		return tr
	}
	f := func(sa, sb []pathSpec) bool {
		a, b := build(sa), build(sb)
		u, i := Union(a, b), Intersect(a, b)
		return u.Len()+i.Len() == a.Len()+b.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// rebuildUnion is the reference the set operations' order is pinned
// against: every node of every input, in pre-order, re-added through
// AddPath(n.Path()).
func rebuildUnion(trees ...*Tree) *Tree {
	out := New()
	for _, t := range trees {
		for _, n := range t.Nodes() {
			if _, err := out.AddPath(n.Path()); err != nil {
				panic(err)
			}
		}
	}
	return out
}

// rebuildIntersect re-adds, in the first tree's pre-order, every node
// that all inputs contain.
func rebuildIntersect(trees ...*Tree) *Tree {
	out := New()
	for _, n := range trees[0].Nodes() {
		inAll := true
		for _, t := range trees[1:] {
			inAll = inAll && t.Contains(n.Key())
		}
		if inAll {
			if _, err := out.AddPath(n.Path()); err != nil {
				panic(err)
			}
		}
	}
	return out
}

// randomTree adds a few random paths over a small alphabet, so trees
// share roots and prefixes often. Names that look like key syntax check
// that identity stays injective.
func randomTree(rng *rand.Rand) *Tree {
	names := []string{"a", "b", "c", "1:a/", "a/b", ""}
	tr := New()
	for i := rng.Intn(10); i > 0; i-- {
		path := make([]string, 1+rng.Intn(4))
		for d := range path {
			path[d] = names[rng.Intn(len(names))]
		}
		tr.MustAddPath(path...)
	}
	return tr
}

// assertSameOrder checks two trees have the same pre-order paths, and
// that every node's key and depth agree with its path.
func assertSameOrder(t *testing.T, label string, want, got *Tree) {
	t.Helper()
	if w, g := want.Paths(), got.Paths(); !reflect.DeepEqual(w, g) {
		t.Fatalf("%s: pre-order paths\n got %q\nwant %q", label, g, w)
	}
	if got.Len() != len(got.Nodes()) {
		t.Fatalf("%s: Len %d, %d nodes", label, got.Len(), len(got.Nodes()))
	}
	for _, n := range got.Nodes() {
		if n.Key() != EncodePath(n.Path()) || n.Depth() != len(n.Path())-1 || got.NodeByKey(n.Key()) != n {
			t.Fatalf("%s: node %q has key %q, depth %d", label, n.Path(), n.Key(), n.Depth())
		}
	}
}

// TestSetOperationOrder pins the node order of Union, Copy and Intersect,
// which fixes the perf row order of every thicket: the same pre-order as
// a rebuild through AddPath, and a union of unions equal to one union of
// all inputs (the identity FromProfiles' single union relies on).
func TestSetOperationOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		a, b, c := randomTree(rng), randomTree(rng), randomTree(rng)
		label := fmt.Sprintf("trial %d", trial)
		assertSameOrder(t, label+" union", rebuildUnion(a, b, c), Union(a, b, c))
		assertSameOrder(t, label+" union of unions", Union(a, b, c), Union(Union(a, b), c))
		assertSameOrder(t, label+" union with nil", rebuildUnion(a, b), Union(nil, a, b))
		assertSameOrder(t, label+" copy", rebuildUnion(a), a.Copy())
		assertSameOrder(t, label+" copy is the tree", a, a.Copy())
		assertSameOrder(t, label+" intersect", rebuildIntersect(a, b, c), Intersect(a, b, c))
		u := Union(a, b)
		assertSameOrder(t, label+" intersect with union", rebuildIntersect(u, a), Intersect(u, a))
	}
}

func TestCopyIsolation(t *testing.T) {
	tr := buildSample(t)
	cp := tr.Copy()
	cp.MustAddPath("MAIN", "NEW")
	if tr.Len() != 4 {
		t.Error("Copy shares structure")
	}
	if !tr.Equal(buildSample(t)) {
		t.Error("source mutated")
	}
}

func TestFilterKeysWithAncestors(t *testing.T) {
	tr := New()
	tr.MustAddPath("Base_CUDA", "Algorithm", "Algorithm_MEMCPY", "Algorithm_MEMCPY.block_128")
	tr.MustAddPath("Base_CUDA", "Algorithm", "Algorithm_MEMCPY", "Algorithm_MEMCPY.block_256")
	tr.MustAddPath("Base_CUDA", "Algorithm", "Algorithm_MEMSET", "Algorithm_MEMSET.block_128")

	keep := map[string]bool{}
	for _, n := range tr.Nodes() {
		if strings.HasSuffix(n.Name(), "block_128") {
			keep[n.Key()] = true
		}
	}
	out := tr.FilterKeys(keep, true)
	// 2 leaves + their 4 distinct ancestors (Base_CUDA, Algorithm, MEMCPY, MEMSET).
	if out.Len() != 6 {
		t.Errorf("filtered size = %d, want 6:\n%s", out.Len(), out.Render(nil))
	}
	if out.NodeByPath([]string{"Base_CUDA", "Algorithm", "Algorithm_MEMCPY", "Algorithm_MEMCPY.block_256"}) != nil {
		t.Error("block_256 should be filtered out")
	}
}

func TestFilterKeysWithoutAncestors(t *testing.T) {
	tr := buildSample(t)
	keep := map[string]bool{tr.NodeByPath([]string{"MAIN", "FOO", "BAZ"}).Key(): true}
	out := tr.FilterKeys(keep, false)
	if out.Len() != 1 {
		t.Fatalf("size = %d, want 1", out.Len())
	}
	if len(out.Roots()) != 1 || out.Roots()[0].Name() != "BAZ" {
		t.Error("kept node should be re-rooted")
	}
}

func TestRender(t *testing.T) {
	tr := buildSample(t)
	metric := func(n *Node) (string, bool) { return "0.001", true }
	out := tr.Render(metric)
	for _, want := range []string{"0.001 MAIN", "├─ 0.001 FOO", "│  └─ 0.001 BAZ", "└─ 0.001 BAR"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	bare := tr.Render(nil)
	if !strings.Contains(bare, "MAIN") || strings.Contains(bare, "0.001") {
		t.Errorf("bare render wrong:\n%s", bare)
	}
}

func TestSortChildren(t *testing.T) {
	tr := New()
	tr.MustAddPath("m", "z")
	tr.MustAddPath("m", "a")
	tr.SortChildren()
	kids := tr.Roots()[0].Children()
	names := []string{kids[0].Name(), kids[1].Name()}
	if !sort.StringsAreSorted(names) {
		t.Errorf("children not sorted: %v", names)
	}
}

func TestSubtree(t *testing.T) {
	tr := New()
	tr.MustAddPath("main", "solve", "mult")
	tr.MustAddPath("main", "solve", "add")
	tr.MustAddPath("main", "io")
	solve := tr.NodeByPath([]string{"main", "solve"})
	sub, err := tr.Subtree(solve)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 3 {
		t.Errorf("subtree size = %d, want 3", sub.Len())
	}
	if sub.NodeByPath([]string{"solve", "mult"}) == nil {
		t.Errorf("subtree should re-root at solve:\n%s", sub.Render(nil))
	}
	if sub.NodeByPath([]string{"main"}) != nil {
		t.Error("ancestors must be stripped")
	}
	// Foreign node rejected.
	other := New()
	foreign := other.MustAddPath("x")
	if _, err := tr.Subtree(foreign); err == nil {
		t.Error("foreign node must be rejected")
	}
	if _, err := tr.Subtree(nil); err == nil {
		t.Error("nil node must be rejected")
	}
}

func TestTreeDepth(t *testing.T) {
	tr := New()
	if tr.Depth() != -1 {
		t.Error("empty tree depth should be -1")
	}
	tr.MustAddPath("a", "b", "c")
	if tr.Depth() != 2 {
		t.Errorf("depth = %d, want 2", tr.Depth())
	}
}

func TestDOT(t *testing.T) {
	tr := buildSample(t)
	out := tr.DOT("calltree", func(n *Node) (string, bool) { return "1.0", true })
	for _, want := range []string{"digraph", "MAIN", "FOO", "->", "1.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q:\n%s", want, out)
		}
	}
	// 4 nodes, 3 edges.
	if strings.Count(out, "->") != 3 {
		t.Errorf("edges = %d, want 3", strings.Count(out, "->"))
	}
	bare := tr.DOT("t", nil)
	if !strings.Contains(bare, "BAR") {
		t.Error("bare DOT broken")
	}
}
