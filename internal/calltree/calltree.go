// Package calltree implements labelled call trees: the structural basis on
// which thicket objects compose profiles (paper §3.2). A node's identity
// is its root path of region names, so two profiles collected from the
// same annotated code agree on node identity regardless of collection
// order — the operative special case of labelled-graph isomorphism the
// paper relies on for joining ensembles.
package calltree

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Node is one region in a call tree.
type Node struct {
	name     string
	parent   *Node
	children []*Node
	pathKey  string
	depth    int
}

// Name returns the region name of the node.
func (n *Node) Name() string { return n.name }

// Parent returns the parent node, or nil for a root.
func (n *Node) Parent() *Node { return n.parent }

// Children returns the child nodes (shared slice; treat as read-only).
func (n *Node) Children() []*Node { return n.children }

// Depth returns the node's depth; roots have depth 0.
func (n *Node) Depth() int { return n.depth }

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.children) == 0 }

// Path returns the root path of region names ending at this node.
func (n *Node) Path() []string {
	var rev []string
	for cur := n; cur != nil; cur = cur.parent {
		rev = append(rev, cur.name)
	}
	out := make([]string, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// PathString renders the root path joined with "/" for display. Display
// only: identity uses an injective encoding, so names containing "/" are
// safe.
func (n *Node) PathString() string { return strings.Join(n.Path(), "/") }

// Key returns the canonical injective encoding of the node's root path;
// this is the node's identity across trees.
func (n *Node) Key() string { return n.pathKey }

// String implements fmt.Stringer with the node name.
func (n *Node) String() string { return n.name }

// EncodePath produces the canonical injective path encoding used for node
// identity (length-prefixed segments).
func EncodePath(path []string) string {
	var sb strings.Builder
	for _, seg := range path {
		sb.WriteString(strconv.Itoa(len(seg)))
		sb.WriteByte(':')
		sb.WriteString(seg)
		sb.WriteByte('/')
	}
	return sb.String()
}

// Tree is a forest of call-tree roots with path-keyed node lookup.
type Tree struct {
	roots  []*Node
	byKey  map[string]*Node
	nNodes int
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{byKey: make(map[string]*Node)}
}

// Len reports the number of nodes.
func (t *Tree) Len() int { return t.nNodes }

// Roots returns the root nodes (shared slice; treat as read-only).
func (t *Tree) Roots() []*Node { return t.roots }

// AddPath ensures every node along the root path exists, returning the
// final node. Empty paths are an error. Each prefix is looked up by its
// key, grown in one buffer; only a new node allocates its key.
func (t *Tree) AddPath(path []string) (*Node, error) {
	if len(path) == 0 {
		return nil, fmt.Errorf("calltree: empty path")
	}
	var arr [128]byte
	key := arr[:0]
	var cur *Node
	for _, name := range path {
		key = strconv.AppendInt(key, int64(len(name)), 10)
		key = append(key, ':')
		key = append(key, name...)
		key = append(key, '/')
		next, ok := t.byKey[string(key)]
		if !ok {
			next = t.add(cur, name, string(key))
		}
		cur = next
	}
	return cur, nil
}

// add appends a node with the given name and key under parent, or as a
// new root when parent is nil. The key must be new to the tree.
func (t *Tree) add(parent *Node, name, key string) *Node {
	n := &Node{name: name, parent: parent, pathKey: key}
	if parent == nil {
		t.roots = append(t.roots, n)
	} else {
		n.depth = parent.depth + 1
		parent.children = append(parent.children, n)
	}
	t.byKey[key] = n
	t.nNodes++
	return n
}

// MustAddPath is AddPath that panics on error; for generators with
// statically valid paths.
func (t *Tree) MustAddPath(path ...string) *Node {
	n, err := t.AddPath(path)
	if err != nil {
		panic(err)
	}
	return n
}

// NodeByPath returns the node at the given root path, or nil.
func (t *Tree) NodeByPath(path []string) *Node { return t.byKey[EncodePath(path)] }

// NodeByKey returns the node with the given canonical key, or nil.
func (t *Tree) NodeByKey(key string) *Node { return t.byKey[key] }

// NodesByName returns all nodes with the given region name, in traversal
// order.
func (t *Tree) NodesByName(name string) []*Node {
	var out []*Node
	for _, n := range t.Nodes() {
		if n.name == name {
			out = append(out, n)
		}
	}
	return out
}

// Nodes returns all nodes in depth-first pre-order (roots in insertion
// order, children in insertion order).
func (t *Tree) Nodes() []*Node {
	out := make([]*Node, 0, t.nNodes)
	var walk func(n *Node)
	walk = func(n *Node) {
		out = append(out, n)
		for _, c := range n.children {
			walk(c)
		}
	}
	for _, r := range t.roots {
		walk(r)
	}
	return out
}

// Leaves returns all leaf nodes in depth-first pre-order.
func (t *Tree) Leaves() []*Node {
	var out []*Node
	for _, n := range t.Nodes() {
		if n.IsLeaf() {
			out = append(out, n)
		}
	}
	return out
}

// Paths returns the root paths of all nodes in traversal order.
func (t *Tree) Paths() [][]string {
	nodes := t.Nodes()
	out := make([][]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.Path()
	}
	return out
}

// Copy returns a deep copy of the tree.
func (t *Tree) Copy() *Tree { return Union(t) }

// SortChildren orders every node's children (and the roots) by name,
// producing the canonical form used by equality laws.
func (t *Tree) SortChildren() {
	sort.SliceStable(t.roots, func(a, b int) bool { return t.roots[a].name < t.roots[b].name })
	for _, n := range t.Nodes() {
		sort.SliceStable(n.children, func(a, b int) bool { return n.children[a].name < n.children[b].name })
	}
}

// Contains reports whether the tree has a node with the given key.
func (t *Tree) Contains(key string) bool {
	_, ok := t.byKey[key]
	return ok
}

// Equal reports whether two trees contain exactly the same node set
// (identity by path), ignoring sibling order.
func (t *Tree) Equal(o *Tree) bool {
	if t.nNodes != o.nNodes {
		return false
	}
	for k := range t.byKey {
		if _, ok := o.byKey[k]; !ok {
			return false
		}
	}
	return true
}

// Union returns a new tree containing every node present in any input
// (paper: composing profiles whose call trees are "similar or identical").
// Node order follows the first tree, with novel nodes appended in later
// trees' order: each input is walked in pre-order, and a node whose key
// is new joins its parent's copy as that copy's last child.
func Union(trees ...*Tree) *Tree {
	size := 0
	for _, t := range trees {
		if t != nil && t.nNodes > size {
			size = t.nNodes
		}
	}
	out := &Tree{byKey: make(map[string]*Node, size)}
	var merge func(parent, n *Node)
	merge = func(parent, n *Node) {
		cp, ok := out.byKey[n.pathKey]
		if !ok {
			cp = out.add(parent, n.name, n.pathKey)
		}
		for _, c := range n.children {
			merge(cp, c)
		}
	}
	for _, t := range trees {
		if t == nil {
			continue
		}
		for _, r := range t.roots {
			merge(nil, r)
		}
	}
	return out
}

// Intersect returns a new tree containing exactly the nodes present in
// every input, in the first tree's order. Because identity is path-based,
// an intersected node's ancestors are present by construction, and a node
// missing from some input has no descendant present in all of them.
func Intersect(trees ...*Tree) *Tree {
	out := New()
	if len(trees) == 0 {
		return out
	}
	var keep func(parent, n *Node)
	keep = func(parent, n *Node) {
		for _, t := range trees[1:] {
			if !t.Contains(n.pathKey) {
				return
			}
		}
		cp := out.add(parent, n.name, n.pathKey)
		for _, c := range n.children {
			keep(cp, c)
		}
	}
	for _, r := range trees[0].roots {
		keep(nil, r)
	}
	return out
}

// FilterKeys returns a new tree keeping only nodes whose key is in keep.
// When withAncestors is true, ancestors of kept nodes are retained so the
// result remains a rooted tree (the behaviour of the paper's Figure 8
// query output, which shows matched leaves under their call paths).
func (t *Tree) FilterKeys(keep map[string]bool, withAncestors bool) *Tree {
	out := New()
	for _, n := range t.Nodes() {
		if !keep[n.Key()] {
			continue
		}
		path := n.Path()
		if withAncestors {
			if _, err := out.AddPath(path); err != nil {
				panic(err)
			}
			continue
		}
		// Without ancestors, re-root each kept node at its longest kept
		// prefix chain.
		var kept []string
		for i := range path {
			if keep[EncodePath(path[:i+1])] {
				kept = append(kept, path[i])
			}
		}
		if _, err := out.AddPath(kept); err != nil {
			panic(err)
		}
	}
	return out
}

// RenderMetric formats a per-node annotation for Render; returning
// ok=false suppresses the annotation.
type RenderMetric func(n *Node) (text string, ok bool)

// Render draws the tree in the style of Hatchet/Thicket tree output:
//
//	0.001 Base_CUDA
//	├─ 0.000 Algorithm
//	│  └─ 0.002 Algorithm_MEMCPY.block_128
//
// metric may be nil for a bare structural rendering.
func (t *Tree) Render(metric RenderMetric) string {
	var sb strings.Builder
	var walk func(n *Node, prefix string, isLast bool, isRoot bool)
	walk = func(n *Node, prefix string, isLast, isRoot bool) {
		line := prefix
		if !isRoot {
			if isLast {
				line += "└─ "
			} else {
				line += "├─ "
			}
		}
		if metric != nil {
			if txt, ok := metric(n); ok {
				line += txt + " "
			}
		}
		line += n.name
		sb.WriteString(line)
		sb.WriteByte('\n')
		childPrefix := prefix
		if !isRoot {
			if isLast {
				childPrefix += "   "
			} else {
				childPrefix += "│  "
			}
		}
		for i, c := range n.children {
			walk(c, childPrefix, i == len(n.children)-1, false)
		}
	}
	for _, r := range t.roots {
		walk(r, "", true, true)
	}
	return sb.String()
}

// Subtree returns a new tree containing the given node and all of its
// descendants, re-rooted at that node's name (paths lose the ancestor
// prefix). The node must belong to this tree.
func (t *Tree) Subtree(n *Node) (*Tree, error) {
	if n == nil || t.byKey[n.Key()] != n {
		return nil, fmt.Errorf("calltree: node does not belong to this tree")
	}
	out := New()
	prefix := n.Depth()
	var walk func(cur *Node) error
	walk = func(cur *Node) error {
		path := cur.Path()[prefix:]
		if _, err := out.AddPath(path); err != nil {
			return err
		}
		for _, c := range cur.children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(n); err != nil {
		return nil, err
	}
	return out, nil
}

// Depth returns the maximum node depth in the tree (-1 when empty).
func (t *Tree) Depth() int {
	max := -1
	for _, n := range t.Nodes() {
		if n.depth > max {
			max = n.depth
		}
	}
	return max
}

// DOT renders the tree as Graphviz source: one box per node labelled
// with its name (plus the metric annotation when provided). Useful for
// embedding call trees in papers and dashboards.
func (t *Tree) DOT(name string, metric RenderMetric) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n  node [shape=box, fontname=\"sans-serif\"];\n", name)
	escape := func(s string) string {
		s = strings.ReplaceAll(s, "\\", "\\\\")
		return strings.ReplaceAll(s, "\"", "\\\"")
	}
	ids := map[string]int{}
	for i, n := range t.Nodes() {
		ids[n.Key()] = i
		label := escape(n.Name())
		if metric != nil {
			if txt, ok := metric(n); ok {
				// Literal \n: a line break inside the Graphviz label.
				label = escape(txt) + "\\n" + label
			}
		}
		fmt.Fprintf(&sb, "  n%d [label=\"%s\"];\n", i, label)
	}
	for _, n := range t.Nodes() {
		if n.parent != nil {
			fmt.Fprintf(&sb, "  n%d -> n%d;\n", ids[n.parent.Key()], ids[n.Key()])
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}
