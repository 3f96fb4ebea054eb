package core

import "fmt"

// Tree is the m-ary promotion tree of §4.3, built over the chunk
// categorization bitmap of one data object. Leaves are the object's data
// chunks (value 1 = sampled critical); each internal node carries the sum
// of its descendant leaves' values and its descendant leaf count, so its
// tree ratio TR = value/leafCount quantifies the likelihood of critical
// chunks in the address range the node covers (§4.3.1).
type Tree struct {
	m      int
	leaves int
	// levels[0] is the leaf level; levels[len-1] is the root (length 1).
	levels [][]treeNode
}

type treeNode struct {
	value     int32
	leafCount int32
}

// BuildTree constructs the tree for a chunk bitmap with arity m (≥ 2).
// An empty bitmap yields a tree with zero leaves and no levels.
func BuildTree(critical []bool, m int) *Tree {
	if m < 2 {
		panic(fmt.Sprintf("core: tree arity %d < 2", m))
	}
	t := &Tree{m: m, leaves: len(critical)}
	if len(critical) == 0 {
		return t
	}
	leafLevel := make([]treeNode, len(critical))
	for i, c := range critical {
		leafLevel[i] = treeNode{leafCount: 1}
		if c {
			leafLevel[i].value = 1
		}
	}
	t.levels = append(t.levels, leafLevel)
	for len(t.levels[len(t.levels)-1]) > 1 {
		child := t.levels[len(t.levels)-1]
		parent := make([]treeNode, (len(child)+m-1)/m)
		for i := range parent {
			var v, lc int32
			for k := i * m; k < (i+1)*m && k < len(child); k++ {
				v += child[k].value
				lc += child[k].leafCount
			}
			parent[i] = treeNode{value: v, leafCount: lc}
		}
		t.levels = append(t.levels, parent)
	}
	return t
}

// M returns the tree arity.
func (t *Tree) M() int { return t.m }

// Height returns the number of levels, including the leaf level.
func (t *Tree) Height() int { return len(t.levels) }

// NodesAt returns the number of nodes on the given level (0 = leaves).
func (t *Tree) NodesAt(level int) int { return len(t.levels[level]) }

// Value returns the critical-leaf count under node (level, idx).
func (t *Tree) Value(level, idx int) int {
	return int(t.levels[level][idx].value)
}

// LeafCount returns the descendant leaf count of node (level, idx).
func (t *Tree) LeafCount(level, idx int) int {
	return int(t.levels[level][idx].leafCount)
}

// TR returns the tree ratio of node (level, idx): value / leafCount
// (§4.3.1). A node with no leaves has TR 0.
func (t *Tree) TR(level, idx int) float64 {
	n := t.levels[level][idx]
	if n.leafCount == 0 {
		return 0
	}
	return float64(n.value) / float64(n.leafCount)
}

// leafSpan returns the [lo, hi) leaf-index range covered by (level, idx).
func (t *Tree) leafSpan(level, idx int) (lo, hi int) {
	span := 1
	for l := 0; l < level; l++ {
		span *= t.m
	}
	lo = idx * span
	hi = lo + span
	if hi > t.leaves {
		hi = t.leaves
	}
	return lo, hi
}

// Promote performs the top-down promotion of §4.3.3 with the (already
// globally adapted) tree-ratio threshold: a breadth-first search from the
// root finds maximal nodes whose tree ratio reaches the threshold and
// contains at least one sampled-critical leaf, and marks every leaf under
// them selected — patching the sampled gaps into one continuous region.
// Nodes below the threshold are descended so deeper dense sub-ranges can
// still be found; nodes with no critical leaves at all are pruned (there
// is nothing to anchor a promotion).
//
// The returned bitmap is the estimated selection: true for every leaf in
// a promoted subtree that was NOT sampled-critical. Sampled-critical
// leaves are never demoted — they remain selected regardless of the
// promotion outcome.
func (t *Tree) Promote(threshold float64, critical []bool) []bool {
	if len(critical) != t.leaves {
		panic("core: Promote bitmap length mismatch")
	}
	promoted := make([]bool, t.leaves)
	if t.leaves == 0 {
		return promoted
	}
	type ref struct{ level, idx int }
	queue := []ref{{len(t.levels) - 1, 0}}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		nd := t.levels[n.level][n.idx]
		if nd.value == 0 || nd.leafCount == 0 {
			continue
		}
		tr := float64(nd.value) / float64(nd.leafCount)
		if tr >= threshold {
			lo, hi := t.leafSpan(n.level, n.idx)
			for i := lo; i < hi; i++ {
				if !critical[i] {
					promoted[i] = true
				}
			}
			continue
		}
		if n.level == 0 {
			continue
		}
		firstChild := n.idx * t.m
		for k := firstChild; k < firstChild+t.m && k < len(t.levels[n.level-1]); k++ {
			queue = append(queue, ref{n.level - 1, k})
		}
	}
	return promoted
}
