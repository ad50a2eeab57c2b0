package fleet

// minTree is a tournament tree that keeps the least of n keyed leaves
// at its root. Node 1 is the root, leaf i is node size+i, and every
// inner node holds the better of its two children, so a leaf update
// re-plays only its path to the root: O(log n) per re-key instead of
// an O(n) scan. Strictly less key wins, then strictly less tie, and a
// draw goes to the left child, whose leaves all have lower indices. A
// leaf that is no candidate has no rep and loses to every candidate.
// The tree is a pure function of its leaves, so leaves may be re-keyed
// in any order before a read.
//
// It serves two owners. A pool whose pick is argminCost ranks its
// candidates by (cost, requests), answering the pick without a
// snapshot (dead replicas and those the autoscaler keeps inactive are
// no candidates). The fabric schedules each tier's replicas by (the
// instant before which a replica must run, 0), every replica a
// candidate.
type minTree struct {
	size  int
	nodes []minKey
}

// minKey is one node: the winning leaf of its subtree and the key it
// won on. rep is -1 when no leaf below is a candidate.
type minKey struct {
	key float64
	tie int
	rep int
}

// newMinTree builds a tree over n leaves, none of them a candidate yet.
func newMinTree(n int) *minTree {
	size := 1
	for size < n {
		size *= 2
	}
	t := &minTree{size: size, nodes: make([]minKey, 2*size)}
	for i := range t.nodes {
		t.nodes[i].rep = -1
	}
	return t
}

// better returns the winner of a, the left child, and b, the right one.
//
//det:hotpath
func better(a, b minKey) minKey {
	if b.rep < 0 || (a.rep >= 0 && !(b.key < a.key || (b.key == a.key && b.tie < a.tie))) {
		return a
	}
	return b
}

// set re-keys leaf i, a candidate with the given key and tie or none,
// and re-plays its path to the root.
//
//det:hotpath
func (t *minTree) set(i int, key float64, tie int, candidate bool) {
	j := t.size + i
	if candidate {
		t.nodes[j] = minKey{key: key, tie: tie, rep: i}
	} else {
		t.nodes[j] = minKey{rep: -1}
	}
	for j > 1 {
		j /= 2
		t.nodes[j] = better(t.nodes[2*j], t.nodes[2*j+1])
	}
}

// root returns the winning candidate, -1 when there is none.
//
//det:hotpath
func (t *minTree) root() int { return t.nodes[1].rep }
