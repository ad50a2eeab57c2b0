package fleet

// costTree is a tournament tree over a pool's replicas that answers
// argminCost without a scan. Node 1 is the root, replica i's leaf is
// node size+i, and every inner node holds the better of its two
// children, so a leaf update re-plays only its path to the root:
// O(log replicas) per routed arrival instead of an O(replicas)
// snapshot. The order is argminCost's: strictly less cost wins, then
// strictly fewer requests, and a tie goes to the left child, whose
// replicas all have lower indices. A replica that is no candidate
// (dead, or not kept active by the autoscaler) has a leaf with no
// replica, which loses to every candidate. The tree is a pure function
// of its leaves, so leaves may be re-keyed in any order before a read.
type costTree struct {
	size  int
	nodes []costKey
}

// costKey is one node: the winning replica of its subtree and the key
// it won on. rep is -1 when no leaf below is a candidate.
type costKey struct {
	cost float64
	reqs int
	rep  int
}

// newCostTree builds a tree over n replicas, none of them a candidate
// yet.
func newCostTree(n int) *costTree {
	size := 1
	for size < n {
		size *= 2
	}
	t := &costTree{size: size, nodes: make([]costKey, 2*size)}
	for i := range t.nodes {
		t.nodes[i].rep = -1
	}
	return t
}

// better returns the winner of a, the left child, and b, the right one.
//
//det:hotpath
func better(a, b costKey) costKey {
	if b.rep < 0 || (a.rep >= 0 && !(b.cost < a.cost || (b.cost == a.cost && b.reqs < a.reqs))) {
		return a
	}
	return b
}

// set re-keys replica i's leaf, a candidate with the given cost and
// request count or none, and re-plays its path to the root.
//
//det:hotpath
func (t *costTree) set(i int, cost float64, reqs int, candidate bool) {
	j := t.size + i
	if candidate {
		t.nodes[j] = costKey{cost: cost, reqs: reqs, rep: i}
	} else {
		t.nodes[j] = costKey{rep: -1}
	}
	for j > 1 {
		j /= 2
		t.nodes[j] = better(t.nodes[2*j], t.nodes[2*j+1])
	}
}

// root returns the replica argminCost picks among the candidates, -1
// when there is none.
//
//det:hotpath
func (t *costTree) root() int { return t.nodes[1].rep }
