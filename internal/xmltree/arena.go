package xmltree

// Arena bulk-allocates Tree nodes and the backing arrays of their
// Children slices in chunks, so materializing an n-node subtree costs
// O(log n + n/maxChunk) heap allocations instead of O(n). Chunks start
// at one element and double up to arenaMaxChunk, so a one-leaf value
// (the common case: a zip code compared by a join) costs one node, not
// a full chunk. Nodes are handed out as pointers into chunk slices; a
// chunk is never grown in place (only replaced by a fresh chunk), so
// issued pointers stay valid for the life of the trees.
//
// An Arena is single-use scratch state for one materialization; it is
// not safe for concurrent use. The trees it produces are ordinary
// immutable *Tree values with ordinary lifetimes — the chunks stay
// reachable exactly as long as any node carved from them is.
type Arena struct {
	nodes []Tree  // current node chunk; replaced, never regrown
	ptrs  []*Tree // current child-pointer chunk; replaced, never regrown
}

const arenaMaxChunk = 64

// nextChunk is the capacity of the chunk that replaces a full one of
// capacity c: double it, starting at 1, capped at arenaMaxChunk.
func nextChunk(c int) int {
	return min(max(2*c, 1), arenaMaxChunk)
}

// NewNode returns a fresh zero-children node with the given label.
func (a *Arena) NewNode(label string) *Tree {
	if len(a.nodes) == cap(a.nodes) {
		a.nodes = make([]Tree, 0, nextChunk(cap(a.nodes)))
	}
	a.nodes = a.nodes[:len(a.nodes)+1]
	t := &a.nodes[len(a.nodes)-1]
	t.Label = label
	return t
}

// Children copies kids into arena-backed storage and returns the
// stable slice (nil for an empty kid list). The returned slice has no
// spare capacity, so appending to it cannot clobber a neighbour.
func (a *Arena) Children(kids []*Tree) []*Tree {
	n := len(kids)
	if n == 0 {
		return nil
	}
	if cap(a.ptrs)-len(a.ptrs) < n {
		a.ptrs = make([]*Tree, 0, max(nextChunk(cap(a.ptrs)), n))
	}
	out := a.ptrs[len(a.ptrs) : len(a.ptrs)+n : len(a.ptrs)+n]
	a.ptrs = a.ptrs[:len(a.ptrs)+n]
	copy(out, kids)
	return out
}
