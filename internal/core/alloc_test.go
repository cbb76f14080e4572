package core

import (
	"math"
	"runtime"
	"testing"
	"unsafe"

	"mix/internal/nav"
	"mix/internal/xmltree"
)

// materializeBytes reports the heap bytes one MaterializeNode of the
// source-backed value tree allocates: the average over a run of calls,
// minimum over a few runs, so allocation by goroutines other tests
// left behind does not count. The source document is walked once
// first, so only the materialization itself is measured (TreeDoc
// memoizes its node handles).
func materializeBytes(t *testing.T, tree *xmltree.Tree) uint64 {
	t.Helper()
	doc := nav.NewTreeDoc(tree)
	root, err := doc.Root()
	if err != nil {
		t.Fatal(err)
	}
	var v Node = srcNode{doc: doc, id: root} // boxed once, outside the measurement
	if _, err := MaterializeNode(v); err != nil {
		t.Fatal(err)
	}
	const calls, runs = 1000, 5
	best := uint64(math.MaxUint64)
	for r := 0; r < runs; r++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			if _, err := MaterializeNode(v); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		best = min(best, (after.TotalAlloc-before.TotalAlloc)/calls)
	}
	return best
}

// TestMaterializeAllocGuard pins the arena sizing: the small values
// comparisons and hash-join keys materialize (a leaf, a zip[91220]
// element) cost a few nodes' worth of heap, not a whole arena chunk
// (64 nodes, 4 KiB on 64-bit targets).
func TestMaterializeAllocGuard(t *testing.T) {
	node := uint64(unsafe.Sizeof(xmltree.Tree{}))
	ptr := uint64(unsafe.Sizeof((*xmltree.Tree)(nil)))
	for _, tc := range []struct {
		name  string
		tree  *xmltree.Tree
		bound uint64
	}{
		// One node, and less than a second one of headroom.
		{"leaf", xmltree.Leaf("91220"), 2*node - 1},
		// Two nodes in chunks of 1 and 2, one child pointer in the
		// arena and one on the shared scratch stack, plus less than a
		// node of headroom.
		{"zip[91220]", xmltree.Text("zip", "91220"), 4*node + 2*ptr - 1},
	} {
		if got := materializeBytes(t, tc.tree); got > tc.bound {
			t.Errorf("materializing %s allocates %d B, bound %d B", tc.name, got, tc.bound)
		}
	}
}
