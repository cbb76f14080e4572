package core

import (
	"math"
	"runtime"
	"runtime/debug"
	"strconv"
	"testing"
	"time"
	"unsafe"

	"mix/internal/algebra"
	"mix/internal/nav"
	"mix/internal/pathexpr"
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

// TestFirstOccurrenceScanLinear pins the Gprev bookkeeping of the scalar
// distinct and groupBy streams (the evaluator of the cache ablations)
// to linear cost: draining the output over 2N distinct keys allocates
// well under 3× the bytes of the drain over N, where a seen set copied
// at every new key would cost about 4×.
func TestFirstOccurrenceScanLinear(t *testing.T) {
	opts := DefaultOptions()
	opts.GroupCache = false
	keys := func() algebra.Op {
		src := &algebra.Source{URL: "s", Var: "R"}
		k := &algebra.GetDescendants{Input: src, Parent: "R", Path: pathexpr.MustParse("k"), Out: "K"}
		return &algebra.GetDescendants{Input: k, Parent: "K", Path: pathexpr.MustParse("_"), Out: "V"}
	}
	for name, plan := range map[string]func(int) algebra.Op{
		"distinct": func(n int) algebra.Op {
			return &algebra.Distinct{Input: &algebra.Project{Input: keys(), Keep: []string{"V"}}}
		},
		"groupBy": func(n int) algebra.Op {
			return &algebra.GroupBy{Input: keys(), By: []string{"V"}, Var: "K", Out: "KS"}
		},
	} {
		drainBytes := func(n int) uint64 {
			src := xmltree.Elem("r")
			for i := 0; i < n; i++ {
				src.Children = append(src.Children, xmltree.Text("k", strconv.Itoa(i)))
			}
			best := uint64(math.MaxUint64)
			for r := 0; r < 3; r++ {
				e := New(WithOptions(opts))
				e.Register("s", nav.NewTreeDoc(src))
				q, err := e.Compile(plan(n))
				if err != nil {
					t.Fatal(err)
				}
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				s, err := q.build()
				if err != nil {
					t.Fatal(err)
				}
				all, err := drain(s)
				runtime.ReadMemStats(&after)
				if err != nil || len(all) != n {
					t.Fatalf("%s: drained %d of %d bindings: %v", name, len(all), n, err)
				}
				best = min(best, after.TotalAlloc-before.TotalAlloc)
			}
			return best
		}
		const n = 1000
		one, two := drainBytes(n), drainBytes(2*n)
		t.Logf("%s: %d keys %d B, %d keys %d B (%.2f×)", name, n, one, 2*n, two, float64(two)/float64(one))
		if two >= 3*one {
			t.Errorf("%s: draining %d keys allocates %d B, %d keys %d B (%.2f×, want < 3×)",
				name, n, one, 2*n, two, float64(two)/float64(one))
		}
	}
}

// TestGroupMemberListsLinear pins the batch groupBy's member lists to
// linear cost: with two members per group, draining every group's list
// over 4N bindings takes well under 8× the time over N (4× when
// linear). Member lists that each re-key the log from their group head
// to its end cost O(groups × bindings): 16×.
func TestGroupMemberListsLinear(t *testing.T) {
	plan := &algebra.GroupBy{Input: &algebra.GetDescendants{
		Input: &algebra.GetDescendants{Input: &algebra.Source{URL: "s", Var: "R"},
			Parent: "R", Path: pathexpr.MustParse("k"), Out: "K"},
		Parent: "K", Path: pathexpr.MustParse("_"), Out: "V"},
		By: []string{"V"}, Var: "K", Out: "KS"}
	source := func(n int) *xmltree.Tree {
		src := xmltree.Elem("r")
		for i := 0; i < n; i++ {
			src.Children = append(src.Children, xmltree.Text("k", strconv.Itoa(i/2)))
		}
		return src
	}
	drainTime := func(src *xmltree.Tree) time.Duration {
		n := len(src.Children)
		e := New()
		e.Register("s", nav.NewTreeDoc(src))
		q, err := e.Compile(plan)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		start := time.Now()
		s, err := q.build()
		if err != nil {
			t.Fatal(err)
		}
		groups, err := drain(s)
		if err != nil || len(groups) != n/2 {
			t.Fatalf("drained %d of %d groups: %v", len(groups), n/2, err)
		}
		members := 0
		for _, g := range groups {
			ks, err := g.node("KS")
			if err != nil {
				t.Fatal(err)
			}
			vs, err := drain(ks.Children())
			if err != nil {
				t.Fatal(err)
			}
			members += len(vs)
		}
		d := time.Since(start)
		if members != n {
			t.Fatalf("%d members over %d bindings", members, n)
		}
		return d
	}
	// Best of interleaved runs, so a slow spell of the machine hits
	// both sizes alike, with the collector held off inside the timed
	// drains (each starts from a collected heap).
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 1000
	small, large := source(n), source(4*n)
	one, two := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for r := 0; r < 7; r++ {
		one, two = min(one, drainTime(small)), min(two, drainTime(large))
	}
	t.Logf("%d bindings %v, %d bindings %v (%.2f×)", n, one, 4*n, two, float64(two)/float64(one))
	if two >= 8*one {
		t.Errorf("draining the groups of %d bindings takes %v, of %d bindings %v (%.2f×, want < 8×)",
			n, one, 4*n, two, float64(two)/float64(one))
	}
}
