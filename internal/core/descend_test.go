package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"mix/internal/nav"
	"mix/internal/pathexpr"
	"mix/internal/xmltree"
)

// oracleWalk is the getDescendants walk the frame stack replaced, kept
// as the reference for its command sequence: every open ancestor adds
// one nested concatSeq, and each sibling is a boxed Node pulled through
// childrenOf/srcAfter cursors.
type oracleWalk[A automaton[S], S any] struct {
	a        A
	siblings list
	state    S
}

func (p oracleWalk[A, S]) next() (Node, list, error) {
	sibs := p.siblings
	for {
		c, rest, err := sibs.next()
		if err != nil || rest == nil {
			return nil, nil, err
		}
		label, err := c.Label()
		if err != nil {
			return nil, nil, err
		}
		st2 := p.a.Step(p.state, label)
		if p.a.Alive(st2) {
			below := concatSeq[Node]{
				a: oracleWalk[A, S]{a: p.a, siblings: childrenOf(c), state: st2},
				b: oracleWalk[A, S]{a: p.a, siblings: rest, state: p.state},
			}
			if p.a.Accepting(st2) {
				return c, below, nil
			}
			return below.next()
		}
		sibs = rest
	}
}

func oracleMatchList(nfa *pathexpr.NFA, dfa *pathexpr.DFA, pv Node) list {
	if dfa != nil {
		return oracleWalk[*pathexpr.DFA, int]{a: dfa, siblings: childrenOf(pv), state: dfa.Start()}
	}
	return oracleWalk[*pathexpr.NFA, pathexpr.StateSet]{a: nfa, siblings: childrenOf(pv), state: nfa.Start()}
}

var errWalkBudget = errors.New("navigation budget spent")

// recDoc logs every command it serves. With fail ≥ 0 it answers only
// the first fail commands and errors from then on.
type recDoc struct {
	d    nav.Document
	log  *[]string
	fail int
}

func (r recDoc) rec(op string, p nav.ID) error {
	if r.fail >= 0 && len(*r.log) >= r.fail {
		return errWalkBudget
	}
	*r.log = append(*r.log, fmt.Sprintf("%s %p", op, p))
	return nil
}

func (r recDoc) Root() (nav.ID, error) {
	if err := r.rec("root", nil); err != nil {
		return nil, err
	}
	return r.d.Root()
}

func (r recDoc) Down(p nav.ID) (nav.ID, error) {
	if err := r.rec("d", p); err != nil {
		return nil, err
	}
	return r.d.Down(p)
}

func (r recDoc) Right(p nav.ID) (nav.ID, error) {
	if err := r.rec("r", p); err != nil {
		return nil, err
	}
	return r.d.Right(p)
}

func (r recDoc) Fetch(p nav.ID) (string, error) {
	if err := r.rec("f", p); err != nil {
		return "", err
	}
	return r.d.Fetch(p)
}

// matchKey identifies a match without navigating: source nodes by
// their ID, constructed ones by type and label.
func matchKey(n Node) string {
	switch v := n.(type) {
	case srcNode:
		return fmt.Sprintf("src %p", v.id)
	case treeNode:
		return fmt.Sprintf("tree %p", v.t)
	default:
		l, _ := n.Label()
		return fmt.Sprintf("%T %s", n, l)
	}
}

// pullUpTo pulls at most k matches; done reports exhaustion within
// them, err the first error.
func pullUpTo(l list, k int) (keys []string, rest list, done bool, err error) {
	for len(keys) < k {
		h, t, err := l.next()
		if err != nil {
			return keys, nil, false, err
		}
		if t == nil {
			return keys, nil, true, nil
		}
		keys = append(keys, matchKey(h))
		l = t
	}
	return keys, l, false, nil
}

func walkTree(r *rand.Rand, depth int) *xmltree.Tree {
	labels := []string{"a", "b", "c"}
	t := &xmltree.Tree{Label: labels[r.Intn(len(labels))]}
	if depth <= 0 {
		return t
	}
	for i, n := 0, r.Intn(4); i < n; i++ {
		t.Children = append(t.Children, walkTree(r, depth-1))
	}
	return t
}

var walkPaths = []string{
	"a", "c", "_", // single step
	"a.b", "_._", "a._.c", // multi-step and wildcard
	"a*.b", "_*.c", "(a|b)+", "_*", "a.(b|c)*", // recursive
}

// walkAutomata compiles src and pairs its NFA with no DFA and with a
// fresh one: the walk steps either, and both must issue the same
// commands.
func walkAutomata(src string) (*pathexpr.NFA, map[string]*pathexpr.DFA) {
	nfa := pathexpr.Compile(pathexpr.MustParse(src))
	return nfa, map[string]*pathexpr.DFA{"nfa": nil, "dfa": pathexpr.NewDFA(nfa, nil)}
}

// parentOf returns a fresh parent value over doc: the source root
// handle (a *lazyNode, as getDescendants sees it) or the resolved
// source node, its ID read off td without going through doc.
func parentOf(t *testing.T, td *nav.TreeDoc, doc nav.Document, lazy bool) Node {
	if lazy {
		return SourceRoot(doc)
	}
	id, err := td.Root()
	if err != nil {
		t.Fatal(err)
	}
	return srcNode{doc: doc, id: id}
}

// TestWalkCommandSequenceMatchesOracle: over random sources, for every
// path shape and both automata, pulling k matches (for every k, and
// with every navigation budget that fails the walk mid-stream) yields
// the same matches, the same error and the same command log as the
// concat-based walk.
func TestWalkCommandSequenceMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for tree := 0; tree < 40; tree++ {
		td := nav.NewTreeDoc(walkTree(r, 4))
		for _, src := range walkPaths {
			nfa, dfas := walkAutomata(src)
			for name, dfa := range dfas {
				lazy := tree%2 == 0
				run := func(mk func(*pathexpr.NFA, *pathexpr.DFA, Node) list, k, fail int) ([]string, []string, bool, error) {
					var log []string
					doc := recDoc{d: td, log: &log, fail: fail}
					keys, _, done, err := pullUpTo(mk(nfa, dfa, parentOf(t, td, doc, lazy)), k)
					return keys, log, done, err
				}
				// Full drain first, to bound k and the budgets.
				_, full, _, _ := run(oracleMatchList, 1<<30, -1)
				for k := 0; ; k++ {
					wantK, wantLog, wantDone, _ := run(oracleMatchList, k, -1)
					gotK, gotLog, gotDone, err := run(matchList, k, -1)
					if err != nil || !slices.Equal(gotK, wantK) || !slices.Equal(gotLog, wantLog) || gotDone != wantDone {
						t.Fatalf("tree %d %s %s k=%d: got %v/%v (done %v, err %v)\nlog %v\nwant %v/%v (done %v)\nlog %v",
							tree, src, name, k, len(gotK), gotK, gotDone, err, gotLog, len(wantK), wantK, wantDone, wantLog)
					}
					if wantDone {
						break
					}
				}
				for fail := 0; fail < len(full); fail++ {
					wantK, wantLog, _, wantErr := run(oracleMatchList, 1<<30, fail)
					gotK, gotLog, _, gotErr := run(matchList, 1<<30, fail)
					if !errors.Is(gotErr, errWalkBudget) || !errors.Is(wantErr, errWalkBudget) ||
						!slices.Equal(gotK, wantK) || !slices.Equal(gotLog, wantLog) {
						t.Fatalf("tree %d %s %s budget %d: got %v err %v log %v, want %v err %v log %v",
							tree, src, name, fail, gotK, gotErr, gotLog, wantK, wantErr, wantLog)
					}
				}
			}
		}
	}
}

// TestWalkRemainderPersistent: a saved remainder is a value — pulling
// it to the end twice replays the same matches with the same commands,
// and those are the oracle's from the same position on.
func TestWalkRemainderPersistent(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for tree := 0; tree < 20; tree++ {
		td := nav.NewTreeDoc(walkTree(r, 4))
		for _, src := range walkPaths {
			nfa := pathexpr.Compile(pathexpr.MustParse(src))
			dfa := pathexpr.NewDFA(nfa, nil)
			var log []string
			doc := recDoc{d: td, log: &log, fail: -1}
			all, _, _, err := pullUpTo(oracleMatchList(nfa, dfa, parentOf(t, td, doc, false)), 1<<30)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j <= len(all); j++ {
				_, rest, _, err := pullUpTo(matchList(nfa, dfa, parentOf(t, td, doc, false)), j)
				if err != nil {
					t.Fatal(err)
				}
				var logs [2][]string
				var drains [2][]string
				for i := range drains {
					log = nil
					if drains[i], _, _, err = pullUpTo(rest, 1<<30); err != nil {
						t.Fatal(err)
					}
					logs[i] = log
				}
				if !slices.Equal(drains[0], all[j:]) || !slices.Equal(drains[1], all[j:]) ||
					!slices.Equal(logs[0], logs[1]) {
					t.Fatalf("tree %d %s after %d: replays %v / %v, want %v; logs %v / %v",
						tree, src, j, drains[0], drains[1], all[j:], logs[0], logs[1])
				}
			}
		}
	}
}

// TestWalkMixedParents: constructed parents (element, list and
// materialized-tree values) holding source children walk like the
// oracle, switching between list levels and ID-stepping levels.
func TestWalkMixedParents(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for tree := 0; tree < 20; tree++ {
		td := nav.NewTreeDoc(walkTree(r, 3))
		lit := walkTree(r, 2)
		for _, src := range walkPaths {
			nfa, dfas := walkAutomata(src)
			for name, dfa := range dfas {
				run := func(mk func(*pathexpr.NFA, *pathexpr.DFA, Node) list) ([]string, []string) {
					var log []string
					doc := recDoc{d: td, log: &log, fail: -1}
					root := SourceRoot(doc)
					// a[ root, b[ root's children ], <lit>, c ]
					inner := NewElem("b", childrenOf(root))
					kids := sliceSeq[Node]{root, inner, FromTree(lit), leafNode("c")}
					keys, _, _, err := pullUpTo(mk(nfa, dfa, NewElem("a", kids)), 1<<30)
					if err != nil {
						t.Fatal(err)
					}
					return keys, log
				}
				gotK, gotLog := run(matchList)
				wantK, wantLog := run(oracleMatchList)
				if !slices.Equal(gotK, wantK) || !slices.Equal(gotLog, wantLog) {
					t.Fatalf("tree %d %s %s: got %v log %v, want %v log %v",
						tree, src, name, gotK, gotLog, wantK, wantLog)
				}
			}
		}
	}
}

// TestWalkLazyRootForcedOnFirstPull: building the match list of a
// *lazyNode parent neither resolves it nor navigates; the first pull
// resolves it exactly once.
func TestWalkLazyRootForcedOnFirstPull(t *testing.T) {
	tree := xmltree.Elem("r", xmltree.Leaf("a"), xmltree.Leaf("b"), xmltree.Leaf("a"))
	var log []string
	doc := recDoc{d: nav.NewTreeDoc(tree), log: &log, fail: -1}
	resolved := 0
	root := &lazyNode{resolve: func() (Node, error) {
		resolved++
		id, err := doc.Root()
		return srcNode{doc: doc, id: id}, err
	}}
	nfa := pathexpr.Compile(pathexpr.MustParse("a"))
	l := matchList(nfa, pathexpr.NewDFA(nfa, nil), root)
	if resolved != 0 || len(log) != 0 {
		t.Fatalf("building the list resolved the root %d times, navigated %v", resolved, log)
	}
	keys, _, _, err := pullUpTo(l, 1)
	if err != nil || len(keys) != 1 || resolved != 1 {
		t.Fatalf("first pull: %v, err %v, root resolved %d times", keys, err, resolved)
	}
	if keys, _, _, err = pullUpTo(l, 3); err != nil || len(keys) != 2 || resolved != 1 {
		t.Fatalf("re-pull: %v, err %v, root resolved %d times", keys, err, resolved)
	}
}

// walkAllocs reports the heap objects one full drain of path over tree
// allocates, the match list's own construction excluded.
func walkAllocs(t *testing.T, tree *xmltree.Tree, path string) (allocs float64, matches int) {
	t.Helper()
	doc := nav.NewTreeDoc(tree)
	id, err := doc.Root()
	if err != nil {
		t.Fatal(err)
	}
	var root Node = srcNode{doc: doc, id: id}
	nfa := pathexpr.Compile(pathexpr.MustParse(path))
	dfa := pathexpr.NewDFA(nfa, nil)
	drainAll := func(l list) int {
		n := 0
		for {
			_, rest, err := l.next()
			if err != nil {
				t.Fatal(err)
			}
			if rest == nil {
				return n
			}
			n, l = n+1, rest
		}
	}
	matches = drainAll(matchList(nfa, dfa, root)) // warms the doc's ID arena and the DFA
	l := matchList(nfa, dfa, root)
	allocs = testing.AllocsPerRun(20, func() { drainAll(l) })
	return allocs, matches
}

// chainTree nests depth a-elements and puts m matches, each behind
// pruned x-siblings, under the innermost one.
func chainTree(depth, m, pruned int) *xmltree.Tree {
	bottom := xmltree.Elem("a")
	for i := 0; i < m; i++ {
		for j := 0; j < pruned; j++ {
			bottom.Children = append(bottom.Children, xmltree.Text("x", strconv.Itoa(j)))
		}
		bottom.Children = append(bottom.Children, xmltree.Leaf("m"))
	}
	t := bottom
	for d := 1; d < depth; d++ {
		t = xmltree.Elem("a", t)
	}
	return xmltree.Elem("r", t)
}

// TestWalkAllocationsPerMatch pins the frame stack's allocation: the
// marginal cost of a match is the same constant at depth 2 and depth 8
// (one frame chunk and the boxed source node), a drain pays depth only
// once, and pruned siblings cost nothing.
func TestWalkAllocationsPerMatch(t *testing.T) {
	const path = "a*.m"
	perMatch := func(depth int) float64 {
		a16, n16 := walkAllocs(t, chainTree(depth, 16, 0), path)
		a32, n32 := walkAllocs(t, chainTree(depth, 32, 0), path)
		if n16 != 16 || n32 != 32 {
			t.Fatalf("depth %d: %d and %d matches, want 16 and 32", depth, n16, n32)
		}
		return (a32 - a16) / 16
	}
	shallow, deep := perMatch(2), perMatch(8)
	t.Logf("allocations per match: %.2f at depth 2, %.2f at depth 8", shallow, deep)
	if shallow != deep || shallow > 2 {
		t.Errorf("allocations per match: %.2f at depth 2, %.2f at depth 8; want equal and ≤ 2", shallow, deep)
	}
	few, _ := walkAllocs(t, chainTree(4, 4, 1), path)
	many, _ := walkAllocs(t, chainTree(4, 4, 50), path)
	t.Logf("drain of 4 matches: %.0f objects with 1 pruned sibling each, %.0f with 50", few, many)
	if few != many {
		t.Errorf("pruned siblings allocate: %.0f objects with 1 per match, %.0f with 50", few, many)
	}
}
