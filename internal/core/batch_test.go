package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"mix/internal/algebra"
	"mix/internal/eager"
	"mix/internal/nav"
	"mix/internal/pathexpr"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

// batchOpts is DefaultOptions with the batch width pinned.
func batchOpts(bs int) Options {
	o := DefaultOptions()
	o.BatchSize = bs
	return o
}

// compileScalarRef compiles p through the scalar evaluator whatever e's
// options say. With every cache on it is the binding-at-a-time
// reference the batch pipeline must match at every width; its joins run
// nested loops where the batch pipeline probes a hash index.
func compileScalarRef(t *testing.T, e *Engine, p algebra.Op) *Query {
	t.Helper()
	q, err := e.compileAt(p, 0)
	if err != nil {
		t.Fatalf("scalar compile: %v\nplan:\n%s", err, algebra.String(p))
	}
	if q.batch != nil {
		t.Fatal("scalar reference compiled to the batch pipeline")
	}
	return q
}

// navCounts renders the per-source navigation counters, sorted by
// source name.
func navCounts(counters map[string]*nav.CountingDoc) string {
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	var navs []string
	for _, name := range names {
		c := counters[name].Counters.Snapshot()
		navs = append(navs, fmt.Sprintf("%s d=%d r=%d f=%d sel=%d root=%d",
			name, c.Down, c.Right, c.Fetch, c.Select, c.Root))
	}
	return strings.Join(navs, "; ")
}

// batchPlans is the operator-coverage set for the identity tests: the
// paper's join+group plan, a hash equi-join, selection (both the
// fused-scan and the general condition form), distinct over a union,
// difference, and orderBy — every batch operator class in one sweep.
func batchPlans() map[string]func() algebra.Op {
	zips := func(src, rvar, hvar, zvar, inner string) algebra.Op {
		return &algebra.GetDescendants{
			Input: &algebra.GetDescendants{
				Input:  &algebra.Source{URL: src, Var: rvar},
				Parent: rvar, Path: pathexpr.MustParse(inner), Out: hvar,
			},
			Parent: hvar, Path: pathexpr.MustParse("zip._"), Out: zvar,
		}
	}
	homeZips := func() algebra.Op { return zips("homesSrc", "R1", "H", "V1", "home") }
	schoolZips := func() algebra.Op { return zips("schoolsSrc", "R2", "S", "V2", "school") }
	projZip := func() algebra.Op {
		return &algebra.Project{Input: homeZips(), Keep: []string{"V1"}}
	}
	return map[string]func() algebra.Op{
		"fig4": workload.HomesSchoolsPlan,
		"hash equi-join": func() algebra.Op {
			return &algebra.Project{
				Input: &algebra.Join{Left: homeZips(), Right: schoolZips(),
					Cond: algebra.Eq(algebra.V("V1"), algebra.V("V2"))},
				Keep: []string{"H", "S"},
			}
		},
		"select condition": func() algebra.Op {
			return &algebra.Project{
				Input: &algebra.Select{Input: homeZips(),
					Cond: algebra.Eq(algebra.V("V1"), algebra.Lit("91000"))},
				Keep: []string{"H"},
			}
		},
		"distinct over union": func() algebra.Op {
			return &algebra.Distinct{Input: &algebra.Union{
				Left: projZip(), Right: projZip()}}
		},
		"difference": func() algebra.Op {
			return &algebra.Difference{
				Left: projZip(),
				Right: &algebra.Project{
					Input: &algebra.Select{Input: homeZips(),
						Cond: algebra.Eq(algebra.V("V1"), algebra.Lit("91000"))},
					Keep: []string{"V1"},
				},
			}
		},
		"orderBy": func() algebra.Op {
			return &algebra.OrderBy{Input: projZip(), Keys: []string{"V1"}}
		},
		"groupBy": func() algebra.Op {
			return &algebra.GroupBy{Input: homeZips(),
				By: []string{"V1"}, Var: "H", Out: "G"}
		},
	}
}

// TestBatchSizesByteIdentical is the acceptance bet of the batch
// pipeline: for every operator class and every batch width — including
// widths that straddle, divide, and dwarf the stream lengths — the
// answer bytes AND the per-source navigation counts match the scalar
// reference exactly.
func TestBatchSizesByteIdentical(t *testing.T) {
	homes, schools := workload.HomesSchools(23, 17, 5, 3)
	srcs := map[string]*xmltree.Tree{"homesSrc": homes, "schoolsSrc": schools}
	run := func(t *testing.T, plan algebra.Op, bs int, scalar bool) (string, string) {
		e, counters := engineWith(batchOpts(bs), srcs)
		var q *Query
		if scalar {
			q = compileScalarRef(t, e, plan)
		} else {
			q = mustCompile(t, e, plan)
		}
		return xmltree.MarshalXML(mustMaterialize(t, q)), navCounts(counters)
	}
	for name, mk := range batchPlans() {
		t.Run(name, func(t *testing.T) {
			wantAnswer, wantNavs := run(t, mk(), DefaultBatchSize, true)
			for _, bs := range []int{0, 1, 2, 3, 7, 64, 1000} {
				gotAnswer, gotNavs := run(t, mk(), bs, false)
				if gotAnswer != wantAnswer {
					t.Fatalf("BatchSize=%d answer differs:\n%s\nvs scalar\n%s",
						bs, gotAnswer, wantAnswer)
				}
				if gotNavs != wantNavs {
					t.Fatalf("BatchSize=%d source navigations differ:\n%s\nvs scalar\n%s",
						bs, gotNavs, wantNavs)
				}
			}
		})
	}
}

// TestBatchLazyNavIdentity holds the batch pipeline to the lazy
// navigation contract step by step, not only on full drains: replaying
// each client persona over each batchPlans answer, with the script's
// region count fitted to the answer's top-level width, must explore the
// same part and cost the same per-source navigations after every step,
// through the scalar reference, at width 1, and at the default width.
func TestBatchLazyNavIdentity(t *testing.T) {
	homes, schools := workload.HomesSchools(23, 17, 5, 3)
	srcs := map[string]*xmltree.Tree{"homesSrc": homes, "schoolsSrc": schools}
	for name, mk := range batchPlans() {
		t.Run(name, func(t *testing.T) {
			e, _ := engineWith(DefaultOptions(), srcs)
			regions := len(mustMaterialize(t, mustCompile(t, e, mk())).Children)
			if regions == 0 {
				t.Fatal("plan answer has no regions to navigate")
			}
			replay := func(script []workload.Step, bs int, scalar bool) []string {
				e, counters := engineWith(batchOpts(bs), srcs)
				var q *Query
				if scalar {
					q = compileScalarRef(t, e, mk())
				} else {
					q = mustCompile(t, e, mk())
				}
				var steps []string
				err := workload.ReplayPersona(q.Document(), script, func(_ int, explored string) error {
					steps = append(steps, explored+" | "+navCounts(counters))
					return nil
				})
				if err != nil {
					t.Fatalf("replay (BatchSize=%d, scalar=%v): %v", bs, scalar, err)
				}
				return steps
			}
			for _, persona := range []string{"deep-drill", "glance", "select-heavy"} {
				script := workload.PersonaScript(persona, regions, 7)
				want := replay(script, DefaultBatchSize, true)
				for _, bs := range []int{1, DefaultBatchSize} {
					got := replay(script, bs, false)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s BatchSize=%d step %d:\n%s\nvs scalar\n%s",
								persona, bs, i, got[i], want[i])
						}
					}
				}
			}
		})
	}
}

// TestBatchFilterEmptyBatches pins the no-false-EOF rule: a filter that
// rejects whole input batches must keep pulling — an all-rejected batch
// is not end-of-stream — and a filter that rejects everything must
// still terminate with the scalar answer (zero rows).
func TestBatchFilterEmptyBatches(t *testing.T) {
	homes, _ := workload.HomesSchools(40, 0, 6, 3)
	srcs := map[string]*xmltree.Tree{"homesSrc": homes}
	zips := &algebra.GetDescendants{
		Input: &algebra.GetDescendants{
			Input:  &algebra.Source{URL: "homesSrc", Var: "R"},
			Parent: "R", Path: pathexpr.MustParse("home"), Out: "H",
		},
		Parent: "H", Path: pathexpr.MustParse("zip._"), Out: "Z",
	}
	for _, tc := range []struct {
		name, lit string
	}{
		{"sparse matches", "91000"}, // rare value: many all-rejected batches
		{"no matches", "no-such-zip"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := func() algebra.Op {
				return &algebra.Project{
					Input: &algebra.Select{Input: zips,
						Cond: algebra.Eq(algebra.V("Z"), algebra.Lit(tc.lit))},
					Keep: []string{"H"},
				}
			}
			es, _ := engineWith(DefaultOptions(), srcs)
			want := xmltree.MarshalXML(mustMaterialize(t, compileScalarRef(t, es, plan())))
			// Width 2 forces many consecutive empty filtered batches.
			eb, _ := engineWith(batchOpts(2), srcs)
			got := xmltree.MarshalXML(mustMaterialize(t, mustCompile(t, eb, plan())))
			if got != want {
				t.Fatalf("batch answer differs:\n%s\nvs\n%s", got, want)
			}
		})
	}
}

// failAfterDoc fails every navigation after the first n have succeeded
// — an error that strikes mid-stream, after a prefix of bindings has
// been produced.
type failAfterDoc struct {
	d    nav.Document
	err  error
	left *int
}

func (f failAfterDoc) step() error {
	if *f.left <= 0 {
		return f.err
	}
	*f.left--
	return nil
}

func (f failAfterDoc) Root() (nav.ID, error) {
	if err := f.step(); err != nil {
		return nil, err
	}
	return f.d.Root()
}

func (f failAfterDoc) Down(p nav.ID) (nav.ID, error) {
	if err := f.step(); err != nil {
		return nil, err
	}
	return f.d.Down(p)
}

func (f failAfterDoc) Right(p nav.ID) (nav.ID, error) {
	if err := f.step(); err != nil {
		return nil, err
	}
	return f.d.Right(p)
}

func (f failAfterDoc) Fetch(p nav.ID) (string, error) {
	if err := f.step(); err != nil {
		return "", err
	}
	return f.d.Fetch(p)
}

// TestBatchMidStreamErrorByteIdentical: an error striking after a
// prefix of source navigations must surface at the same client-visible
// position in both pipelines — same number of answer rows reachable,
// same error. This exercises the prefix-then-error rule of bnext (a
// batch computed up to the failure is delivered before the error).
func TestBatchMidStreamErrorByteIdentical(t *testing.T) {
	homes, _ := workload.HomesSchools(12, 0, 4, 3)
	boom := errors.New("source lost mid-stream")
	plan := func() algebra.Op {
		return &algebra.Project{
			Input: &algebra.GetDescendants{
				Input: &algebra.GetDescendants{
					Input:  &algebra.Source{URL: "homesSrc", Var: "R"},
					Parent: "R", Path: pathexpr.MustParse("home"), Out: "H",
				},
				Parent: "H", Path: pathexpr.MustParse("zip._"), Out: "Z",
			},
			Keep: []string{"H", "Z"},
		}
	}
	// walk steps the answer document left to right and reports how many
	// rows were reached before the error (and the error itself); width 0
	// walks the scalar reference.
	walk := func(t *testing.T, bs, budget int) (int, error) {
		t.Helper()
		left := budget
		e := New(WithOptions(batchOpts(bs)))
		e.Register("homesSrc", failAfterDoc{
			d: nav.NewTreeDoc(homes), err: boom, left: &left})
		var q *Query
		if bs == 0 {
			q = compileScalarRef(t, e, plan())
		} else {
			q = mustCompile(t, e, plan())
		}
		doc := q.Document()
		root, err := doc.Root()
		if err != nil {
			return 0, err
		}
		cur, err := doc.Down(root)
		if err != nil {
			return 0, err
		}
		rows := 0
		for cur != nil {
			rows++
			cur, err = doc.Right(cur)
			if err != nil {
				return rows, err
			}
		}
		return rows, nil
	}
	// A generous budget errors nowhere; the full row count calibrates
	// the truncation budgets below.
	total, err := walk(t, 0, 1<<30)
	if err != nil || total < 4 {
		t.Fatalf("calibration walk: rows=%d err=%v", total, err)
	}
	for _, budget := range []int{1, 5, 17, 43} {
		wantRows, wantErr := walk(t, 0, budget)
		for _, bs := range []int{1, 2, 3, 64} {
			gotRows, gotErr := walk(t, bs, budget)
			if gotRows != wantRows || !errors.Is(gotErr, boom) != !errors.Is(wantErr, boom) {
				t.Fatalf("budget=%d BatchSize=%d: rows=%d err=%v, scalar rows=%d err=%v",
					budget, bs, gotRows, gotErr, wantRows, wantErr)
			}
		}
	}
}

// TestParallelBatchDrainRace stress-tests the work-stealing batch
// drains under the race detector: many engines evaluate the same
// disjoint-sources parallel join concurrently with a tiny batch width
// (maximizing pump handoffs through the shared worker pool), and every
// answer must match the serial scalar reference.
func TestParallelBatchDrainRace(t *testing.T) {
	homes, schools := workload.HomesSchools(30, 30, 6, 3)
	srcs := map[string]*xmltree.Tree{"homesSrc": homes, "schoolsSrc": schools}
	plan := func() algebra.Op {
		return hashZipPlan(algebra.Eq(algebra.V("V1"), algebra.V("V2")))
	}
	ser, _ := engineWith(hashOpts(), srcs)
	want := xmltree.MarshalXML(mustMaterialize(t, compileScalarRef(t, ser, plan())))

	popts := batchOpts(2)
	popts.Parallel = true
	before := BatchSnapshot()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, _ := engineWith(popts, srcs)
			q, err := e.Compile(plan())
			if err != nil {
				errs <- err
				return
			}
			tree, err := q.Materialize()
			if err != nil {
				errs <- err
				return
			}
			if got := xmltree.MarshalXML(tree); got != want {
				errs <- fmt.Errorf("parallel batch answer differs:\n%s", got)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	after := BatchSnapshot()
	if after.Batches <= before.Batches || after.Bindings <= before.Bindings {
		t.Fatalf("batch counters did not advance: %+v -> %+v", before, after)
	}
}

// TestBatchModeGating pins what selects the pipeline: the paper's
// operator caches alone, never the width. Every cached configuration
// compiles to the batch pipeline at any width (0 and 1 both mean one
// binding per pull); turning any one cache off compiles to the scalar
// evaluator.
func TestBatchModeGating(t *testing.T) {
	homes, _ := workload.HomesSchools(3, 0, 2, 3)
	srcs := map[string]*xmltree.Tree{"homesSrc": homes}
	plan := &algebra.Source{URL: "homesSrc", Var: "R"}
	for _, tc := range []struct {
		name  string
		o     Options
		width int // batch width of the compiled pipeline; 0 = scalar
	}{
		{"defaults", DefaultOptions(), DefaultBatchSize},
		{"width 0", batchOpts(0), 1},
		{"width 1", batchOpts(1), 1},
		{"width 64", batchOpts(64), 64},
		{"cache literal", Options{JoinCache: true, PathCache: true, GroupCache: true}, 1},
		{"no join cache", Options{PathCache: true, GroupCache: true, BatchSize: 64}, 0},
		{"no path cache", Options{JoinCache: true, GroupCache: true, BatchSize: 64}, 0},
		{"no group cache", Options{JoinCache: true, PathCache: true, BatchSize: 64}, 0},
	} {
		if got := tc.o.batchMode(); got != (tc.width > 0) {
			t.Errorf("%s: batchMode() = %v, want %v", tc.name, got, tc.width > 0)
		}
		e, _ := engineWith(tc.o, srcs)
		q := mustCompile(t, e, plan)
		width := 0
		if q.batch != nil {
			width = q.batch.batch
		}
		if width != tc.width {
			t.Errorf("%s: compiled pipeline width %d, want %d (0 = scalar)", tc.name, width, tc.width)
		}
	}
}

// TestFusedLabelScanBothPipelines covers the select(σ) fusion in both
// pipelines: σ_label over a one-step wildcard getDescendants compiles
// to a child scan that jumps between matches with the source's select
// command, in the cached batch pipeline served traffic runs and in the
// scalar evaluator of the cache ablations. Each must match the eager
// answer and issue select commands, and widths 1 and 64 must cost the
// same navigations.
func TestFusedLabelScanBothPipelines(t *testing.T) {
	src := workload.FlatList(60, "x", "a", "y", "x", "a", "z")
	srcs := map[string]*xmltree.Tree{"s": src}
	plan := func() algebra.Op {
		return &algebra.Project{
			Input: &algebra.Select{
				Input: &algebra.GetDescendants{Input: &algebra.Source{URL: "s", Var: "R"},
					Parent: "R", Path: pathexpr.MustParse("_"), Out: "X"},
				Cond: &algebra.LabelMatch{Var: "X", Label: "a"},
			},
			Keep: []string{"X"},
		}
	}
	ev := eager.New()
	ev.Register("s", nav.NewTreeDoc(src))
	eagerAnswer, err := ev.Eval(plan())
	if err != nil {
		t.Fatal(err)
	}
	want := xmltree.MarshalXML(eagerAnswer)
	if n := len(eagerAnswer.Children); n != src.CountLabel("a") || n == 0 {
		t.Fatalf("eager answer has %d rows, want %d", n, src.CountLabel("a"))
	}
	cached := func(bs int) Options {
		return Options{JoinCache: true, PathCache: true, GroupCache: true,
			NativeSelect: true, BatchSize: bs}
	}
	counts := map[string]string{}
	for _, tc := range []struct {
		name  string
		o     Options
		batch bool
	}{
		{"batch width 1", cached(1), true},
		{"batch width 64", cached(64), true},
		{"scalar ablation", Options{NativeSelect: true}, false},
	} {
		e, counters := engineWith(tc.o, srcs)
		q := mustCompile(t, e, plan())
		if (q.batch != nil) != tc.batch {
			t.Fatalf("%s: compiled to the batch pipeline = %v, want %v", tc.name, q.batch != nil, tc.batch)
		}
		if got := xmltree.MarshalXML(mustMaterialize(t, q)); got != want {
			t.Fatalf("%s: answer differs from eager:\n%s\nvs\n%s", tc.name, got, want)
		}
		if counters["s"].Counters.Select.Load() == 0 {
			t.Fatalf("%s: no select command reached the source", tc.name)
		}
		counts[tc.name] = navCounts(counters)
	}
	if counts["batch width 1"] != counts["batch width 64"] {
		t.Fatalf("widths 1 and 64 cost different navigations:\n%s\nvs\n%s",
			counts["batch width 1"], counts["batch width 64"])
	}
}
