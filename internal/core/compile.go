package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"mix/internal/algebra"
	"mix/internal/nav"
	"mix/internal/pathexpr"
	"mix/internal/regioncache"
	"mix/internal/trace"
	"mix/internal/xmltree"
)

// Engine compiles algebra plans against a registry of named sources.
// The registry is internally synchronized: sources may be registered
// concurrently with compilations (a compile sees a registration that
// happens before it; compiled queries keep the source they resolved).
type Engine struct {
	opts Options

	// tracer, when non-nil, instruments every compiled plan with
	// navigation tracing (see SetTracer in trace.go). nil — the
	// default — compiles plans with no instrumentation at all.
	tracer *trace.Recorder

	// cache, when non-nil, is the shared cross-session region cache;
	// queries with a cache name get a cache-aware answer document
	// (see Query.Document and SetRegionCache). cacheGen is the cache
	// generation sampled when the cache was installed: entries are
	// opened at that pinned generation, so an engine built before an
	// invalidation can never publish into entries fresh engines read.
	cache    *regioncache.Cache
	cacheGen uint64

	// regVer counts Register calls: the source-registry version that
	// region-cache keys pin entries to.
	regVer atomic.Uint64

	regMu sync.RWMutex
	reg   map[string]nav.Document

	// intern canonicalizes the label vocabulary the engine's DFA caches
	// key on; shared across all plans compiled by this engine.
	intern *xmltree.Interner
}

// Register makes doc available to plans under the given source name.
// Registering an existing name replaces the source.
func (e *Engine) Register(name string, doc nav.Document) {
	e.regMu.Lock()
	e.reg[name] = doc
	e.regMu.Unlock()
	e.regVer.Add(1)
}

// RegistryVersion returns the source-registry version: the number of
// Register calls so far. Region-cache entries are pinned to the version
// a query was compiled against, so answers derived from different
// registry states never share an entry.
func (e *Engine) RegistryVersion() uint64 { return e.regVer.Load() }

// SetRegionCache installs the shared cross-session region cache.
// Queries compiled afterwards whose cache name is set (SetCacheName)
// return cache-aware answer documents from Document. Set it before
// compiling; it is not synchronized with concurrent Compile calls. A
// nil cache (the default) leaves every query uncached. The cache's
// current generation is pinned here: install the cache when the engine
// is built, so an engine that outlives an invalidation detaches from
// the shared entries instead of polluting the fresh generation.
func (e *Engine) SetRegionCache(c *regioncache.Cache) {
	e.cache = c
	if c != nil {
		e.cacheGen = c.Generation()
	}
}

// RegionCache returns the installed region cache (nil if none).
func (e *Engine) RegionCache() *regioncache.Cache { return e.cache }

// CacheGeneration returns the cache generation pinned at SetRegionCache
// (0 when no cache is installed).
func (e *Engine) CacheGeneration() uint64 { return e.cacheGen }

// lookup resolves a registered source.
func (e *Engine) lookup(name string) (nav.Document, bool) {
	e.regMu.RLock()
	doc, ok := e.reg[name]
	e.regMu.RUnlock()
	return doc, ok
}

// SourceNames returns the registered source names, sorted.
func (e *Engine) SourceNames() []string {
	e.regMu.RLock()
	out := make([]string, 0, len(e.reg))
	for n := range e.reg {
		out = append(out, n)
	}
	e.regMu.RUnlock()
	sort.Strings(out)
	return out
}

// builder creates a fresh output stream for an operator. Calling it
// twice yields two independent streams over the same (live) inputs.
type builder func() (stream, error)

// Query is a compiled plan: the tree of lazy mediators, ready to serve
// navigations. Building a Query performs no source access.
type Query struct {
	plan    algebra.Op
	eng     *Engine
	topVars []string

	// cacheName/fingerprint/regVer key the query's region-cache entry
	// (see SetCacheName); regVer is captured at compile time, when the
	// plan's sources are resolved.
	cacheName   string
	fingerprint string
	regVer      uint64

	// canon is the canonical (RenameVars normal form) plan, kept when
	// the engine's semantic cache is on and the plan canonicalizes; it
	// is what the containment checker compares (see semantic.go).
	canon algebra.Op

	// semMu/semTried gate the one semantic-cache attempt per query:
	// Document retries until an attempt actually runs (cache installed,
	// candidates reachable), then the verdict — materialized into the
	// entry on a hit — is served by the exact-match layer forever after.
	semMu    sync.Mutex
	semTried bool

	// top is the shared top-level stream (memoized), created lazily.
	top     stream
	topErr  error
	topDone bool
	build   builder

	// answer is non-nil when the plan root is tupleDestroy: the lazy
	// root node of the virtual answer document.
	answer Node

	// batch is non-nil when the query compiled to the batch pipeline
	// (Options.batchMode) and the plan root is not tupleDestroy: the
	// top-level batch adapter Materialize predrains (see batch.go).
	batch *topBatch
}

// Compile validates the plan and compiles it into a tree of lazy
// mediators. No source is accessed. With every operator cache on the
// plan compiles to the batch pipeline at the configured width; a cache
// ablation compiles it to the scalar evaluator (see Options).
func (e *Engine) Compile(plan algebra.Op) (*Query, error) {
	width := 0
	if e.opts.batchMode() {
		width = max(e.opts.BatchSize, 1)
	}
	return e.compileAt(plan, width)
}

// compileAt compiles plan through the batch pipeline at the given
// width, or through the scalar evaluator when width is 0.
func (e *Engine) compileAt(plan algebra.Op, width int) (*Query, error) {
	if err := algebra.Validate(plan); err != nil {
		return nil, err
	}
	for _, src := range algebra.Sources(plan) {
		if _, ok := e.lookup(src); !ok {
			return nil, fmt.Errorf("core: plan references unregistered source %q", src)
		}
	}
	q := &Query{plan: plan, eng: e, topVars: plan.OutVars(), regVer: e.RegistryVersion()}
	c := &compiler{e: e, batch: width}
	if e.opts.Fingerprints {
		c.ks = newKeyspace()
	}
	if td, ok := plan.(*algebra.TupleDestroy); ok {
		inb, err := c.compileTop(td.Input)
		if err != nil {
			return nil, err
		}
		q.answer = &lazyNode{resolve: func() (Node, error) {
			s, err := inb()
			if err != nil {
				return nil, err
			}
			b, _, err := s.next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				return nil, fmt.Errorf("core: tupleDestroy over empty binding list")
			}
			return b.node(td.Var)
		}}
		return q, nil
	}
	if c.batch > 0 {
		bb, err := c.compileB(plan)
		if err != nil {
			return nil, err
		}
		q.batch = &topBatch{in: lazyLog{in: bb}, batch: c.batch}
		q.build = q.batch.builder()
		return q, nil
	}
	b, err := c.compile(plan)
	if err != nil {
		return nil, err
	}
	q.build = memoBuilder(b)
	return q, nil
}

// compileTop compiles a plan into a shared (memoized) top-level stream
// builder, through the batch pipeline when batch mode is on. It serves
// the tupleDestroy input, whose consumer is inherently scalar: the
// answer element resolves from the first binding only, so there is no
// predrain point.
func (c *compiler) compileTop(p algebra.Op) (builder, error) {
	if c.batch > 0 {
		bb, err := c.compileB(p)
		if err != nil {
			return nil, err
		}
		tb := &topBatch{in: lazyLog{in: bb}, batch: c.batch}
		return tb.builder(), nil
	}
	b, err := c.compile(p)
	if err != nil {
		return nil, err
	}
	return memoBuilder(b), nil
}

// memoBuilder makes a builder return one shared memoized stream, so
// all consumers (and repeated navigations) replay the same pulls.
func memoBuilder(b builder) builder {
	var s stream
	var err error
	done := false
	return func() (stream, error) {
		if !done {
			raw, e := b()
			if e != nil {
				err = e
			} else {
				s = memoize(raw)
			}
			done = true
		}
		return s, err
	}
}

// SetCacheName enables region caching for this query under the given
// name (conventionally the view names the query was composed from).
// The cache key is completed by the canonical plan fingerprint —
// computed here — and the registry version captured at compile time.
// With no engine cache installed or an empty name, Document stays
// uncached.
func (q *Query) SetCacheName(name string) {
	q.cacheName = name
	// The fingerprint is computed even without an engine cache: cluster
	// routing hashes (name, fingerprint) to pick the owner node whether
	// or not this node caches locally.
	if name != "" && q.fingerprint == "" {
		canon, fp, ok := regioncache.Canonical(q.plan)
		q.fingerprint = fp
		if ok && q.eng.opts.SemanticCache {
			q.canon = canon
			// Publish the canonical plan in the semantic index so other
			// queries of this view can discover it as a superset
			// candidate (IndexPlan drops stale generations itself).
			if c := q.eng.cache; c != nil {
				c.IndexPlan(regioncache.Key{
					Generation:  q.eng.cacheGen,
					Registry:    q.regVer,
					Name:        name,
					Fingerprint: fp,
				}, canon)
			}
		}
	}
}

// CacheName returns the region-cache name set by SetCacheName.
func (q *Query) CacheName() string { return q.cacheName }

// Fingerprint returns the canonical plan fingerprint computed by
// SetCacheName ("" before it is called or for unnamed queries). With
// CacheName it identifies the same answer document across engines — the
// region-cache key and the cluster routing key.
func (q *Query) Fingerprint() string { return q.fingerprint }

// Document returns the virtual answer document. For tupleDestroy-rooted
// plans this is the constructed answer element; for other plans it is
// the binding-list tree bs[b[…]…] (the inter-mediator view of Fig. 2).
// Obtaining the document and its root handle accesses no source.
//
// When the engine has a region cache and the query a cache name, the
// returned document is cache-aware: navigations over regions another
// session (or an earlier Document of this query) already explored are
// answered from the shared cache without touching this query's lazy
// streams; only cache misses drive them.
func (q *Query) Document() nav.Document {
	var inner nav.Document
	if q.answer != nil {
		inner = &VDoc{root: q.answer}
	} else {
		inner = &VDoc{root: q.bindingsNode()}
	}
	c := q.eng.cache
	if c == nil || q.cacheName == "" {
		return inner
	}
	entry := c.EntryAt(q.eng.cacheGen, q.cacheName, q.fingerprint, q.regVer)
	if q.eng.opts.SemanticCache && q.canon != nil {
		q.trySemantic(c, entry)
	}
	doc := regioncache.NewDoc(entry, inner)
	if rec := q.eng.tracer; rec != nil {
		doc.Observe = func(op string, hit bool) {
			label := "cache:miss"
			if hit {
				label = "cache:hit"
			}
			rec.End(rec.Begin(label, op))
		}
	}
	return doc
}

// bindingsNode renders the compiled stream as a lazy bs[b[X[…]…]…]
// tree in plan OutVars order.
func (q *Query) bindingsNode() Node {
	mk, row := q.build, bindingRow(q.topVars)
	return NewElem("bs", deferSeq(func() (list, error) {
		s, err := mk()
		if err != nil {
			return nil, err
		}
		return mapSeq[*binding, Node]{in: s, fn: row}, nil
	}))
}

// bindingRow returns the kernel rendering one binding as a b[…] node.
func bindingRow(vars []string) func(*binding) (Node, error) {
	return func(b *binding) (Node, error) {
		var kids list = emptySeq[Node]{}
		for i := len(vars) - 1; i >= 0; i-- {
			v, err := b.node(vars[i])
			if err != nil {
				return nil, err
			}
			kids = consSeq[Node]{head: NewElem(vars[i], singleton(v)), tail: kids}
		}
		return NewElem("b", kids), nil
	}
}

// Materialize fully evaluates the query and returns the answer tree:
// the materialized answer element for tupleDestroy plans, the bs[…]
// binding tree otherwise. It is a convenience for callers that want
// the eager behaviour through the lazy machinery.
func (q *Query) Materialize() (*xmltree.Tree, error) {
	// Full evaluation is the batch pipeline's home turf: force the whole
	// binding list in batch-sized pulls first, then walk the answer over
	// the replay log. Cache-aware documents are exempt — a warm cache
	// answers the walk with zero source work, which a predrain would
	// defeat.
	if q.batch != nil && (q.eng.cache == nil || q.cacheName == "") {
		q.batch.predrain()
	}
	return nav.Materialize(q.Document())
}

// compile builds the stream constructor for a plan node, wrapping it
// with a traced stream when a tracer is installed (the per-operator
// boundary of the observability layer).
func (c *compiler) compile(p algebra.Op) (builder, error) {
	b, err := c.compileOp(p)
	if err != nil || c.e.tracer == nil {
		return b, err
	}
	return traceStreamBuilder(b, opLabel(p), c.e.tracer), nil
}

// compileOp dispatches compilation per operator.
func (c *compiler) compileOp(p algebra.Op) (builder, error) {
	switch op := p.(type) {
	case *algebra.Source:
		return c.compileSource(op)
	case *algebra.GetDescendants:
		return c.compileGetDescendants(op)
	case *algebra.Select:
		return c.compileSelect(op)
	case *algebra.Join:
		return c.compileJoin(op)
	case *algebra.GroupBy:
		return c.compileGroupBy(op)
	case *algebra.Concatenate:
		return c.compilePerBinding(op.Input, concatKernel(op))
	case *algebra.CreateElement:
		return c.compilePerBinding(op.Input, createElementKernel(op))
	case *algebra.OrderBy:
		return c.compileOrderBy(op)
	case *algebra.Project:
		return c.compilePerBinding(op.Input, projectKernel(op))
	case *algebra.Union:
		return c.compileBinaryConcat(op.Left, op.Right)
	case *algebra.Difference:
		return c.compileDifference(op)
	case *algebra.Distinct:
		return c.compileDistinct(op)
	case *algebra.WrapList:
		return c.compilePerBinding(op.Input, wrapListKernel(op))
	case *algebra.Const:
		return c.compilePerBinding(op.Input, constKernel(op))
	case *algebra.Rename:
		return c.compilePerBinding(op.Input, renameKernel(op))
	case *algebra.TupleDestroy:
		return nil, fmt.Errorf("core: tupleDestroy must be the plan root")
	default:
		return nil, fmt.Errorf("core: unsupported operator %T", p)
	}
}

// compilePerBinding compiles a pure per-binding transformation.
func (c *compiler) compilePerBinding(input algebra.Op, fn func(*binding) (*binding, error)) (builder, error) {
	in, err := c.compile(input)
	if err != nil {
		return nil, err
	}
	return func() (stream, error) {
		s, err := in()
		if err != nil {
			return nil, err
		}
		return mapSeq[*binding, *binding]{in: s, fn: fn}, nil
	}, nil
}

// The per-binding kernels below are the operator bodies shared by the
// scalar pipeline (one kernel call per mapSeq pull) and the batch
// pipeline (one kernel loop per mapBCursor batch, see batch.go).

func wrapListKernel(op *algebra.WrapList) func(*binding) (*binding, error) {
	varName, out := op.Var, op.Out
	return func(b *binding) (*binding, error) {
		v, err := b.node(varName)
		if err != nil {
			return nil, err
		}
		return b.with(out, NewElem(xmltree.ListLabel, singleton(v))), nil
	}
}

func constKernel(op *algebra.Const) func(*binding) (*binding, error) {
	value, out := op.Value, op.Out
	return func(b *binding) (*binding, error) {
		return b.with(out, FromTree(value)), nil
	}
}

func renameKernel(op *algebra.Rename) func(*binding) (*binding, error) {
	from, to := op.From, op.To
	return func(b *binding) (*binding, error) {
		if _, err := b.node(from); err != nil {
			return nil, err
		}
		return b.rename(from, to), nil
	}
}

func concatKernel(op *algebra.Concatenate) func(*binding) (*binding, error) {
	x, y, out := op.X, op.Y, op.Out
	return func(b *binding) (*binding, error) {
		xv, err := b.node(x)
		if err != nil {
			return nil, err
		}
		yv, err := b.node(y)
		if err != nil {
			return nil, err
		}
		z := NewElem(xmltree.ListLabel, concatSeq[Node]{a: itemsOf(xv), b: itemsOf(yv)})
		return b.with(out, z), nil
	}
}

func createElementKernel(op *algebra.CreateElement) func(*binding) (*binding, error) {
	spec, ch, out := op.Label, op.Children, op.Out
	return func(b *binding) (*binding, error) {
		cv, err := b.node(ch)
		if err != nil {
			return nil, err
		}
		// "c1 … cn are the subtrees of bin.ch": the new element
		// receives the *children* of the bound value (for a
		// list[…] value these are the listed items).
		kids := childrenOf(cv)
		var el Node
		if spec.Var == "" {
			el = NewElem(spec.Const, kids)
		} else {
			// Dynamic label: resolved (one small materialization)
			// only when the element is actually looked at.
			labelVar := spec.Var
			el = &lazyNode{resolve: func() (Node, error) {
				lv, err := b.Value(labelVar)
				if err != nil {
					return nil, err
				}
				label := lv.Label
				if !lv.IsLeaf() {
					label = lv.TextContent()
				}
				return NewElem(label, kids), nil
			}}
		}
		return b.with(out, el), nil
	}
}

func projectKernel(op *algebra.Project) func(*binding) (*binding, error) {
	keep := op.Keep
	return func(b *binding) (*binding, error) {
		for _, v := range keep {
			if _, err := b.node(v); err != nil {
				return nil, err
			}
		}
		return b.project(keep), nil
	}
}

func (c *compiler) compileSource(op *algebra.Source) (builder, error) {
	doc, ok := c.e.lookup(op.URL)
	if !ok {
		return nil, fmt.Errorf("core: unregistered source %q", op.URL)
	}
	if c.e.tracer != nil {
		// Source boundary: every navigation answered by this source
		// becomes a span, so trace totals equal the counter totals a
		// CountingDoc measures at the same boundary.
		doc = trace.NewDoc(doc, trace.SourcePrefix+op.URL, c.e.tracer)
	}
	varName := op.Var
	return func() (stream, error) {
		return singleton(newBinding().with(varName, SourceRoot(doc))), nil
	}, nil
}

func (c *compiler) compileGetDescendants(op *algebra.GetDescendants) (builder, error) {
	in, err := c.compile(op.Input)
	if err != nil {
		return nil, err
	}
	nfa := pathexpr.Compile(op.Path)
	// With fingerprints on, the descent steps a lazily-determinized DFA
	// shared by all streams of this operator: repeated label transitions
	// are O(1) map hits instead of ε-closure recomputations, and the
	// per-step state is a single int rather than an allocated state set.
	var dfa *pathexpr.DFA
	if c.e.opts.Fingerprints {
		dfa = pathexpr.NewDFA(nfa, c.e.intern)
	}
	parent, out := op.Parent, op.Out
	raw := func() (stream, error) {
		s, err := in()
		if err != nil {
			return nil, err
		}
		return flatMapSeq[*binding, *binding]{in: s, fn: func(b *binding) (stream, error) {
			pv, err := b.node(parent)
			if err != nil {
				return nil, err
			}
			return nodeStream{l: matchList(nfa, dfa, pv), base: b, out: out}, nil
		}}, nil
	}
	if c.e.opts.PathCache {
		// The operator-level cache of Section 3: the explored part of
		// the descent is kept by the operator itself, so re-iterations
		// (e.g. as the inner of an uncached join, or a client
		// revisiting the region) replay it instead of re-navigating.
		return memoBuilder(raw), nil
	}
	return raw, nil
}

// nodeStream turns a lazy node list into a binding stream by extending
// base with out ↦ node. It is a mapSeq fused with its kernel: the
// generic map would need a closure over base per expansion.
type nodeStream struct {
	l    list
	base *binding
	out  string
}

func (n nodeStream) next() (*binding, stream, error) {
	h, rest, err := n.l.next()
	if err != nil || h == nil {
		return nil, nil, err
	}
	return n.base.with(n.out, h), nodeStream{l: rest, base: n.base, out: n.out}, nil
}

func (c *compiler) compileSelect(op *algebra.Select) (builder, error) {
	// Fusion: a label selection directly over a one-step wildcard
	// getDescendants is served with the select(σ) source command when
	// NC includes it (Example 1's upgrade to bounded browsable).
	if c.e.opts.NativeSelect {
		if lm, ok := op.Cond.(*algebra.LabelMatch); ok {
			if gd, ok := op.Input.(*algebra.GetDescendants); ok &&
				gd.Out == lm.Var && gd.Path.String() == "_" {
				return c.compileFusedLabelScan(gd, lm.Label)
			}
		}
	}
	in, err := c.compile(op.Input)
	if err != nil {
		return nil, err
	}
	cond := op.Cond
	return func() (stream, error) {
		s, err := in()
		if err != nil {
			return nil, err
		}
		return filterSeq[*binding]{in: s, pred: func(b *binding) (bool, error) {
			return cond.Eval(b)
		}}, nil
	}, nil
}

// compileFusedLabelScan compiles σ_label(getDescendants(parent, _ → out))
// into a child scan that jumps between matches with the select(σ)
// navigation command.
func (c *compiler) compileFusedLabelScan(gd *algebra.GetDescendants, label string) (builder, error) {
	in, err := c.compile(gd.Input)
	if err != nil {
		return nil, err
	}
	parent, out, match := gd.Parent, gd.Out, labelIs(label)
	return func() (stream, error) {
		s, err := in()
		if err != nil {
			return nil, err
		}
		return flatMapSeq[*binding, *binding]{in: s, fn: func(b *binding) (stream, error) {
			pv, err := b.node(parent)
			if err != nil {
				return nil, err
			}
			return nodeStream{l: fusedScanList(pv, label, match), base: b, out: out}, nil
		}}, nil
	}, nil
}

// selectScanList enumerates the children of parent with the given label
// using d plus native select(σ) jumps (sel non-nil), falling back to
// the generic r/f scan when the source lacks the command.
type selectScanList struct {
	doc     nav.Document
	sel     nav.Selector // from nav.SelectorOf(doc); nil = generic scan
	parent  nav.ID       // when !started: the parent; else: the previous match
	label   string
	started bool
}

func (s selectScanList) selectFrom(p nav.ID, fromSelf bool) (nav.ID, error) {
	if s.sel != nil {
		return s.sel.SelectRight(p, nav.LabelIs(s.label), fromSelf)
	}
	return nav.Select(s.doc, p, nav.LabelIs(s.label), fromSelf)
}

func (s selectScanList) next() (Node, list, error) {
	var cur nav.ID
	var err error
	if !s.started {
		cur, err = s.doc.Down(s.parent)
		if err != nil {
			return nil, nil, err
		}
		if cur == nil {
			return nil, nil, nil
		}
		cur, err = s.selectFrom(cur, true)
	} else {
		cur, err = s.selectFrom(s.parent, false)
	}
	if err != nil {
		return nil, nil, err
	}
	if cur == nil {
		return nil, nil, nil
	}
	return srcNode{doc: s.doc, id: cur},
		selectScanList{doc: s.doc, sel: s.sel, parent: cur, label: s.label, started: true}, nil
}

// labelIs returns the predicate keeping the nodes labelled label (the
// fused scan's filter over constructed parents).
func labelIs(label string) func(Node) (bool, error) {
	return func(n Node) (bool, error) {
		l, err := n.Label()
		return err == nil && l == label, err
	}
}

// sourceBacked is implemented by nodes that directly wrap a source
// document node, enabling command pushdown (native select).
type sourceBacked interface {
	source() (nav.Document, nav.ID)
}

func (s srcNode) source() (nav.Document, nav.ID) { return s.doc, s.id }

func asSourceBacked(v Node) (sourceBacked, bool) {
	for {
		if sb, ok := v.(sourceBacked); ok {
			return sb, true
		}
		ln, ok := v.(*lazyNode)
		if !ok {
			return nil, false
		}
		inner, err := ln.force()
		if err != nil {
			return nil, false
		}
		v = inner
	}
}

// compileJoin is the scalar join of the cache ablations: the paper's
// nested loops, run serially. HashJoin and Parallel are fast paths of
// the cached pipeline (compileBJoin) and do not apply here.
func (c *compiler) compileJoin(op *algebra.Join) (builder, error) {
	left, err := c.compile(op.Left)
	if err != nil {
		return nil, err
	}
	right, err := c.compile(op.Right)
	if err != nil {
		return nil, err
	}
	cond := op.Cond
	cache := c.e.opts.JoinCache
	return func() (stream, error) {
		ls, err := left()
		if err != nil {
			return nil, err
		}
		// With the inner cache, the right input is derived once and
		// replayed; without it, every outer binding re-derives it from
		// the sources (the E6 ablation).
		var cached stream
		if cache {
			cached = memoize(deferSeq(right))
		}
		return flatMapSeq[*binding, *binding]{in: ls, fn: func(lb *binding) (stream, error) {
			var rs stream
			if cache {
				rs = cached
			} else {
				var err error
				rs, err = right()
				if err != nil {
					return nil, err
				}
			}
			pairs := mapSeq[*binding, *binding]{in: rs, fn: func(rb *binding) (*binding, error) {
				return merge(lb, rb), nil
			}}
			return filterSeq[*binding]{in: pairs, pred: func(b *binding) (bool, error) {
				return cond.Eval(b)
			}}, nil
		}}, nil
	}, nil
}

func (c *compiler) compileOrderBy(op *algebra.OrderBy) (builder, error) {
	in, err := c.compile(op.Input)
	if err != nil {
		return nil, err
	}
	keys := op.Keys
	return func() (stream, error) {
		// Blocking by definition: the whole input list must be read
		// before the first output binding exists (unbrowsable).
		return deferSeq(func() (stream, error) {
			s, err := in()
			if err != nil {
				return nil, err
			}
			all, err := drain(s)
			if err != nil {
				return nil, err
			}
			sorted, err := sortBindings(all, keys)
			if err != nil {
				return nil, err
			}
			return sliceSeq[*binding](sorted), nil
		}), nil
	}, nil
}

func valueAtom(t *xmltree.Tree) string {
	if t == nil {
		return ""
	}
	if t.IsLeaf() {
		return t.Label
	}
	// Single-leaf element (the Text("zip","92093") shape): the text
	// content is exactly the leaf's label — skip the builder.
	if len(t.Children) == 1 && t.Children[0].IsLeaf() {
		return t.Children[0].Label
	}
	return t.TextContent()
}

func (c *compiler) compileBinaryConcat(l, r algebra.Op) (builder, error) {
	lb, err := c.compile(l)
	if err != nil {
		return nil, err
	}
	rb, err := c.compile(r)
	if err != nil {
		return nil, err
	}
	return func() (stream, error) {
		ls, err := lb()
		if err != nil {
			return nil, err
		}
		return concatSeq[*binding]{a: ls, b: deferSeq(rb)}, nil
	}, nil
}

func (c *compiler) compileDifference(op *algebra.Difference) (builder, error) {
	lb, err := c.compile(op.Left)
	if err != nil {
		return nil, err
	}
	rb, err := c.compile(op.Right)
	if err != nil {
		return nil, err
	}
	vars := op.Left.OutVars()
	ks := c.ks
	return func() (stream, error) {
		ls, err := lb()
		if err != nil {
			return nil, err
		}
		// The right input is read in its entirety before the first
		// left binding can be emitted (unbrowsable on the right).
		var seen map[string]bool
		return filterSeq[*binding]{in: ls, pred: func(b *binding) (bool, error) {
			if seen == nil {
				rs, err := rb()
				if err != nil {
					return false, err
				}
				all, err := drain(rs)
				if err != nil {
					return false, err
				}
				seen, err = keySeen(all, ks, vars)
				if err != nil {
					return false, err
				}
			}
			k, err := b.key(ks, vars)
			if err != nil {
				return false, err
			}
			return !seen[k], nil
		}}, nil
	}, nil
}

func (c *compiler) compileDistinct(op *algebra.Distinct) (builder, error) {
	in, err := c.compile(op.Input)
	if err != nil {
		return nil, err
	}
	vars := op.Input.OutVars()
	ks := c.ks
	return func() (stream, error) {
		s, err := in()
		if err != nil {
			return nil, err
		}
		return distinctStream{in: s, ks: ks, vars: vars, first: firstSeen{}}, nil
	}, nil
}

// firstSeen maps each operator key to the input ordinal of its first
// occurrence: the one Gprev set a persistent first-occurrence scan
// (distinct, groupBy) shares across all its positions. Every position
// is reached by scanning the input from ordinal 0, and replaying a
// saved tail sees the same keys at the same ordinals, so a key is new
// at ordinal p exactly when its first occurrence is p.
type firstSeen map[string]int

func (f firstSeen) isFirst(k string, p int) bool {
	q, ok := f[k]
	if !ok {
		f[k] = p
		return true
	}
	return q == p
}

// distinctStream keeps first occurrences; pos is the input ordinal of
// in's head.
type distinctStream struct {
	in    stream
	pos   int
	ks    *keyspace
	vars  []string
	first firstSeen
}

func (d distinctStream) next() (*binding, stream, error) {
	in, pos := d.in, d.pos
	for {
		h, t, err := in.next()
		if err != nil || h == nil {
			return nil, nil, err
		}
		k, err := h.key(d.ks, d.vars)
		if err != nil {
			return nil, nil, err
		}
		if d.first.isFirst(k, pos) {
			return h, distinctStream{in: t, pos: pos + 1, ks: d.ks, vars: d.vars, first: d.first}, nil
		}
		pos++
		in = t
	}
}
