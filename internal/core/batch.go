package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"mix/internal/algebra"
	"mix/internal/nav"
	"mix/internal/pathexpr"
	"mix/internal/trace"
)

// Batch-at-a-time execution.
//
// The scalar pipeline moves one binding per next() call; every binding
// pays a virtual call per operator it crosses. Once round trips are
// batched and allocations tamed, that per-binding interpretation is
// what dominates warm drains (E10/E13). The batch pipeline moves slices
// of up to Options.BatchSize bindings per call instead: selection,
// projection, distinct, groupBy ingest, hash-join build/probe, and
// fingerprint keying all loop over a whole batch inside one call.
//
// The paper's lazy contract — explore only what the client demands —
// lives at the answer-document boundary, not inside the pipeline, so
// vectorization must not change a single source navigation there. The
// reconciliation is the want parameter: a cursor never computes more
// than want bindings per call, operators propagate the want they
// receive downstream, and the batch-to-scalar adapter (logStream) pulls
// with want=1. Under client demand the batch pipeline therefore
// executes the exact scalar schedule — same pulls, same condition
// evaluations, same source commands, byte for byte. Full batches flow
// only where the whole output is needed anyway: Materialize predrains
// the top log batch-wise, and the blocking operators (orderBy, the
// difference right input, parallel join derivation) drain their inputs
// in batch-sized pulls. Those drains reorder work but never change the
// set of computations, so answers and navigation totals stay identical.
//
// Cursors are linear (consume-once), unlike the persistent seq the
// scalar streams and node lists share (seq.go): replayability is
// reintroduced only where a consumer actually needs it, by logging
// batches into an append-only batchLog (the top adapter, the
// nested-loops inner input, the groupBy input), which the answer
// boundary and the group value lists read back as seqs. Everything else
// runs log-free.
//
// The batch pipeline serves every configuration with the three operator
// caches on, at any width; width 1 is one binding per pull. The scalar
// pipeline remains only as the evaluator of the cache ablations (E6,
// E7, E9): with GroupCache off, a group's member list re-walks the
// input from the group head through a persistent, unmemoized tail,
// which linear cursors cannot resume mid-stream without a log.

// bcursor is the batch-at-a-time operator output: bnext returns between
// 1 and max(want,1) bindings, or (nil, nil) at end of input, or
// (nil, err) on failure. The returned slice is scratch owned by the
// cursor — valid only until the next bnext call (the bindings it points
// to are immutable and safe to retain). A cursor that computed a prefix
// of a batch before failing returns the prefix first and the error on
// the following call; errors and exhaustion are sticky.
type bcursor interface {
	bnext(want int) ([]*binding, error)
}

// bbuilder creates an operator's output cursor. In batch mode every
// operator has exactly one consumer (multi-reader points go through a
// batchLog or the hash index instead of rebuilding), so unlike the
// scalar builder it is invoked at most once per compiled query.
type bbuilder func() (bcursor, error)

func clampWant(want int) int {
	if want < 1 {
		return 1
	}
	return want
}

// drainB pulls the cursor to exhaustion in want-sized batches.
func drainB(c bcursor, want int) ([]*binding, error) {
	var out []*binding
	for {
		bs, err := c.bnext(want)
		if err != nil {
			return nil, err
		}
		if len(bs) == 0 {
			return out, nil
		}
		out = append(out, bs...)
	}
}

// Package-wide batch-pipeline counters, exposed on the daemon's
// /metrics as mix_batch_*.
var (
	batchBatches  atomic.Int64 // batches logged at materialization points
	batchBindings atomic.Int64 // bindings those batches carried
	batchPredrain atomic.Int64 // Materialize predrains of a top-level log
)

func recordBatch(n int) {
	batchBatches.Add(1)
	batchBindings.Add(int64(n))
}

// BatchStats is a snapshot of the batch-pipeline counters.
type BatchStats struct {
	Batches   int64 // batches logged at materialization points
	Bindings  int64 // bindings carried by those batches
	Predrains int64 // whole-query batch predrains (Materialize)
}

// BatchSnapshot returns the current batch-pipeline counters.
func BatchSnapshot() BatchStats {
	return BatchStats{
		Batches:   batchBatches.Load(),
		Bindings:  batchBindings.Load(),
		Predrains: batchPredrain.Load(),
	}
}

// batchLog replays a linear cursor: batches are appended to an
// append-only buffer as consumers demand positions, so any number of
// readers (scalar adapters, group member scans, join re-probes) share
// one pass over the input. The terminal error, if any, is memoized at
// its position — a replay sees the same prefix and the same error.
type batchLog struct {
	src  bcursor // nil once exhausted or failed
	buf  []*binding
	err  error
	done bool
}

// at returns the binding at position i, growing the log with want-sized
// pulls as needed; nil at end of input (or the memoized error).
func (l *batchLog) at(i, want int) (*binding, error) {
	for !l.done && i >= len(l.buf) {
		bs, err := l.src.bnext(want)
		if err != nil {
			l.err, l.done, l.src = err, true, nil
			break
		}
		if len(bs) == 0 {
			l.done, l.src = true, nil
			break
		}
		l.buf = append(l.buf, bs...)
		recordBatch(len(bs))
	}
	if i < len(l.buf) {
		return l.buf[i], nil
	}
	return nil, l.err
}

// lazyLog defers input derivation until a reader first demands a
// position — the batch counterpart of memoize(deferSeq(…)).
type lazyLog struct {
	in  bbuilder
	log *batchLog
	err error
}

func (l *lazyLog) get() (*batchLog, error) {
	if l.log == nil && l.err == nil {
		c, err := l.in()
		if err != nil {
			l.err = err
		} else {
			l.log = &batchLog{src: c}
		}
		l.in = nil
	}
	return l.log, l.err
}

// logStream is the batch-to-scalar adapter: a persistent scalar stream
// replaying a batchLog, growing it one binding at a time. This is where
// the demand-driven navigation contract is enforced — a client pull
// costs exactly one want=1 batch pull, the scalar schedule.
type logStream struct {
	log *batchLog
	pos int
}

func (s logStream) next() (*binding, stream, error) {
	b, err := s.log.at(s.pos, 1)
	if err != nil {
		return nil, nil, err
	}
	if b == nil {
		return nil, nil, nil
	}
	return b, logStream{log: s.log, pos: s.pos + 1}, nil
}

// topBatch owns a query's top-level batch pipeline: the shared log
// every Document replays, derived on first demand, and the predrain
// entry point Materialize uses to force the whole binding list through
// the pipeline in full batches.
type topBatch struct {
	in    lazyLog
	batch int
}

// builder adapts the batch pipeline to the scalar stream interface all
// answer-document machinery consumes.
func (t *topBatch) builder() builder {
	return func() (stream, error) {
		log, err := t.in.get()
		if err != nil {
			return nil, err
		}
		return logStream{log: log}, nil
	}
}

// predrain forces the whole top-level binding list in batch-sized
// pulls. Pull errors are left memoized in the log — the subsequent
// document walk surfaces them at the same position the scalar pipeline
// would.
func (t *topBatch) predrain() {
	log, err := t.in.get()
	if err != nil || log.done {
		return
	}
	batchPredrain.Add(1)
	for !log.done {
		if _, err := log.at(len(log.buf), t.batch); err != nil {
			return
		}
	}
}

// tracedBCursor wraps an operator's cursor so every batch pull opens a
// span, like tracedStream for the scalar pipeline; the op records how
// many bindings the batch carried ("next[17]").
type tracedBCursor struct {
	in    bcursor
	label string
	rec   *trace.Recorder
}

func (t *tracedBCursor) bnext(want int) ([]*binding, error) {
	sp := t.rec.Begin(t.label, "next")
	bs, err := t.in.bnext(want)
	if sp != nil {
		sp.Op = "next[" + strconv.Itoa(len(bs)) + "]"
	}
	t.rec.End(sp)
	return bs, err
}

// sliceBCursor serves a fixed slice in want-sized windows (sources,
// drained parallel inputs, sorted orderBy output).
type sliceBCursor struct {
	buf []*binding
	pos int
}

func (s *sliceBCursor) bnext(want int) ([]*binding, error) {
	if s.pos >= len(s.buf) {
		return nil, nil
	}
	end := s.pos + clampWant(want)
	if end > len(s.buf) {
		end = len(s.buf)
	}
	out := s.buf[s.pos:end]
	s.pos = end
	return out, nil
}

// mapBCursor applies a per-binding kernel to whole batches.
type mapBCursor struct {
	in  bcursor
	fn  func(*binding) (*binding, error)
	out []*binding
	err error
}

func (m *mapBCursor) bnext(want int) ([]*binding, error) {
	if m.err != nil {
		return nil, m.err
	}
	bs, err := m.in.bnext(want)
	if len(bs) == 0 {
		m.err = err
		return nil, err
	}
	m.out = m.out[:0]
	for _, b := range bs {
		nb, err := m.fn(b)
		if err != nil {
			m.err = err
			if len(m.out) == 0 {
				return nil, err
			}
			return m.out, nil
		}
		m.out = append(m.out, nb)
	}
	return m.out, nil
}

// filterBCursor keeps the bindings satisfying pred. A batch that
// filters down to nothing triggers another input pull — an empty batch
// is never surfaced as end of input.
type filterBCursor struct {
	in   bcursor
	pred func(*binding) (bool, error)
	out  []*binding
	err  error
}

func (f *filterBCursor) bnext(want int) ([]*binding, error) {
	if f.err != nil {
		return nil, f.err
	}
	f.out = f.out[:0]
	for {
		bs, err := f.in.bnext(want)
		if len(bs) == 0 {
			f.err = err
			if len(f.out) > 0 {
				return f.out, nil
			}
			return nil, err
		}
		for _, b := range bs {
			ok, perr := f.pred(b)
			if perr != nil {
				f.err = perr
				if len(f.out) > 0 {
					return f.out, nil
				}
				return nil, perr
			}
			if ok {
				f.out = append(f.out, b)
			}
		}
		if len(f.out) > 0 {
			return f.out, nil
		}
	}
}

// expandBCursor is the batch flatMap: each input binding expands into a
// lazy node list (getDescendants matches, fused σ-scan matches), bound
// to out. Lists are stepped one node at a time so a partially-filled
// batch never explores beyond what it returns.
type expandBCursor struct {
	in   bcursor
	mk   func(*binding) (list, error)
	out  string
	pend []*binding // buffered input bindings awaiting expansion
	pi   int
	base *binding // binding currently being expanded
	cur  list     // its remaining match list
	obuf []*binding
	err  error
	done bool
}

func (e *expandBCursor) bnext(want int) ([]*binding, error) {
	if e.err != nil {
		return nil, e.err
	}
	e.obuf = e.obuf[:0]
	want = clampWant(want)
	for len(e.obuf) < want {
		if e.cur != nil {
			h, rest, err := e.cur.next()
			if err != nil {
				return e.fail(err)
			}
			if h == nil {
				e.cur, e.base = nil, nil
				continue
			}
			e.obuf = append(e.obuf, e.base.with(e.out, h))
			e.cur = rest
			continue
		}
		if e.pi >= len(e.pend) {
			if e.done {
				break
			}
			bs, err := e.in.bnext(want)
			if len(bs) == 0 {
				if err != nil {
					return e.fail(err)
				}
				e.done = true
				break
			}
			e.pend = append(e.pend[:0], bs...)
			e.pi = 0
		}
		b := e.pend[e.pi]
		e.pi++
		l, err := e.mk(b)
		if err != nil {
			return e.fail(err)
		}
		e.base, e.cur = b, l
	}
	if len(e.obuf) > 0 {
		return e.obuf, nil
	}
	return nil, nil
}

func (e *expandBCursor) fail(err error) ([]*binding, error) {
	e.err = err
	if len(e.obuf) > 0 {
		return e.obuf, nil
	}
	return nil, err
}

// chainBCursor concatenates operator outputs (union); each successor is
// built only after its predecessor is exhausted, like the scalar
// deferSeq right side.
type chainBCursor struct {
	cur  bcursor
	rest []bbuilder
	err  error
}

func (c *chainBCursor) bnext(want int) ([]*binding, error) {
	if c.err != nil {
		return nil, c.err
	}
	for {
		if c.cur == nil {
			if len(c.rest) == 0 {
				return nil, nil
			}
			bc, err := c.rest[0]()
			if err != nil {
				c.err = err
				return nil, err
			}
			c.cur, c.rest = bc, c.rest[1:]
		}
		bs, err := c.cur.bnext(want)
		if err != nil {
			c.err = err
			return nil, err
		}
		if len(bs) > 0 {
			return bs, nil
		}
		c.cur = nil
	}
}

// distinctBCursor keeps first occurrences, keying whole batches at a
// time (batchKeys joins the variable list once per batch, not once per
// binding).
type distinctBCursor struct {
	in   bcursor
	ks   *keyspace
	vars []string
	ck   string
	seen map[string]bool
	out  []*binding
	kbuf []string
	err  error
}

func (d *distinctBCursor) bnext(want int) ([]*binding, error) {
	if d.err != nil {
		return nil, d.err
	}
	d.out = d.out[:0]
	for {
		bs, err := d.in.bnext(want)
		if len(bs) == 0 {
			d.err = err
			if len(d.out) > 0 {
				return d.out, nil
			}
			return nil, err
		}
		keys, n, kerr := batchKeys(bs, d.ks, d.vars, d.ck, d.kbuf)
		d.kbuf = keys
		for i := 0; i < n; i++ {
			if !d.seen[keys[i]] {
				d.seen[keys[i]] = true
				d.out = append(d.out, bs[i])
			}
		}
		if kerr != nil {
			d.err = kerr
			if len(d.out) > 0 {
				return d.out, nil
			}
			return nil, kerr
		}
		if len(d.out) > 0 {
			return d.out, nil
		}
	}
}

// diffBCursor emits the left bindings whose key tuple the right input
// never produced. The right side is drained in full batches — but only
// once the first left binding exists, and never if the left input is
// empty, exactly the scalar laziness.
type diffBCursor struct {
	in    bcursor
	right bbuilder
	ks    *keyspace
	vars  []string
	ck    string
	batch int
	seen  map[string]bool
	out   []*binding
	kbuf  []string
	err   error
}

func (d *diffBCursor) bnext(want int) ([]*binding, error) {
	if d.err != nil {
		return nil, d.err
	}
	d.out = d.out[:0]
	for {
		bs, err := d.in.bnext(want)
		if len(bs) == 0 {
			d.err = err
			if len(d.out) > 0 {
				return d.out, nil
			}
			return nil, err
		}
		if d.seen == nil {
			rc, rerr := d.right()
			if rerr == nil {
				var all []*binding
				if all, rerr = drainB(rc, d.batch); rerr == nil {
					d.seen, rerr = keySeen(all, d.ks, d.vars)
				}
			}
			if rerr != nil {
				d.err = rerr
				return nil, rerr
			}
		}
		keys, n, kerr := batchKeys(bs, d.ks, d.vars, d.ck, d.kbuf)
		d.kbuf = keys
		for i := 0; i < n; i++ {
			if !d.seen[keys[i]] {
				d.out = append(d.out, bs[i])
			}
		}
		if kerr != nil {
			d.err = kerr
			if len(d.out) > 0 {
				return d.out, nil
			}
			return nil, kerr
		}
		if len(d.out) > 0 {
			return d.out, nil
		}
	}
}

// sortBCursor drains and sorts its input on first demand (orderBy is
// blocking by definition), then serves the sorted slice in windows.
type sortBCursor struct {
	in    bcursor
	keys  []string
	batch int
	out   *sliceBCursor
	err   error
}

func (s *sortBCursor) bnext(want int) ([]*binding, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.out == nil {
		all, err := drainB(s.in, s.batch)
		var sorted []*binding
		if err == nil {
			sorted, err = sortBindings(all, s.keys)
		}
		if err != nil {
			s.err = err
			return nil, err
		}
		s.out, s.in = &sliceBCursor{buf: sorted}, nil
	}
	return s.out.bnext(want)
}

// The batch compiler mirrors compileOp one-to-one; per-binding
// operators share their kernels with the scalar pipeline (compile.go).

func (c *compiler) compileB(p algebra.Op) (bbuilder, error) {
	bb, err := c.compileBOp(p)
	if err != nil || c.e.tracer == nil {
		return bb, err
	}
	label, rec := opLabel(p), c.e.tracer
	return func() (bcursor, error) {
		cur, err := bb()
		if err != nil {
			return nil, err
		}
		return &tracedBCursor{in: cur, label: label, rec: rec}, nil
	}, nil
}

func (c *compiler) compileBOp(p algebra.Op) (bbuilder, error) {
	switch op := p.(type) {
	case *algebra.Source:
		return c.compileBSource(op)
	case *algebra.GetDescendants:
		return c.compileBGetDescendants(op)
	case *algebra.Select:
		return c.compileBSelect(op)
	case *algebra.Join:
		return c.compileBJoin(op)
	case *algebra.GroupBy:
		return c.compileBGroupBy(op)
	case *algebra.Concatenate:
		return c.compileBPerBinding(op.Input, concatKernel(op))
	case *algebra.CreateElement:
		return c.compileBPerBinding(op.Input, createElementKernel(op))
	case *algebra.OrderBy:
		return c.compileBOrderBy(op)
	case *algebra.Project:
		return c.compileBPerBinding(op.Input, projectKernel(op))
	case *algebra.Union:
		return c.compileBChain(op.Left, op.Right)
	case *algebra.Difference:
		return c.compileBDifference(op)
	case *algebra.Distinct:
		return c.compileBDistinct(op)
	case *algebra.WrapList:
		return c.compileBPerBinding(op.Input, wrapListKernel(op))
	case *algebra.Const:
		return c.compileBPerBinding(op.Input, constKernel(op))
	case *algebra.Rename:
		return c.compileBPerBinding(op.Input, renameKernel(op))
	case *algebra.TupleDestroy:
		return nil, fmt.Errorf("core: tupleDestroy must be the plan root")
	default:
		return nil, fmt.Errorf("core: unsupported operator %T", p)
	}
}

func (c *compiler) compileBPerBinding(input algebra.Op, fn func(*binding) (*binding, error)) (bbuilder, error) {
	in, err := c.compileB(input)
	if err != nil {
		return nil, err
	}
	return func() (bcursor, error) {
		cur, err := in()
		if err != nil {
			return nil, err
		}
		return &mapBCursor{in: cur, fn: fn}, nil
	}, nil
}

func (c *compiler) compileBSource(op *algebra.Source) (bbuilder, error) {
	doc, ok := c.e.lookup(op.URL)
	if !ok {
		return nil, fmt.Errorf("core: unregistered source %q", op.URL)
	}
	if c.e.tracer != nil {
		doc = trace.NewDoc(doc, trace.SourcePrefix+op.URL, c.e.tracer)
	}
	varName := op.Var
	return func() (bcursor, error) {
		b := newBinding().with(varName, SourceRoot(doc))
		return &sliceBCursor{buf: []*binding{b}}, nil
	}, nil
}

func (c *compiler) compileBGetDescendants(op *algebra.GetDescendants) (bbuilder, error) {
	in, err := c.compileB(op.Input)
	if err != nil {
		return nil, err
	}
	nfa := pathexpr.Compile(op.Path)
	var dfa *pathexpr.DFA
	if c.e.opts.Fingerprints {
		dfa = pathexpr.NewDFA(nfa, c.e.intern)
	}
	parent, out := op.Parent, op.Out
	return func() (bcursor, error) {
		cur, err := in()
		if err != nil {
			return nil, err
		}
		return &expandBCursor{in: cur, out: out, mk: func(b *binding) (list, error) {
			pv, err := b.node(parent)
			if err != nil {
				return nil, err
			}
			return matchList(nfa, dfa, pv), nil
		}}, nil
	}, nil
}

func (c *compiler) compileBSelect(op *algebra.Select) (bbuilder, error) {
	if c.e.opts.NativeSelect {
		if lm, ok := op.Cond.(*algebra.LabelMatch); ok {
			if gd, ok := op.Input.(*algebra.GetDescendants); ok &&
				gd.Out == lm.Var && gd.Path.String() == "_" {
				return c.compileBFusedLabelScan(gd, lm.Label)
			}
		}
	}
	in, err := c.compileB(op.Input)
	if err != nil {
		return nil, err
	}
	cond := op.Cond
	return func() (bcursor, error) {
		cur, err := in()
		if err != nil {
			return nil, err
		}
		return &filterBCursor{in: cur, pred: func(b *binding) (bool, error) {
			return cond.Eval(b)
		}}, nil
	}, nil
}

func (c *compiler) compileBFusedLabelScan(gd *algebra.GetDescendants, label string) (bbuilder, error) {
	in, err := c.compileB(gd.Input)
	if err != nil {
		return nil, err
	}
	parent, out, match := gd.Parent, gd.Out, labelIs(label)
	return func() (bcursor, error) {
		cur, err := in()
		if err != nil {
			return nil, err
		}
		return &expandBCursor{in: cur, out: out, mk: func(b *binding) (list, error) {
			pv, err := b.node(parent)
			if err != nil {
				return nil, err
			}
			return fusedScanList(pv, label, match), nil
		}}, nil
	}, nil
}

func (c *compiler) compileBOrderBy(op *algebra.OrderBy) (bbuilder, error) {
	in, err := c.compileB(op.Input)
	if err != nil {
		return nil, err
	}
	keys, batch := op.Keys, c.batch
	return func() (bcursor, error) {
		cur, err := in()
		if err != nil {
			return nil, err
		}
		return &sortBCursor{in: cur, keys: keys, batch: batch}, nil
	}, nil
}

func (c *compiler) compileBChain(l, r algebra.Op) (bbuilder, error) {
	lb, err := c.compileB(l)
	if err != nil {
		return nil, err
	}
	rb, err := c.compileB(r)
	if err != nil {
		return nil, err
	}
	return func() (bcursor, error) {
		lc, err := lb()
		if err != nil {
			return nil, err
		}
		return &chainBCursor{cur: lc, rest: []bbuilder{rb}}, nil
	}, nil
}

func (c *compiler) compileBDifference(op *algebra.Difference) (bbuilder, error) {
	lb, err := c.compileB(op.Left)
	if err != nil {
		return nil, err
	}
	rb, err := c.compileB(op.Right)
	if err != nil {
		return nil, err
	}
	vars := op.Left.OutVars()
	ks, batch := c.ks, c.batch
	return func() (bcursor, error) {
		lc, err := lb()
		if err != nil {
			return nil, err
		}
		return &diffBCursor{in: lc, right: rb, ks: ks, vars: vars,
			ck: strings.Join(vars, "\x01"), batch: batch}, nil
	}, nil
}

func (c *compiler) compileBDistinct(op *algebra.Distinct) (bbuilder, error) {
	in, err := c.compileB(op.Input)
	if err != nil {
		return nil, err
	}
	vars := op.Input.OutVars()
	ks := c.ks
	return func() (bcursor, error) {
		cur, err := in()
		if err != nil {
			return nil, err
		}
		return &distinctBCursor{in: cur, ks: ks, vars: vars,
			ck: strings.Join(vars, "\x01"), seen: map[string]bool{}}, nil
	}, nil
}

// fusedScanList builds the fused σ_label child scan for one parent
// value (shared with the scalar compileFusedLabelScan): native
// select(σ) jumps when the parent is source-backed, a plain child scan
// filtered by match (labelIs(label), built once per operator) otherwise.
func fusedScanList(pv Node, label string, match func(Node) (bool, error)) list {
	sb, ok := asSourceBacked(pv)
	if !ok {
		return filterSeq[Node]{in: childrenOf(pv), pred: match}
	}
	doc, id := sb.source()
	// Probe the select capability once per scan (it is invariant over
	// the document), not once per hop.
	sel, _ := nav.SelectorOf(doc)
	return selectScanList{doc: doc, sel: sel, parent: id, label: label, started: false}
}

// sortBindings materializes the order keys of all bindings and sorts
// stably (shared by scalar compileOrderBy and sortBCursor).
func sortBindings(all []*binding, keys []string) ([]*binding, error) {
	type keyed struct {
		b *binding
		k []string
	}
	rows := make([]keyed, len(all))
	for i, b := range all {
		ks := make([]string, len(keys))
		for j, kv := range keys {
			t, err := b.Value(kv)
			if err != nil {
				return nil, err
			}
			ks[j] = valueAtom(t)
		}
		rows[i] = keyed{b: b, k: ks}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		for x := range keys {
			if c := algebra.Compare(rows[i].k[x], rows[j].k[x]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	out := make([]*binding, len(rows))
	for i, r := range rows {
		out[i] = r.b
	}
	return out, nil
}

// keySeen builds the membership set of the operator keys of all
// bindings (the difference right side; shared with compileDifference).
func keySeen(all []*binding, ks *keyspace, vars []string) (map[string]bool, error) {
	ck := strings.Join(vars, "\x01")
	seen := make(map[string]bool, len(all))
	for _, b := range all {
		k, err := b.keyCached(ck, ks, vars)
		if err != nil {
			return nil, err
		}
		seen[k] = true
	}
	return seen, nil
}
