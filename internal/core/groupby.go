package core

import (
	"strings"

	"mix/internal/algebra"
	"mix/internal/xmltree"
)

// compileGroupBy implements the lazy groupBy mediator of Appendix A
// (Fig. 10). Navigating right among the output groups scans the input
// for the next binding whose group-by list has not been seen (the
// paper's nextgb over Gprev); navigating right among a group's values
// scans the input for the next binding with the same group-by list (the
// paper's next(pb, pg)). With GroupCache the input scan and the grouped
// value lists are memoized, the optimization the appendix describes.
func (c *compiler) compileGroupBy(op *algebra.GroupBy) (builder, error) {
	in, err := c.compile(op.Input)
	if err != nil {
		return nil, err
	}
	by, varName, out := op.By, op.Var, op.Out
	cache := c.e.opts.GroupCache
	ks := c.ks
	return func() (stream, error) {
		input := deferSeq(in)
		if cache {
			input = memoize(input)
		}
		value := valueOf(varName)
		if len(by) == 0 {
			// Grouping by {} yields exactly one output binding — even
			// for empty input ("create one answer element for each
			// {}") — and it is produced without touching the input:
			// the grouped list is lazy. This is what lets the mediator
			// answer f on the answer root with zero source accesses.
			values := mapSeq[*binding, Node]{in: input, fn: value}
			b := newBinding().with(out, NewElem(xmltree.ListLabel, maybeMemo(values, cache)))
			return singleton(b), nil
		}
		return groupsStream{in: input, g: &groupScan{ks: ks, by: by, value: value,
			out: out, cache: cache, first: firstSeen{}}}, nil
	}, nil
}

func maybeMemo(l list, cache bool) list {
	if cache {
		return memoize(l)
	}
	return l
}

// valueOf returns the kernel reading varName's lazy value off a
// binding: mapped over a binding stream, it renders a group's values
// as the contents of a list[…] value.
func valueOf(varName string) func(*binding) (Node, error) {
	return func(b *binding) (Node, error) { return b.node(varName) }
}

// groupsStream emits one output binding per distinct group-by list, in
// order of first occurrence; pos is the input ordinal of in's head.
type groupsStream struct {
	in  stream
	pos int
	g   *groupScan
}

// groupScan is the state all positions of one groupsStream share; first
// is the paper's Gprev.
type groupScan struct {
	ks    *keyspace
	by    []string
	value func(*binding) (Node, error)
	out   string
	cache bool
	first firstSeen
}

func (gs groupsStream) next() (*binding, stream, error) {
	g, in, pos := gs.g, gs.in, gs.pos
	for {
		b, t, err := in.next()
		if err != nil || b == nil {
			return nil, nil, err
		}
		k, err := b.key(g.ks, g.by)
		if err != nil {
			return nil, nil, err
		}
		first := g.first.isFirst(k, pos)
		pos++
		if !first {
			in = t
			continue
		}
		// New group: its member list starts here and continues through
		// the remainder of the input with the same group-by list.
		members := filterSeq[*binding]{in: consSeq[*binding]{head: b, tail: t},
			pred: sameKeyPred(g.ks, g.by, k)}
		values := mapSeq[*binding, Node]{in: members, fn: g.value}
		// The output binding keeps the group-by variables (sharing the
		// group head's links, and therefore its memoized values) and
		// adds the lazy grouped list.
		ob := b.project(g.by).with(g.out, NewElem(xmltree.ListLabel, maybeMemo(values, g.cache)))
		return ob, groupsStream{in: t, pos: pos, g: g}, nil
	}
}

func sameKeyPred(ks *keyspace, by []string, key string) func(*binding) (bool, error) {
	return func(b *binding) (bool, error) {
		k, err := b.key(ks, by)
		if err != nil {
			return false, err
		}
		return k == key, nil
	}
}

// compileBGroupBy is the batch-mode groupBy. The input flows once into
// a shared batchLog, keyed once per position by a groupIndex; the group
// scan and every group's member list are positions into that index, so
// the grouped value lists stay lazy (and memoized — GroupCache is
// implied by batch mode) while ingest happens a batch at a time.
func (c *compiler) compileBGroupBy(op *algebra.GroupBy) (bbuilder, error) {
	in, err := c.compileB(op.Input)
	if err != nil {
		return nil, err
	}
	by, varName, out := op.By, op.Var, op.Out
	ks := c.ks
	return func() (bcursor, error) {
		input := &lazyLog{in: in}
		if len(by) == 0 {
			// Grouping by {} yields exactly one output binding without
			// touching the input — the grouped list is lazy, so the
			// mediator answers f on the answer root with zero source
			// accesses, exactly like the scalar {} grouping.
			values := memoize[Node](logValueList{in: input, varName: varName})
			b := newBinding().with(out, NewElem(xmltree.ListLabel, values))
			return &sliceBCursor{buf: []*binding{b}}, nil
		}
		ix := &groupIndex{ks: ks, by: by, ck: strings.Join(by, "\x01"), tail: map[string]int{}}
		return &groupsBCursor{in: input, ix: ix, varName: varName, out: out}, nil
	}, nil
}

// logValueList renders the varName values of a logged input as a lazy
// node list, deriving the input only when first stepped.
type logValueList struct {
	in      *lazyLog
	varName string
	pos     int
}

func (v logValueList) next() (Node, list, error) {
	log, err := v.in.get()
	if err != nil {
		return nil, nil, err
	}
	b, err := log.at(v.pos, 1)
	if err != nil {
		return nil, nil, err
	}
	if b == nil {
		return nil, nil, nil
	}
	n, err := b.node(v.varName)
	if err != nil {
		return nil, nil, err
	}
	return n, logValueList{in: v.in, varName: v.varName, pos: v.pos + 1}, nil
}

// groupIndex keys a batch groupBy's input log, each position once and
// in log order, so the keyed positions are always a prefix of the log
// (keying materializes the group-by values, and that order is what the
// navigation counts see). Each keyed position records whether it heads
// its group and the next keyed position with the same key: the
// successor chain a member list steps along, instead of re-keying the
// log from its group head.
type groupIndex struct {
	log   *batchLog // set by the group scan's first pull
	ks    *keyspace
	by    []string
	ck    string
	keyed []groupPos
	tail  map[string]int // key → its last keyed position
}

type groupPos struct {
	head bool
	next int // next keyed position with the same key; 0 = none yet
}

// extend keys the first unkeyed position, growing the log with a
// want-sized pull if it has run out. It reports false at the end of
// the input, with the log's memoized error or a keying error; a failed
// keying is retried by the next call.
func (ix *groupIndex) extend(want int) (bool, error) {
	i := len(ix.keyed)
	b, err := ix.log.at(i, want)
	if b == nil {
		return false, err
	}
	k, err := b.keyCached(ix.ck, ix.ks, ix.by)
	if err != nil {
		return false, err
	}
	last, seen := ix.tail[k]
	if seen {
		ix.keyed[last].next = i
	}
	ix.tail[k] = i
	ix.keyed = append(ix.keyed, groupPos{head: !seen})
	return true, nil
}

// groupsBCursor emits one output binding per distinct group-by list, in
// order of first occurrence, extending the shared index a batch per
// call.
type groupsBCursor struct {
	in      *lazyLog
	ix      *groupIndex
	varName string
	out     string
	pos     int
	obuf    []*binding
	err     error
}

func (g *groupsBCursor) bnext(want int) ([]*binding, error) {
	if g.err != nil {
		return nil, g.err
	}
	g.obuf = g.obuf[:0]
	want = clampWant(want)
	fail := func(err error) ([]*binding, error) {
		g.err = err
		if len(g.obuf) > 0 {
			return g.obuf, nil
		}
		return nil, err
	}
	if g.ix.log == nil {
		log, err := g.in.get()
		if err != nil {
			return fail(err)
		}
		g.ix.log = log
	}
	for len(g.obuf) < want {
		if g.pos == len(g.ix.keyed) {
			ok, err := g.ix.extend(want)
			if err != nil {
				return fail(err)
			}
			if !ok {
				break
			}
		}
		head := g.pos
		g.pos++
		if !g.ix.keyed[head].head {
			continue
		}
		// New group: its member list starts at the group head and
		// follows the head's successor chain. The output binding keeps
		// the group-by variables (sharing the head's links and memoized
		// values) plus the lazy grouped list.
		b := g.ix.log.buf[head]
		values := memoize[Node](memberList{ix: g.ix, pos: head, head: true, varName: g.varName})
		g.obuf = append(g.obuf,
			b.project(g.ix.by).with(g.out, NewElem(xmltree.ListLabel, values)))
	}
	if len(g.obuf) > 0 {
		return g.obuf, nil
	}
	return nil, nil
}

// memberList is one group's lazy value list: the varName values of the
// positions on its key's successor chain. pos is the group head, not
// yet emitted, when head is set, else the last member emitted; the
// successor is found on pull, keying positions only past the keyed
// prefix.
type memberList struct {
	ix      *groupIndex
	pos     int
	head    bool
	varName string
}

func (m memberList) next() (Node, list, error) {
	pos := m.pos
	if !m.head {
		for m.ix.keyed[pos].next == 0 {
			ok, err := m.ix.extend(1)
			if !ok {
				return nil, nil, err
			}
		}
		pos = m.ix.keyed[pos].next
	}
	n, err := m.ix.log.buf[pos].node(m.varName)
	if err != nil {
		return nil, nil, err
	}
	return n, memberList{ix: m.ix, pos: pos, varName: m.varName}, nil
}
