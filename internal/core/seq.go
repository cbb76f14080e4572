package core

// seq is the engine's one lazy list: a persistent, pull-driven sequence.
// next returns the head and the remainder; a nil remainder signals
// exhaustion (the head is then the zero value). Implementations must be
// persistent: calling next repeatedly on the same seq value yields the
// same (observational) result, so multiple consumers can hold
// independent positions — the paper's "client navigation may proceed
// from multiple nodes" requirement.
//
// The paper lifts every operator to lists of bindings encoded as
// bs[b[…]…] trees (Section 3, Fig. 4), so a binding list and a node
// list are the same structure: the engine instantiates seq twice, as
// list (seq[Node], node.go) and stream (seq[*binding], stream.go), and
// every combinator below serves both.
type seq[T any] interface {
	next() (T, seq[T], error)
}

// emptySeq is the exhausted sequence.
type emptySeq[T any] struct{}

func (emptySeq[T]) next() (T, seq[T], error) {
	var zero T
	return zero, nil, nil
}

// consSeq prepends head to tail.
type consSeq[T any] struct {
	head T
	tail seq[T]
}

func (c consSeq[T]) next() (T, seq[T], error) { return c.head, c.tail, nil }

// singleton returns a sequence holding exactly v.
func singleton[T any](v T) seq[T] { return consSeq[T]{head: v, tail: emptySeq[T]{}} }

// thunkSeq defers sequence construction until first pull. It is NOT
// memoized: pulling twice recomputes (and re-navigates). Wrap it with
// memoize for cached semantics.
type thunkSeq[T any] func() (T, seq[T], error)

func (t thunkSeq[T]) next() (T, seq[T], error) { return t() }

// deferSeq wraps a sequence constructor so that construction itself
// (which may navigate) happens on first pull.
func deferSeq[T any](f func() (seq[T], error)) seq[T] {
	return thunkSeq[T](func() (T, seq[T], error) {
		s, err := f()
		if err != nil {
			var zero T
			return zero, nil, err
		}
		return s.next()
	})
}

// memoSeq caches the result of a single next() call, giving every
// consumer the same cheap replay. This is the mechanism behind the
// paper's operator caches (join inner list, groupBy's Gprev lists,
// recursive getDescendants) and keeps repeated navigation over one
// region from re-navigating sources.
type memoSeq[T any] struct {
	inner seq[T]

	forced bool
	head   T
	tail   seq[T]
	err    error
}

func (m *memoSeq[T]) next() (T, seq[T], error) {
	if !m.forced {
		h, t, err := m.inner.next()
		m.head, m.err = h, err
		if t != nil {
			m.tail = &memoSeq[T]{inner: t}
		}
		m.forced = true
		m.inner = nil
	}
	return m.head, m.tail, m.err
}

// memoize wraps s so every position is cached after first pull.
func memoize[T any](s seq[T]) seq[T] {
	if _, ok := s.(*memoSeq[T]); ok {
		return s
	}
	return &memoSeq[T]{inner: s}
}

// concatSeq yields all of a, then all of b.
type concatSeq[T any] struct{ a, b seq[T] }

func (c concatSeq[T]) next() (T, seq[T], error) {
	h, t, err := c.a.next()
	if err != nil {
		var zero T
		return zero, nil, err
	}
	if t == nil {
		return c.b.next()
	}
	return h, concatSeq[T]{a: t, b: c.b}, nil
}

// filterSeq keeps the elements satisfying pred.
type filterSeq[T any] struct {
	in   seq[T]
	pred func(T) (bool, error)
}

func (f filterSeq[T]) next() (T, seq[T], error) {
	var zero T
	in := f.in
	for {
		h, t, err := in.next()
		if err != nil || t == nil {
			return zero, nil, err
		}
		ok, err := f.pred(h)
		if err != nil {
			return zero, nil, err
		}
		if ok {
			return h, filterSeq[T]{in: t, pred: f.pred}, nil
		}
		in = t
	}
}

// mapSeq transforms each element.
type mapSeq[A, B any] struct {
	in seq[A]
	fn func(A) (B, error)
}

func (m mapSeq[A, B]) next() (B, seq[B], error) {
	var zero B
	h, t, err := m.in.next()
	if err != nil || t == nil {
		return zero, nil, err
	}
	v, err := m.fn(h)
	if err != nil {
		return zero, nil, err
	}
	return v, mapSeq[A, B]{in: t, fn: m.fn}, nil
}

// flatMapSeq expands each input element into a sub-sequence and
// concatenates the results lazily (the shape of getDescendants and the
// nested-loops join outer loop).
type flatMapSeq[A, B any] struct {
	in  seq[A]
	fn  func(A) (seq[B], error)
	cur seq[B] // remainder of the current expansion, nil when none
}

func (f flatMapSeq[A, B]) next() (B, seq[B], error) {
	var zero B
	cur, in := f.cur, f.in
	for {
		if cur != nil {
			h, t, err := cur.next()
			if err != nil {
				return zero, nil, err
			}
			if t != nil {
				return h, flatMapSeq[A, B]{in: in, fn: f.fn, cur: t}, nil
			}
			cur = nil
		}
		h, t, err := in.next()
		if err != nil || t == nil {
			return zero, nil, err
		}
		sub, err := f.fn(h)
		if err != nil {
			return zero, nil, err
		}
		cur, in = sub, t
	}
}

// sliceSeq replays a drained slice.
type sliceSeq[T any] []T

func (s sliceSeq[T]) next() (T, seq[T], error) {
	if len(s) == 0 {
		var zero T
		return zero, nil, nil
	}
	return s[0], s[1:], nil
}

// drain pulls the whole sequence into a slice (used by the blocking
// operators orderBy and difference, and by tests).
func drain[T any](s seq[T]) ([]T, error) {
	var out []T
	for {
		h, t, err := s.next()
		if err != nil {
			return nil, err
		}
		if t == nil {
			return out, nil
		}
		out = append(out, h)
		s = t
	}
}
