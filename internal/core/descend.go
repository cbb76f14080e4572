package core

import (
	"mix/internal/nav"
	"mix/internal/pathexpr"
)

// automaton is what the getDescendants walk steps: the path NFA, or
// the lazily-determinized DFA built from it under Options.Fingerprints,
// which is observationally equivalent but steps through memoized
// transitions and carries an int state id instead of a state set.
type automaton[S any] interface {
	Step(S, string) S
	Alive(S) bool
	Accepting(S) bool
}

// matchList builds the lazy descendant-match list for one parent value:
// in document order, the descendants reachable through paths the
// automaton accepts. Building it navigates nothing; the parent is
// resolved (and a *lazyNode forced) on the first pull.
func matchList(nfa *pathexpr.NFA, dfa *pathexpr.DFA, pv Node) list {
	if dfa != nil {
		return descent[*pathexpr.DFA, int]{a: dfa, parent: pv, state: dfa.Start()}
	}
	return descent[*pathexpr.NFA, pathexpr.StateSet]{a: nfa, parent: pv, state: nfa.Start()}
}

// descent is an unstarted walk: the parent whose children are the first
// level, and the automaton state before their labels.
type descent[A automaton[S], S any] struct {
	a      A
	parent Node
	state  S
}

func (d descent[A, S]) next() (Node, list, error) {
	lv, err := openLevel(d.a, d.parent, d.state)
	if err != nil {
		return nil, nil, err
	}
	return walk(lv)
}

// level is one immutable frame of a walk's stack: the position of the
// next sibling to visit under one open ancestor, the automaton state
// before that sibling's label, and the frame to resume once the
// ancestor's children are exhausted. A published *level is itself the
// remainder list, so pulling it twice replays the same commands.
//
// Source-backed levels (doc non-nil) step nav.IDs directly — Down(id)
// when first, else Right(id), then Fetch — the command sequence the
// srcNode/srcAfter cursors would issue, without boxing a cursor or a
// Node per child. Constructed levels step their kids list.
type level[A automaton[S], S any] struct {
	a     A
	up    *level[A, S]
	state S
	doc   nav.Document
	id    nav.ID
	first bool
	kids  list
}

func (lv *level[A, S]) next() (Node, list, error) { return walk(*lv) }

// openLevel opens the children of v as a level entered in state. A
// *lazyNode is forced here; Children itself navigates nothing.
func openLevel[A automaton[S], S any](a A, v Node, state S) (level[A, S], error) {
	for {
		switch n := v.(type) {
		case srcNode:
			return level[A, S]{a: a, state: state, doc: n.doc, id: n.id, first: true}, nil
		case *lazyNode:
			var err error
			if v, err = n.force(); err != nil {
				return level[A, S]{}, err
			}
		default:
			return level[A, S]{a: a, state: state, kids: v.Children()}, nil
		}
	}
}

// walk pulls the next match from the stack topped by cur. It works on
// value copies: cur and the continuations of the ancestors it entered
// during this pull (pending, bottom first) are private until a match is
// found, so pruned siblings and exhausted levels allocate nothing. A
// match publishes pending, cur and the matched node's own child level
// as one chunk, linked above the published frames they resume into —
// a constant number of allocations per match, whatever the depth.
func walk[A automaton[S], S any](cur level[A, S]) (Node, list, error) {
	var buf [4]level[A, S]
	pending := buf[:0]
	a := cur.a
	for {
		var c Node // the sibling, when cur is a constructed level
		var id nav.ID
		var label string
		var err error
		if cur.doc != nil {
			if cur.first {
				id, err = cur.doc.Down(cur.id)
			} else {
				id, err = cur.doc.Right(cur.id)
			}
			if err == nil && id != nil {
				cur.id, cur.first = id, false
				label, err = cur.doc.Fetch(id)
			}
		} else {
			var rest list
			c, rest, err = cur.kids.next()
			if err == nil && rest != nil {
				cur.kids = rest
				label, err = c.Label()
			} else {
				c = nil
			}
		}
		if err != nil {
			return nil, nil, err
		}
		if id == nil && c == nil {
			// cur is exhausted: resume its ancestor.
			switch {
			case len(pending) > 0:
				cur, pending = pending[len(pending)-1], pending[:len(pending)-1]
			case cur.up != nil:
				cur = *cur.up
			default:
				return nil, nil, nil
			}
			continue
		}
		st := a.Step(cur.state, label)
		if !a.Alive(st) {
			continue // pruned: cur already stands past the sibling
		}
		var child level[A, S]
		if c == nil {
			child = level[A, S]{a: a, state: st, doc: cur.doc, id: id, first: true}
		} else if child, err = openLevel(a, c, st); err != nil {
			return nil, nil, err
		}
		pending = append(pending, cur)
		if a.Accepting(st) {
			if c == nil {
				c = srcNode{doc: cur.doc, id: id}
			}
			return c, publish(pending, child), nil
		}
		cur = child
	}
}

// publish copies the private frames pending and top into one heap
// chunk, links each to the one below it, and returns the top. The
// bottom pending frame keeps its own up: the published frame it
// resumes into.
func publish[A automaton[S], S any](pending []level[A, S], top level[A, S]) *level[A, S] {
	chunk := make([]level[A, S], len(pending)+1)
	copy(chunk, pending)
	chunk[len(pending)] = top
	for i := 1; i < len(chunk); i++ {
		chunk[i].up = &chunk[i-1]
	}
	return &chunk[len(chunk)-1]
}
