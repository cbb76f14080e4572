package core

import (
	"mix/internal/nav"
	"mix/internal/xmltree"
)

// Options control the operator-local caches, the navigation command
// set, and the execution style, mirroring the knobs the paper
// discusses:
//
//   - JoinCache — the nested-loops join stores the inner binding list
//     so it is not re-derived from the source for every outer binding
//     (Section 3). Disabling it is the E6 ablation.
//   - PathCache — getDescendants memoizes its output, so revisiting a
//     region of the answer does not re-run the (possibly recursive)
//     descent (Section 3). Disabling it is the E7 ablation.
//   - GroupCache — groupBy caches the grouped value lists for the
//     group-by lists in Gprev (Appendix A). Disabling it is E9.
//   - NativeSelect — the select(σ) command is part of NC and pushed to
//     the sources, upgrading label selections from browsable to
//     bounded browsable (Section 2, Example 1). E3 toggles it.
//   - HashJoin — in the cached pipeline (see BatchSize), joins whose
//     condition implies a variable equality (Cond.EquiKeys) probe an
//     incrementally-built hash index over the inner stream instead of
//     scanning it per outer binding; the index grows only as far as
//     probing forces the inner stream, so laziness is preserved.
//     Non-equi conditions fall back to nested loops.
//   - Parallel — in the cached pipeline, joins whose two inputs read
//     disjoint source sets derive both inputs concurrently (bounded
//     worker pool, first error cancels the sibling). The inputs are
//     drained eagerly when the join is first pulled, trading input
//     laziness for wall-clock overlap of the sources' round trips; see
//     parallel.go.
//   - Fingerprints — equality-heavy operators (distinct, groupBy,
//     difference, hash-join buckets) key on memoized 128-bit structural
//     fingerprints instead of canonical subtree strings, and
//     getDescendants steps a lazily-determinized DFA instead of
//     recomputing NFA closures per label. Semantics are byte-identical:
//     fingerprint collisions fall back to full structural comparison
//     (see keyspace.go), and the DFA is observationally equivalent to
//     the NFA. Off reproduces the pre-fingerprint behavior exactly.
//   - BatchSize — the width of the operator pipeline: operators
//     exchange slices of up to BatchSize bindings per call (see
//     batch.go); values below 1 mean 1, one binding per pull. The lazy
//     navigation contract lives at the answer-document boundary, where
//     the batch-to-scalar adapter pulls single bindings on client
//     demand, so answers, client commands, and per-source navigation
//     counts are byte-identical at every width; whole-batch execution
//     kicks in on full drains (Materialize, orderBy and difference
//     inputs, parallel derivation). The width never selects a pipeline.
//     The three operator caches do: with all of them on, a plan
//     compiles to the batch pipeline; with any of them off, it compiles
//     to the scalar binding-at-a-time evaluator, whose per-outer
//     re-derivation is what the E6/E7/E9 ablations measure. There, a
//     join runs the paper's nested loops serially, whatever HashJoin
//     and Parallel say.
//   - SemanticCache — with a region cache installed, a named query whose
//     plan is *subsumed* by another cached plan (same view, weaker
//     σ-conditions / wider paths: see algebra.Analyze and DESIGN.md §14)
//     is answered by filtering the subsuming plan's fully-explored
//     region locally, with zero source navigations. Off restricts the
//     region cache to exact fingerprint matches (the E18 ablation).
type Options struct {
	JoinCache     bool
	PathCache     bool
	GroupCache    bool
	NativeSelect  bool
	HashJoin      bool
	Parallel      bool
	Fingerprints  bool
	SemanticCache bool
	BatchSize     int
}

// DefaultBatchSize is the batch width DefaultOptions enables: large
// enough to amortize per-call interpretation on warm drains, small
// enough that a pooled batch stays within a few cache lines of binding
// pointers.
const DefaultBatchSize = 64

// DefaultOptions enables all caches, the hash equi-join, the
// fingerprint fast paths, and batch-at-a-time execution, and leaves
// NC = {d, r, f}. Parallel input derivation is opt-in: it trades the
// lazy "explore only what the client demands" contract for latency
// overlap, which only pays off on high-latency sources.
func DefaultOptions() Options {
	return Options{JoinCache: true, PathCache: true, GroupCache: true,
		HashJoin: true, Fingerprints: true, SemanticCache: true, BatchSize: DefaultBatchSize}
}

// batchMode reports whether the batch pipeline serves this
// configuration: every operator cache on. An ablated cache implies
// per-outer re-derivation, which is the scalar evaluator's contract.
func (o Options) batchMode() bool {
	return o.JoinCache && o.PathCache && o.GroupCache
}

// Option configures an Engine under construction (see New).
type Option func(*Options)

// WithOptions replaces the whole option set, for callers that computed
// an Options value (ablation sweeps, config structs). A zero Options
// disables every cache and fast path — the paper's fully naive
// evaluator — exactly like the pre-options literal did.
func WithOptions(o Options) Option { return func(dst *Options) { *dst = o } }

// New returns an Engine configured by the given options, applied over
// DefaultOptions. New() is the all-defaults engine; New(WithOptions(o))
// adopts a computed Options value wholesale.
func New(opts ...Option) *Engine {
	o := DefaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	return &Engine{opts: o, reg: map[string]nav.Document{}, intern: xmltree.NewInterner()}
}
