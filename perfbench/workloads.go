package main

import (
	"fmt"
	"math"

	"mix/internal/workload"
)

// Data sizes of the running example (Fig. 3/4), as in examples/homeschools.
const (
	nHomes   = 2000
	nSchools = 2000
	nZips    = 200
)

// Source names the views use; the LXP servers serve them under lxpURI.
const (
	homesSrc   = "homesSrc"
	schoolsSrc = "schoolsSrc"
	lxpURI     = "doc"
)

// joinView is the paper's running example: homes joined with the
// schools of their zip code, one med_home per home.
const joinView = `CONSTRUCT <answer> <med_home> $H $S {$S} </med_home> {$H} </answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
AND schoolsSrc schools.school $S AND $S zip._ $V2
AND $V1 = $V2`

// homesList is the unrestricted homes list; every price-restricted
// homes view is contained in it, so once a client explored it
// completely the semantic tier can answer them.
const homesList = `CONSTRUCT <homes> $H {$H} </homes> {} WHERE homesSrc homes.home $H`

// priceBound appends the restriction $H price._ $P AND $P < "bound".
// Prices are six-digit strings, so the string order is the numeric one.
func priceBound(view string, bound int) string {
	return fmt.Sprintf("%s AND $H price._ $P AND $P < \"%06d\"", view, bound)
}

// Workload parameters.
const (
	glanceRegions = 8  // join-cold: regions a glance skims
	browseRegions = 16 // browse-warm and update-churn: regions a persona script spans
	scriptPool    = 8  // distinct script seeds per persona
	warmupCount   = 8  // untimed sessions replayed before the timed window
	churnPeriod   = 25 // update-churn: sessions between two invalidations (K)
	fixedViews    = 3  // price-restricted homes views of browse-warm and update-churn
)

var personas = []string{"deep-drill", "glance", "select-heavy"}

// spec is one named workload (BENCHMARK.json says why each exists).
type spec struct {
	name string
	// invalidateEvery is K: the client that finished session i sends
	// invalidate(gen+1) when (i+1) % K == 0 (0 = never).
	invalidateEvery int
	// fullWarmup makes the warm-up explore the homes list completely,
	// so complete-superset (semantic) answers are possible.
	fullWarmup bool
}

var specs = []spec{
	// join-cold: glances over the join view, each with its own price
	// bound, so every open is a new plan.
	{name: "join-cold"},
	// browse-warm: the homes list and three price-restricted homes
	// views, reused by every persona.
	{name: "browse-warm", fullWarmup: true},
	// update-churn: browse-warm, plus an invalidation every churnPeriod
	// sessions.
	{name: "update-churn", fullWarmup: true, invalidateEvery: churnPeriod},
}

func lookupSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// session is one client session of the queue: open query, then replay
// script (or, for a whole-document warm-up, explore the answer fully).
type session struct {
	query  string
	script []workload.Step
	// pair names the (query, script) pair; sessions with equal pairs
	// must explore byte-identical parts.
	pair string
	// whole explores the complete answer instead of replaying a script.
	whole bool
}

// mix64 is SplitMix64: a stateless hash that derives every choice of
// session i from (seed, i), so the queue is the same in every run of a
// seed without being stored.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// queue generates a workload's sessions from its seed.
type queue struct {
	spec   spec
	seed   int64
	views  []string // browse-warm / update-churn
	offset float64  // join-cold: seeded start of the bound sequence
}

func newQueue(sp spec, seed int64) *queue {
	q := &queue{spec: sp, seed: seed}
	h := mix64(uint64(seed))
	q.offset = float64(h>>11) / (1 << 53)
	switch sp.name {
	case "browse-warm", "update-churn":
		q.views = append(q.views, homesList)
		for j := 0; j < fixedViews; j++ {
			q.views = append(q.views, priceBound(homesList, q.fixedBound(j)))
		}
	}
	return q
}

// fixedBound is the j-th seeded price bound of the reused views: one
// per stratum of [300000, 900000), so every seed gets a similar spread
// of view sizes.
func (q *queue) fixedBound(j int) int {
	const lo, width = 300_000, 150_000
	jitter := int(mix64(uint64(q.seed)^uint64(j+1)*0x51) % 50_000)
	return lo + j*width + jitter
}

// at returns session i of the queue.
func (q *queue) at(i int) session {
	h := mix64(uint64(q.seed)*0x9e37 ^ mix64(uint64(i)))
	switch q.spec.name {
	case "join-cold":
		// A golden-ratio sequence spreads the bounds evenly over
		// [200000, 1000000) for every seed; consecutive sessions
		// differ, so every open is a new plan.
		_, frac := math.Modf(q.offset + float64(i)*0.6180339887498949)
		bound := 200_000 + int(frac*800_000)
		seed := int64(h % scriptPool)
		query := priceBound(joinView, bound)
		return session{
			query:  query,
			script: workload.GlanceScript(glanceRegions, seed),
			pair:   fmt.Sprintf("%d/glance/%d", bound, seed),
		}
	default:
		// Every block of len(views)*len(personas) sessions holds each
		// (view, persona) combination once, in a seeded order.
		block := len(q.views) * len(personas)
		combo := q.permuted(i/block, i%block, block)
		view, persona := combo%len(q.views), combo/len(q.views)
		seed := int64(h % scriptPool)
		return session{
			query:  q.views[view],
			script: workload.PersonaScript(personas[persona], browseRegions, seed),
			pair:   fmt.Sprintf("v%d/%s/%d", view, personas[persona], seed),
		}
	}
}

// permuted returns position k of a seeded permutation of [0, n) that
// differs per block (Fisher–Yates driven by mix64).
func (q *queue) permuted(blockIdx, k, n int) int {
	perm := make([]int, n)
	for j := range perm {
		perm[j] = j
	}
	h := mix64(uint64(q.seed) ^ mix64(uint64(blockIdx)+0x77))
	for j := n - 1; j > 0; j-- {
		h = mix64(h)
		r := int(h % uint64(j+1))
		perm[j], perm[r] = perm[r], perm[j]
	}
	return perm[k]
}

// warmupBase is the queue index of the first warm-up session: far past
// any timed session, so warm-up and timed sessions are disjoint but
// draw on the same views.
const warmupBase = 1 << 30

// warmup returns the untimed sessions replayed before the timed
// window: warmupCount sessions from the far end of the queue, preceded
// (for browse-warm and update-churn) by one complete exploration of the
// homes list.
func (q *queue) warmup() []session {
	var out []session
	if q.spec.fullWarmup {
		out = append(out, session{query: homesList, whole: true, pair: "whole"})
	}
	for i := 0; i < warmupCount; i++ {
		out = append(out, q.at(warmupBase+i))
	}
	return out
}
