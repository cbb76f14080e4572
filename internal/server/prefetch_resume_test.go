package server

// Spec-engine query resume (DESIGN.md §15.3), tested from inside the
// package: the query a spec engine parks is engine state no wire op
// exposes.

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"mix/internal/mediator"
	"mix/internal/metrics"
	"mix/internal/nav"
	"mix/internal/regioncache"
	"mix/internal/vxdp"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

const resumeQuery = `CONSTRUCT <homes> $H {$H} </homes> {} WHERE homesSrc homes.home $H`

// failingDoc fails every navigation while fail is set.
type failingDoc struct {
	nav.Document
	fail *atomic.Bool
}

var errInjected = errors.New("injected source failure")

func (d failingDoc) Down(p nav.ID) (nav.ID, error) {
	if d.fail.Load() {
		return nil, errInjected
	}
	return d.Document.Down(p)
}

func (d failingDoc) Right(p nav.ID) (nav.ID, error) {
	if d.fail.Load() {
		return nil, errInjected
	}
	return d.Document.Right(p)
}

func (d failingDoc) Fetch(p nav.ID) (string, error) {
	if d.fail.Load() {
		return "", errInjected
	}
	return d.Document.Fetch(p)
}

// resumeRig is a prefetch-enabled server (never serving: drains are
// spawned directly) whose spec sources are counted and can be made to
// fail, plus the successor-model key of resumeQuery.
type resumeRig struct {
	srv   *Server
	homes *xmltree.Tree
	spec  *metrics.Counters
	fail  *atomic.Bool
	key   regioncache.Key
}

func newResumeRig(t *testing.T) *resumeRig {
	t.Helper()
	homes, _ := workload.HomesSchools(8, 1, 4, 13)
	r := &resumeRig{homes: homes, spec: &metrics.Counters{}, fail: &atomic.Bool{}}
	factory := func(counters *metrics.Counters) Factory {
		return func(rc *regioncache.Cache) (*mediator.Mediator, error) {
			m := mediator.New(mediator.DefaultOptions())
			m.SetRegionCache(rc)
			m.RegisterSource("homesSrc", &nav.CountingDoc{
				Doc: failingDoc{Document: nav.NewTreeDoc(homes), fail: r.fail}, Counters: counters})
			return m, nil
		}
	}
	srv, err := New(factory(&metrics.Counters{}), WithRegionCache(regioncache.New(0)),
		WithPrefetch(true), WithSpecFactory(factory(r.spec)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	r.srv = srv
	r.key = r.currentKey(t)
	return r
}

// currentKey compiles resumeQuery on a fresh engine and returns its
// key under the cache's current generation.
func (r *resumeRig) currentKey(t *testing.T) regioncache.Key {
	t.Helper()
	m, err := r.srv.cfg.SpecFactory(r.srv.cache)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Query(resumeQuery)
	if err != nil {
		t.Fatal(err)
	}
	return res.RegionKey()
}

// drain runs one speculative drain to completion and returns the spec
// source navigations it issued.
func (r *resumeRig) drain(t *testing.T, k regioncache.Key, region int) int64 {
	t.Helper()
	before := r.spec.Navigations()
	if !r.srv.prefetch.spawn(k, resumeQuery, region, true) {
		t.Fatal("drain not spawned")
	}
	deadline := time.Now().Add(10 * time.Second)
	for r.srv.prefetch.inflight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("drain did not finish")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return r.spec.Navigations() - before
}

// parked snapshots the idle spec engines.
func (r *resumeRig) parked() []*specEngine {
	p := r.srv.prefetch
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Clone(p.pool)
}

// explore fully explores the subtree under p in document order.
func explore(doc nav.Document, p nav.ID) error {
	if _, err := doc.Fetch(p); err != nil {
		return err
	}
	c, err := doc.Down(p)
	for c != nil && err == nil {
		if err = explore(doc, c); err == nil {
			c, err = doc.Right(c)
		}
	}
	return err
}

// TestPrefetchResumesParkedQuery: two successive drains of one view key
// on one spec engine compile once, and the second re-derives no prefix —
// its spec source navigations are exactly what an already-positioned
// uncached engine pays to step to and explore that region alone.
func TestPrefetchResumesParkedQuery(t *testing.T) {
	r := newResumeRig(t)
	if r.drain(t, r.key, 1) == 0 {
		t.Fatal("first drain drove no source work")
	}
	first := r.parked()
	if len(first) != 1 || first[0].res == nil || first[0].key != r.key {
		t.Fatalf("after one drain: %d idle spec engines, want one with the view's query parked", len(first))
	}

	// Reference: an uncached engine that walked exactly what the first
	// drain walked, then steps to region 2 and explores it.
	counted := &metrics.Counters{}
	m := mediator.New(mediator.DefaultOptions())
	m.RegisterSource("homesSrc", &nav.CountingDoc{Doc: nav.NewTreeDoc(r.homes), Counters: counted})
	res, err := m.Query(resumeQuery)
	if err != nil {
		t.Fatal(err)
	}
	doc := res.Document()
	root, _ := doc.Root()
	cur, _ := doc.Down(root)
	cur, _ = doc.Right(cur)
	if err := explore(doc, cur); err != nil {
		t.Fatal(err)
	}
	before := counted.Navigations()
	if cur, err = doc.Right(cur); err != nil || cur == nil {
		t.Fatalf("no region 2: %v", err)
	}
	if err := explore(doc, cur); err != nil {
		t.Fatal(err)
	}
	want := counted.Navigations() - before

	if got := r.drain(t, r.key, 2); got != want {
		t.Fatalf("resumed drain of region 2 cost %d spec source navs, want %d (its own region only)", got, want)
	}
	second := r.parked()
	if len(second) != 1 || second[0].res != first[0].res {
		t.Fatal("second drain of the same view key compiled the query again")
	}
}

// TestPrefetchDropsParkedQuery: a drain error, a registry bump and a
// fleet invalidation each drop the parked query, and a drain for a
// stale key stays a silent no-op that leaves the parked query alone.
func TestPrefetchDropsParkedQuery(t *testing.T) {
	r := newResumeRig(t)
	r.drain(t, r.key, 0)
	parkedRes := r.parked()[0].res

	stale := r.key
	stale.Generation++
	if navs := r.drain(t, stale, 1); navs != 0 {
		t.Fatalf("stale-key drain navigated %d spec sources", navs)
	}
	if p := r.parked(); len(p) != 1 || p[0].res != parkedRes {
		t.Fatal("stale-key drain disturbed the parked query")
	}

	r.fail.Store(true)
	r.drain(t, r.key, 3)
	r.fail.Store(false)
	if p := r.parked(); len(p) != 1 || p[0].res != nil {
		t.Fatal("a failed drain left its query parked")
	}

	r.drain(t, r.key, 0)
	r.srv.BumpRegistry()
	if p := r.parked(); len(p) != 0 {
		t.Fatalf("BumpRegistry left %d spec engines parked", len(p))
	}

	r.key = r.currentKey(t)
	r.drain(t, r.key, 0)
	if p := r.parked(); len(p) != 1 || p[0].res == nil {
		t.Fatal("drain after the bump parked nothing")
	}
	r.srv.handleInvalidate(vxdp.Request{Gen: r.srv.cache.Generation() + 1})
	if p := r.parked(); len(p) != 0 {
		t.Fatalf("fleet invalidation left %d spec engines parked", len(p))
	}
}
