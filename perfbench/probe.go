package main

import (
	"sync/atomic"
	"time"

	"mix/internal/lxp"
	"mix/internal/xmltree"
)

// probe holds the counters the traced run installs at public seams:
// the VXDP client connections, the lxp.Server handed to
// mediator.RegisterLXP (demand and speculative engines apart), the
// lxp.TreeServer behind each source, and the LXP client connections.
// Untraced stacks carry no probe and no wrappers.
type probe struct {
	vxdpBytes atomic.Int64
	lxpBytes  atomic.Int64
	demandLXP lxpTimes
	specLXP   lxpTimes
	serveLXP  lxpTimes
}

// lxpTimes accumulates calls, messages, holes and time at one LXP seam.
type lxpTimes struct {
	ns    atomic.Int64
	msgs  atomic.Int64 // GetRoot, Fill and FillMany calls: one message each
	holes atomic.Int64 // holes filled
}

type lxpSnapshot struct{ ns, msgs, holes int64 }

func (t *lxpTimes) snapshot() lxpSnapshot {
	return lxpSnapshot{ns: t.ns.Load(), msgs: t.msgs.Load(), holes: t.holes.Load()}
}

func (a lxpSnapshot) sub(b lxpSnapshot) lxpSnapshot {
	return lxpSnapshot{ns: a.ns - b.ns, msgs: a.msgs - b.msgs, holes: a.holes - b.holes}
}

// timedLXP times and counts every call into an lxp.Server. It keeps
// batching intact: FillMany goes through lxp.FillMany, which uses the
// inner server's batch path when it has one.
type timedLXP struct {
	inner lxp.Server
	t     *lxpTimes
}

func (s *timedLXP) done(start time.Time, holes int) {
	s.t.ns.Add(int64(time.Since(start)))
	s.t.msgs.Add(1)
	s.t.holes.Add(int64(holes))
}

func (s *timedLXP) GetRoot(uri string) (string, error) {
	defer s.done(time.Now(), 0)
	return s.inner.GetRoot(uri)
}

func (s *timedLXP) Fill(holeID string) ([]*xmltree.Tree, error) {
	defer s.done(time.Now(), 1)
	return s.inner.Fill(holeID)
}

func (s *timedLXP) FillMany(holeIDs []string) (map[string][]*xmltree.Tree, error) {
	defer s.done(time.Now(), len(holeIDs))
	return lxp.FillMany(s.inner, holeIDs)
}
