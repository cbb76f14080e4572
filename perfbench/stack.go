package main

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"sync/atomic"
	"time"

	"mix/internal/core"
	"mix/internal/lxp"
	"mix/internal/mediator"
	"mix/internal/metrics"
	"mix/internal/regioncache"
	"mix/internal/server"
	"mix/internal/vxdp"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

// mediatorOptions is mixd's engine configuration at its flag defaults
// (-hash-join, -fingerprints, -batch, -semantic-cache, -lxp-batch 8,
// -parallel-join=false).
func mediatorOptions() mediator.Options {
	o := mediator.DefaultOptions()
	o.Engine.HashJoin = true
	o.Engine.Parallel = false
	o.Engine.Fingerprints = true
	o.Engine.BatchSize = core.DefaultBatchSize
	o.Engine.SemanticCache = true
	o.LXPBatch = 8
	return o
}

// mixd's defaults for the knobs that matter here.
const (
	cacheBytes  = 64 << 20 // -cache-max-bytes
	lxpChunk    = 20       // lxpd -chunk
	lxpInline   = 64       // lxpd -inline
	maxSessions = 256      // -max-sessions
)

// source is one LXP source: lxpd's server side and the mediator side's
// shared client, wrapped as mixd wraps it.
type source struct {
	name     string
	addr     string
	tcp      *lxp.TCPServer
	done     chan error
	client   *lxp.Client
	counting *lxp.Counting
}

// stack is everything one run measures: two LXP sources on loopback and
// an in-process mixd server in front of them.
type stack struct {
	homes, schools *xmltree.Tree
	sources        []*source
	srv            *server.Server
	addr           string
	done           chan error
	probe          *probe // nil on untraced stacks
}

// boot generates the data from seed and starts the sources and mixd.
// With p non-nil it installs p's timing and counting wrappers at the
// LXP seams; otherwise the stack is exactly mixd's.
func boot(seed int64, p *probe) (*stack, error) {
	lxp.SetWireOptimizations(true) // mixd -wire-opt
	vxdp.SetPooledBuffers(true)
	st := &stack{probe: p}
	st.homes, st.schools = workload.HomesSchools(nHomes, nSchools, nZips, seed)
	for _, d := range []struct {
		name string
		tree *xmltree.Tree
	}{{homesSrc, st.homes}, {schoolsSrc, st.schools}} {
		src, err := startSource(d.name, d.tree, p)
		if err != nil {
			st.close()
			return nil, err
		}
		st.sources = append(st.sources, src)
	}

	counters := map[string]*metrics.Counters{}
	for _, src := range st.sources {
		counters[src.name] = src.counting.Counters
	}
	register := func(wrap func(lxp.Server) lxp.Server) server.Factory {
		mopts := mediatorOptions()
		return func(rc *regioncache.Cache) (*mediator.Mediator, error) {
			m := mediator.New(mopts)
			m.SetRegionCache(rc)
			for _, src := range st.sources {
				if _, err := m.RegisterLXP(src.name, wrap(src.counting), lxpURI); err != nil {
					return nil, fmt.Errorf("source %s: %w", src.name, err)
				}
			}
			return m, nil
		}
	}
	factory := register(func(s lxp.Server) lxp.Server { return s })
	opts := []server.Option{
		server.WithMaxSessions(maxSessions),
		server.WithIdleTimeout(2 * time.Minute),
		server.WithMaxLifetime(0),
		server.WithLogger(slog.New(slog.DiscardHandler)),
		server.WithTrace(false),
		server.WithSlowNav(server.DefaultSlowThreshold, 0),
		server.WithSourceCounters(counters),
		server.WithRegionCache(regioncache.New(cacheBytes)),
		server.WithPrefetch(true),
		server.WithPrefetchBudget(core.PrefetchBudget{MaxNavs: server.DefaultPrefetchNavs}),
		server.WithPrefetchConfidence(server.DefaultPrefetchConfidence),
	}
	if p != nil {
		// Demand and speculative engines register the same shared
		// clients in the same order; only the timing wrapper differs,
		// so speculation's LXP time is attributed separately.
		factory = register(func(s lxp.Server) lxp.Server { return &timedLXP{inner: s, t: &p.demandLXP} })
		opts = append(opts, server.WithSpecFactory(register(func(s lxp.Server) lxp.Server {
			return &timedLXP{inner: s, t: &p.specLXP}
		})))
	}
	srv, err := server.New(factory, opts...)
	if err != nil {
		st.close()
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	st.srv, st.addr, st.done = srv, l.Addr().String(), make(chan error, 1)
	go func() { st.done <- srv.Serve(l) }()
	return st, nil
}

// startSource serves tree over LXP on loopback with lxpd's defaults and
// dials the client mixd would hold for it (-src name=lxp://…).
func startSource(name string, tree *xmltree.Tree, p *probe) (*source, error) {
	var srv lxp.Server = &lxp.TreeServer{Tree: tree, Chunk: lxpChunk, InlineLimit: lxpInline}
	if p != nil {
		srv = &timedLXP{inner: srv, t: &p.serveLXP}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	src := &source{name: name, addr: l.Addr().String(), tcp: lxp.NewTCPServer(srv), done: make(chan error, 1)}
	go func() { src.done <- src.tcp.Serve(l) }()
	conn, err := net.Dial("tcp", src.addr)
	if err != nil {
		src.stop()
		return nil, fmt.Errorf("dialing source %s: %w", name, err)
	}
	if p != nil {
		conn = countingConn{Conn: conn, n: &p.lxpBytes}
	}
	src.client = lxp.NewClient(conn)
	src.counting = &lxp.Counting{Inner: src.client, Counters: &metrics.Counters{}}
	return src, nil
}

func (s *source) stop() {
	if s.client != nil {
		s.client.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.tcp.Shutdown(ctx) // forced close after the deadline is fine: the run is over
	<-s.done
}

// stopMixd shuts mixd down and waits for it; later calls do nothing.
func (st *stack) stopMixd() {
	if st.srv == nil || st.done == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = st.srv.Shutdown(ctx) // forced close after the deadline is fine: the run is over
	<-st.done
	st.done = nil
}

// close stops mixd, then the sources, and waits for every server
// goroutine to return.
func (st *stack) close() {
	st.stopMixd()
	for _, src := range st.sources {
		src.stop()
	}
}

// dial opens one client connection to mixd; on traced stacks its bytes
// are counted under vxdp.NewClient.
func (st *stack) dial() (*vxdp.Client, error) {
	conn, err := net.Dial("tcp", st.addr)
	if err != nil {
		return nil, err
	}
	if st.probe != nil {
		conn = countingConn{Conn: conn, n: &st.probe.vxdpBytes}
	}
	return vxdp.NewClient(conn), nil
}

// quiesce waits until no speculative drain is in flight and, with
// sessions set, no session is live, so a single-client run's counts do
// not depend on timing.
func (st *stack) quiesce(sessions bool) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		s := st.srv.Stats()
		if (!sessions || s.SessionsActive == 0) && (s.Prefetch == nil || s.Prefetch.Inflight == 0) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server did not quiesce: %d sessions, prefetch %+v", s.SessionsActive, s.Prefetch)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// countingConn counts the bytes read and written on a connection.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.n.Add(int64(n))
	return n, err
}
