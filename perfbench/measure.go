package main

import (
	"errors"
	"math"
	"net"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"mix/internal/lxp"
	"mix/internal/vxdp"
)

// phase is one timed window on one stack.
type phase struct {
	recs    []*recorder
	elapsed time.Duration
	cpu     time.Duration // process user+sys CPU over the window
	rt      runtimeDelta
	before  vxdp.Stats
	after   vxdp.Stats
	// Traced stacks only.
	heapLive           uint64 // median live heap sampled over the window
	cacheMax           int64  // peak region-cache bytes sampled over the window
	vxdpBytes          int64
	lxpBytes           int64
	demand, spec, serv lxpSnapshot
}

func (ph *phase) results() []result {
	var out []result
	for _, r := range ph.recs {
		out = append(out, r.results...)
	}
	return out
}

func (ph *phase) sum(f func(*recorder) int64) int64 {
	var n int64
	for _, r := range ph.recs {
		n += f(r)
	}
	return n
}

func (ph *phase) navs() int64 { return ph.sum(func(r *recorder) int64 { return int64(len(r.navNs)) }) }

func (ph *phase) merged(f func(*recorder) []int64) []int64 {
	var out []int64
	for _, r := range ph.recs {
		out = append(out, f(r)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// measure runs the timed window: cfg.clients closed-loop clients over
// the queue for cfg.seconds (or cfg.limit sessions).
func measure(st *stack, q *queue, cfg config) *phase {
	ph := &phase{}
	var samp sampler
	if st.probe != nil {
		samp.start(st)
	}
	ph.before = st.srv.Stats()
	if p := st.probe; p != nil {
		ph.vxdpBytes, ph.lxpBytes = -p.vxdpBytes.Load(), -p.lxpBytes.Load()
		ph.demand, ph.spec, ph.serv = p.demandLXP.snapshot(), p.specLXP.snapshot(), p.serveLXP.snapshot()
	}
	rt0 := readRuntime()
	cpu0 := cpuTime()
	start := time.Now()
	ph.recs = drive(st, q.at, cfg.spec.invalidateEvery, driveConfig{
		clients:  cfg.clients,
		deadline: start.Add(time.Duration(cfg.seconds * float64(time.Second))),
		limit:    cfg.limit,
		serial:   cfg.limit > 0,
	})
	ph.elapsed = time.Since(start)
	ph.cpu = cpuTime() - cpu0
	ph.rt = readRuntime().sub(rt0)
	ph.after = st.srv.Stats()
	if p := st.probe; p != nil {
		ph.vxdpBytes += p.vxdpBytes.Load()
		ph.lxpBytes += p.lxpBytes.Load()
		ph.demand = p.demandLXP.snapshot().sub(ph.demand)
		ph.spec = p.specLXP.snapshot().sub(ph.spec)
		ph.serv = p.serveLXP.snapshot().sub(ph.serv)
		ph.heapLive, ph.cacheMax = samp.stop()
	}
	return ph
}

// sampler polls the live heap and the region cache's size while a
// traced window runs.
type sampler struct {
	stopc    chan struct{}
	wg       sync.WaitGroup
	heap     []uint64
	cacheMax int64
}

const samplePeriod = 5 * time.Millisecond

func (s *sampler) start(st *stack) {
	s.stopc = make(chan struct{})
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(samplePeriod)
		defer t.Stop()
		for {
			metrics.Read(sample)
			s.heap = append(s.heap, sample[0].Value.Uint64())
			s.cacheMax = max(s.cacheMax, st.srv.RegionCache().Stats().Bytes)
			select {
			case <-s.stopc:
				return
			case <-t.C:
			}
		}
	}()
}

// stop ends sampling and returns the median live heap and the peak
// cache size. The median, not the peak: the peak catches old and new
// engines overlapping after an invalidation.
func (s *sampler) stop() (uint64, int64) {
	close(s.stopc)
	s.wg.Wait()
	slices.Sort(s.heap)
	return s.heap[len(s.heap)/2], s.cacheMax
}

// runtimeDelta is the change of the runtime counters over a window.
type runtimeDelta struct {
	allocBytes float64
	gcCPU      float64 // seconds
	busyCPU    float64 // total minus idle, seconds
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeDelta{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCPU:      s[1].Value.Float64(),
		busyCPU:    s[2].Value.Float64() - s[3].Value.Float64(),
	}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{allocBytes: a.allocBytes - b.allocBytes, gcCPU: a.gcCPU - b.gcCPU, busyCPU: a.busyCPU - b.busyCPU}
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// percentile is the nearest-rank p-quantile of sorted ns values, in µs.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	i = min(max(i, 0), len(sorted)-1)
	return float64(sorted[i]) / 1e3
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (a ratio with nothing to divide).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tally is the correctness account of a run.
type tally struct{ attempted, failed int64 }

func (t *tally) add(ph *phase, rep oracleReport) {
	t.attempted += ph.sum(func(r *recorder) int64 { return r.attempted })
	t.failed += ph.sum(func(r *recorder) int64 { return r.failed }) + rep.mismatched + rep.failed
}

func (o *output) finish(t tally) {
	o.Attempted, o.Failed = t.attempted, t.failed
	o.Correct = t.failed == 0 && t.attempted > 0
}

func navLatencies(r *recorder) []int64   { return r.navNs }
func openLatencies(r *recorder) []int64  { return r.openNs }
func firstLatencies(r *recorder) []int64 { return r.firstNs }

// endToEnd computes the client-side metrics of an untraced run.
func endToEnd(ph *phase, rep oracleReport, setupS float64) (*output, error) {
	navs := float64(ph.navs())
	if navs == 0 {
		return nil, errors.New("no navigation completed")
	}
	o := &output{}
	o.put("setup_s", "s", setupS)
	o.put("navs_per_s", "1/s", navs/ph.elapsed.Seconds())
	o.put("nav_p90_us", "us", percentile(ph.merged(navLatencies), 0.90))
	o.put("open_p90_us", "us", percentile(ph.merged(openLatencies), 0.90))
	o.put("first_answer_p90_us", "us", percentile(ph.merged(firstLatencies), 0.90))
	o.put("cpu_us_per_nav", "us", float64(ph.cpu.Microseconds())/navs)
	o.put("alloc_bytes_per_nav", "B", ph.rt.allocBytes/navs)
	var t tally
	t.add(ph, rep)
	o.finish(t)
	return o, nil
}

// pingFloor measures the VXDP round-trip floor on an idle server: the
// median of pingCount pings on one connection, in µs.
const pingCount = 2000

func pingFloor(st *stack) (float64, error) {
	c, err := st.dial()
	if err != nil {
		return 0, err
	}
	defer c.Close()
	ns := make([]int64, 0, pingCount)
	for i := 0; i < pingCount; i++ {
		start := time.Now()
		if _, err := c.Ping(); err != nil {
			return 0, err
		}
		ns = append(ns, int64(time.Since(start)))
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	return percentile(ns, 0.5), nil
}

// embedded stops mixd and replays every distinct pair of results
// in-process over the stack's LXP sources, timed: the embedded replay
// (core time) and the oracle of the traced run.
func embedded(st *stack, results []result) (oracleReport, error) {
	st.stopMixd()
	var clients []*lxp.Client
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	for _, src := range st.sources {
		conn, err := net.Dial("tcp", src.addr)
		if err != nil {
			return oracleReport{}, err
		}
		clients = append(clients, lxp.NewClient(conn))
	}
	var t lxpTimes
	rep := checkOracle(results, lxpSources(clients, &t), 1)
	rep.lxpNs = t.ns.Load()
	return rep, nil
}

// perLayer computes the traced run's per-layer metrics: a is the
// untraced half, b the traced half.
func perLayer(a, b *phase, emb oracleReport, pingUs float64) (*output, error) {
	navs := float64(b.navs())
	if navs == 0 || a.navs() == 0 {
		return nil, errors.New("no navigation completed")
	}
	perNav := func(x float64) float64 { return x / navs }
	usPerNav := func(ns int64) float64 { return float64(ns) / 1e3 / navs }
	o := &output{}

	clientNs := b.sum(func(r *recorder) int64 {
		var n int64
		for _, v := range r.navNs {
			n += v
		}
		for _, v := range r.openNs {
			n += v
		}
		return n
	})
	opens := float64(b.sum(func(r *recorder) int64 { return int64(len(r.openNs)) }))
	invals := float64(b.sum(func(r *recorder) int64 { return r.invals }))
	coreUs := ratio(float64(emb.wall.Nanoseconds()-emb.lxpNs)/1e3, float64(emb.navs))

	o.put("vxdp.round_trips_per_nav", "count", perNav(float64(b.sum(func(r *recorder) int64 { return r.roundTrips }))))
	o.put("vxdp.bytes_per_nav", "B", perNav(float64(b.vxdpBytes)))
	o.put("vxdp.ping_p50_us", "us", pingUs)

	o.put("mixd.self_us_per_nav", "us", usPerNav(clientNs-b.demand.ns))
	o.put("server.self_us_per_nav", "us", usPerNav(clientNs)-coreUs)
	bp, ap := b.before.Pool, b.after.Pool
	created, reused := float64(ap.Created-bp.Created), float64(ap.Reused-bp.Reused)
	o.put("server.engines_created", "count", created)
	o.put("server.pool_reuse_ratio", "ratio", ratio(reused, created+reused))

	bc, ac := b.before.Cache, b.after.Cache
	hits, misses := float64(ac.Hits-bc.Hits), float64(ac.Misses-bc.Misses)
	semHits, semMisses := float64(ac.SemanticHits-bc.SemanticHits), float64(ac.SemanticMisses-bc.SemanticMisses)
	o.put("regioncache.hit_ratio", "ratio", ratio(hits, hits+misses))
	o.put("regioncache.semantic_hit_ratio", "ratio", ratio(semHits, semHits+semMisses))
	o.put("regioncache.semantic_candidates_per_open", "count", ratio(float64(ac.SemanticCandidates-bc.SemanticCandidates), opens))
	o.put("regioncache.evictions", "count", float64(ac.Evictions-bc.Evictions))
	o.put("regioncache.bytes_peak", "B", float64(b.cacheMax))

	bf, af := b.before.Prefetch, b.after.Prefetch
	issued := float64(af.Issued - bf.Issued)
	o.put("prefetch.useful_ratio", "ratio", ratio(float64(af.Hits-bf.Hits), issued))
	o.put("prefetch.wasted_ratio", "ratio", ratio(float64(af.Wasted-bf.Wasted), issued))
	o.put("prefetch.spec_navs_per_nav", "count", perNav(float64(af.Navs-bf.Navs)))
	o.put("prefetch.spec_lxp_us_per_nav", "us", usPerNav(b.spec.ns))
	o.put("prefetch.cancelled_per_inval", "count", ratio(float64(af.Cancelled-bf.Cancelled), invals))

	o.put("core.embedded_us_per_nav", "us", coreUs)
	var batches, bindings float64
	if bb, ab := b.before.Batch, b.after.Batch; ab != nil {
		batches, bindings = float64(ab.Batches), float64(ab.Bindings)
		if bb != nil {
			batches, bindings = batches-float64(bb.Batches), bindings-float64(bb.Bindings)
		}
	}
	o.put("core.bindings_per_batch", "count", ratio(bindings, batches))
	o.put("runtime.gc_cpu_share", "ratio", ratio(b.rt.gcCPU, b.rt.busyCPU))
	o.put("runtime.heap_live_mb", "MiB", float64(b.heapLive)/(1<<20))

	msgs := float64(b.demand.msgs + b.spec.msgs)
	holes := float64(b.demand.holes + b.spec.holes)
	o.put("lxp.msgs_per_nav", "count", perNav(msgs))
	o.put("lxp.fills_per_nav", "count", perNav(holes))
	o.put("buffer.holes_per_msg", "count", ratio(holes, msgs))
	o.put("lxp.bytes_per_nav", "B", perNav(float64(b.lxpBytes)))
	o.put("lxp.demand_us_per_nav", "us", usPerNav(b.demand.ns))
	o.put("lxp.wire_us_per_nav", "us", usPerNav(b.demand.ns+b.spec.ns-b.serv.ns))
	o.put("source.serve_us_per_nav", "us", usPerNav(b.serv.ns))

	// Unbounded here: on join-cold these swing too far from run to run
	// to gate anything (see README.md).
	o.put("client.nav_p50_us", "us", percentile(a.merged(navLatencies), 0.50))
	o.put("client.nav_p99_us", "us", percentile(a.merged(navLatencies), 0.99))
	o.put("client.open_p50_us", "us", percentile(a.merged(openLatencies), 0.50))
	o.put("client.first_answer_p50_us", "us", percentile(a.merged(firstLatencies), 0.50))

	rateA := float64(a.navs()) / a.elapsed.Seconds()
	rateB := navs / b.elapsed.Seconds()
	o.put("trace.overhead_ratio", "ratio", rateB/rateA)

	o.Counts = map[string]int64{
		"navs":                 b.navs(),
		"vxdp.round_trips":     b.sum(func(r *recorder) int64 { return r.roundTrips }),
		"lxp.msgs":             b.demand.msgs + b.spec.msgs,
		"lxp.holes":            b.demand.holes + b.spec.holes,
		"regioncache.hits":     ac.Hits - bc.Hits,
		"regioncache.misses":   ac.Misses - bc.Misses,
		"regioncache.semantic": ac.SemanticHits - bc.SemanticHits,
		"server.engines":       ap.Created - bp.Created,
		"prefetch.issued":      af.Issued - bf.Issued,
		"embedded.navs":        emb.navs,
	}
	var t tally
	t.add(a, oracleReport{})
	t.add(b, emb)
	o.put("error_rate", "ratio", ratio(float64(t.failed), float64(t.attempted)))
	o.finish(t)
	return o, nil
}
