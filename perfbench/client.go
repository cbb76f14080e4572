package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"mix/internal/nav"
	"mix/internal/vxdp"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

// recorder collects one client's measurements.
type recorder struct {
	navNs      []int64 // latency of every completed navigation (root, d, r, f, select)
	openNs     []int64 // latency of every completed open
	firstNs    []int64 // per session: open sent → first label held
	attempted  int64   // commands sent: opens, navigations, invalidations
	failed     int64   // commands that returned an error
	invals     int64   // invalidations sent
	roundTrips int64   // VXDP request frames, from vxdp.Client.RoundTrips
	results    []result
}

// result is one finished session's explored parts, digested.
type result struct {
	pair   string
	sess   session
	digest [sha256.Size]byte
}

// timedDoc is the client's view of its VXDP session: it times each
// navigation command and notes when the first label arrives. after,
// when set, runs after each command outside the timed interval.
type timedDoc struct {
	c      *vxdp.Client
	r      *recorder
	opened time.Time
	first  bool
	after  func() error
}

func (d *timedDoc) done(start time.Time, err error) error {
	d.r.attempted++
	if err != nil {
		d.r.failed++
		return err
	}
	d.r.navNs = append(d.r.navNs, int64(time.Since(start)))
	if d.after != nil {
		return d.after()
	}
	return nil
}

func (d *timedDoc) Root() (nav.ID, error) {
	start := time.Now()
	id, err := d.c.Root()
	return id, d.done(start, err)
}

func (d *timedDoc) Down(p nav.ID) (nav.ID, error) {
	start := time.Now()
	id, err := d.c.Down(p)
	return id, d.done(start, err)
}

func (d *timedDoc) Right(p nav.ID) (nav.ID, error) {
	start := time.Now()
	id, err := d.c.Right(p)
	return id, d.done(start, err)
}

func (d *timedDoc) Fetch(p nav.ID) (string, error) {
	start := time.Now()
	label, err := d.c.Fetch(p)
	if err == nil && !d.first {
		d.first = true
		d.r.firstNs = append(d.r.firstNs, int64(time.Since(d.opened)))
	}
	return label, d.done(start, err)
}

func (d *timedDoc) SelectLabel(p nav.ID, label string, fromSelf bool) (nav.ID, error) {
	start := time.Now()
	id, err := d.c.SelectLabel(p, label, fromSelf)
	return id, d.done(start, err)
}

// explore replays one session on doc and returns the digest of its
// explored parts: the persona steps' parts in order, or the whole
// answer for a complete exploration.
func explore(doc nav.Document, s session) ([sha256.Size]byte, error) {
	h := sha256.New()
	var err error
	if s.whole {
		var root nav.ID
		if root, err = doc.Root(); err == nil {
			var t *xmltree.Tree
			if t, err = nav.Subtree(doc, root); err == nil {
				io.WriteString(h, xmltree.MarshalXML(t))
			}
		}
	} else {
		err = workload.ReplayPersona(doc, s.script, func(_ int, part string) error {
			io.WriteString(h, part)
			h.Write([]byte{0})
			return nil
		})
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum, err
}

// runSession plays one session on its own VXDP connection: open, replay,
// optionally announce a source update, close.
func runSession(st *stack, s session, r *recorder, invalidate func(*vxdp.Client) error, after func() error) error {
	c, err := st.dial()
	if err != nil {
		r.attempted++
		r.failed++
		return err
	}
	defer func() {
		r.roundTrips += c.RoundTrips()
		c.Close()
	}()
	start := time.Now()
	r.attempted++
	if err := c.Open(s.query); err != nil {
		r.failed++
		return err
	}
	r.openNs = append(r.openNs, int64(time.Since(start)))
	if after != nil {
		if err := after(); err != nil {
			return err
		}
	}
	doc := &timedDoc{c: c, r: r, opened: start, after: after}
	sum, err := explore(doc, s)
	if err != nil {
		return err
	}
	r.results = append(r.results, result{pair: s.pair, sess: s, digest: sum})
	if invalidate != nil {
		r.attempted++
		r.invals++
		if err := invalidate(c); err != nil {
			r.failed++
			return err
		}
	}
	return nil
}

// driveConfig shapes one closed-loop drive.
type driveConfig struct {
	clients  int
	deadline time.Time // stop pulling sessions after this (when limit == 0)
	limit    int       // run exactly this many sessions (0 = until deadline)
	// serial makes a single-client drive deterministic: after every
	// command it waits for speculative drains, and after every session
	// for the server to release it.
	serial bool
}

// drive runs sessions at(0), at(1), … closed loop: each client pulls the
// next session from the shared queue as soon as its previous one ends,
// with no think time. It returns each client's recorder.
func drive(st *stack, at func(int) session, invalidateEvery int, cfg driveConfig) []*recorder {
	var next atomic.Int64
	var gen atomic.Uint64
	gen.Store(st.srv.RegionCache().Stats().Generation)
	var after func() error
	if cfg.serial {
		after = func() error { return st.quiesce(false) }
	}
	recs := make([]*recorder, cfg.clients)
	var wg sync.WaitGroup
	for k := range recs {
		r := &recorder{navNs: make([]int64, 0, 1<<14)}
		recs[k] = r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if cfg.limit == 0 && !time.Now().Before(cfg.deadline) {
					return
				}
				i := int(next.Add(1) - 1)
				if cfg.limit > 0 && i >= cfg.limit {
					return
				}
				var inval func(*vxdp.Client) error
				if invalidateEvery > 0 && (i+1)%invalidateEvery == 0 {
					inval = func(c *vxdp.Client) error {
						_, err := c.Invalidate(gen.Add(1))
						return err
					}
				}
				// A failed session is counted in r.failed; the client
				// goes on with the next one.
				_ = runSession(st, at(i), r, inval, after)
				if cfg.serial {
					if err := st.quiesce(true); err != nil {
						r.failed++
					}
				}
			}
		}()
	}
	wg.Wait()
	return recs
}

// warm replays the warm-up sessions on one client and fails on any
// error.
func warm(st *stack, sessions []session, serial bool) error {
	at := func(i int) session { return sessions[i] }
	r := drive(st, at, 0, driveConfig{clients: 1, limit: len(sessions), serial: serial})[0]
	if r.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d commands failed", r.failed, r.attempted)
	}
	return nil
}
