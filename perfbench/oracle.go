package main

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"sync"
	"time"

	"mix/internal/lxp"
	"mix/internal/mediator"
	"mix/internal/nav"
)

// oracleReport is the outcome of replaying the distinct (query, script)
// pairs of a run against an uncached in-process mediator.
type oracleReport struct {
	pairs      int
	mismatched int64 // sessions whose explored parts differ from the oracle
	failed     int64 // pairs the oracle itself could not replay
	// Embedded replay timing (set when the replay ran over timed LXP).
	wall  time.Duration
	lxpNs int64
	navs  int64
}

// register adds the sources to an oracle mediator.
type register func(m *mediator.Mediator) error

// treeSources registers the in-memory documents directly, as E19's
// oracle does.
func treeSources(st *stack) register {
	return func(m *mediator.Mediator) error {
		m.RegisterTree(homesSrc, st.homes)
		m.RegisterTree(schoolsSrc, st.schools)
		return nil
	}
}

// lxpSources registers the stack's LXP sources through fresh clients
// whose calls are timed into t: the embedded replay, whose core time is
// its wall time minus that LXP time.
func lxpSources(clients []*lxp.Client, t *lxpTimes) register {
	return func(m *mediator.Mediator) error {
		for i, name := range []string{homesSrc, schoolsSrc} {
			if _, err := m.RegisterLXP(name, &timedLXP{inner: clients[i], t: t}, lxpURI); err != nil {
				return err
			}
		}
		return nil
	}
}

// countingNav counts the navigations an in-process replay makes.
type countingNav struct {
	nav.Document
	n int64
}

func (d *countingNav) Root() (nav.ID, error)          { d.n++; return d.Document.Root() }
func (d *countingNav) Down(p nav.ID) (nav.ID, error)  { d.n++; return d.Document.Down(p) }
func (d *countingNav) Right(p nav.ID) (nav.ID, error) { d.n++; return d.Document.Right(p) }
func (d *countingNav) Fetch(p nav.ID) (string, error) { d.n++; return d.Document.Fetch(p) }

// checkOracle replays every distinct (query, script) pair of results on
// its own uncached mediator with mixd's engine options, over the sources
// reg registers, using workers goroutines, and compares each session's
// digest with its pair's. The replay is timed as a whole, so with one
// worker and timed LXP sources it is the embedded replay of the traced
// run.
func checkOracle(results []result, reg register, workers int) oracleReport {
	byPair := map[string]session{}
	for _, r := range results {
		byPair[r.pair] = r.sess
	}
	keys := make([]string, 0, len(byPair))
	for k := range byPair {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	want := make(map[string][sha256.Size]byte, len(keys))
	var (
		mu   sync.Mutex
		rep  = oracleReport{pairs: len(keys)}
		wg   sync.WaitGroup
		jobs = make(chan string)
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				sum, navs, err := replayOne(byPair[k], reg)
				mu.Lock()
				if err != nil {
					rep.failed++
				} else {
					want[k] = sum
				}
				rep.navs += navs
				mu.Unlock()
			}
		}()
	}
	for _, k := range keys {
		jobs <- k
	}
	close(jobs)
	wg.Wait()
	rep.wall = time.Since(start)
	for _, r := range results {
		if w, ok := want[r.pair]; !ok || w != r.digest {
			rep.mismatched++
		}
	}
	return rep
}

func replayOne(s session, reg register) ([sha256.Size]byte, int64, error) {
	m := mediator.New(mediatorOptions())
	if err := reg(m); err != nil {
		return [sha256.Size]byte{}, 0, err
	}
	res, err := m.Query(s.query)
	if err != nil {
		return [sha256.Size]byte{}, 0, fmt.Errorf("oracle query: %w", err)
	}
	doc := &countingNav{Document: res.Document()}
	sum, err := explore(doc, s)
	return sum, doc.n, err
}
