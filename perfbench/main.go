// Command perfbench is the repository's benchmark: it measures mixd from
// outside, the way a browsing client sees it.
//
// It generates the running example's sources (2000 homes, 2000
// schools, 200 zips) from the workload seed, serves them over LXP on
// loopback with lxpd's defaults, boots an in-process mixd server with
// mixd's default configuration, and drives closed-loop VXDP sessions:
// two clients with zero think time pull sessions from one seeded queue,
// each session on its own connection (open a view, replay a persona
// script). Afterwards every distinct (query, script) pair is replayed
// on an uncached in-process mediator and the explored parts compared.
//
//	go run . --workload browse-warm --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs an untraced and a traced half and prints the per-layer metrics,
// timed and counted at public seams, plus the tracing overhead. The
// last line of standard output is one JSON object; see README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"
)

// closedLoopClients is the load: one client per core of the machine
// the benchmark was defined on, each waiting for every reply.
const closedLoopClients = 2

// config is one invocation.
type config struct {
	spec    spec
	seed    int64
	seconds float64
	trace   bool
	clients int
	// limit, when > 0, runs exactly that many timed sessions per phase
	// instead of --seconds, and serializes the server (see driveConfig):
	// the determinism test's mode.
	limit int
}

func main() {
	name := flag.String("workload", "", "workload: join-cold, browse-warm or update-churn")
	seed := flag.Int64("seed", 1, "workload seed: data, views and session queue derive from it")
	seconds := flag.Float64("seconds", 15, "length of the timed window in seconds")
	traceFlag := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	flag.Parse()
	sp, ok := lookupSpec(*name)
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload join-cold|browse-warm|update-churn, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	out, err := run(config{spec: sp, seed: *seed, seconds: *seconds, trace: *traceFlag == 1, clients: closedLoopClients})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, m := range out.Order {
		v := out.Metrics[m]
		fmt.Printf("%-36s %14.4f %s\n", m, v.Value, v.Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Order     []string          `json:"-"`
	// Counts are the traced half's raw counters, for the determinism
	// test.
	Counts map[string]int64 `json:"-"`
}

func (o *output) put(name, unit string, v float64) {
	if o.Metrics == nil {
		o.Metrics = map[string]metric{}
	}
	o.Metrics[name] = metric{Value: v, Unit: unit}
	o.Order = append(o.Order, name)
}

// An untraced run sets up at least minSetups times, and up to maxSetups
// times while the set-ups so far took less than setupBudget: setup_s is
// the median, and the last stack is the one measured. Cheap set-ups are
// repeated more because their median is the noisier one (join-cold's
// 0.6 s set-up spread 0.34 over ten runs as a median of three).
const (
	minSetups   = 3
	maxSetups   = 7
	setupBudget = 4 * time.Second
)

// setup boots a stack and replays the warm-up sessions on it.
func setup(cfg config, q *queue, p *probe) (*stack, error) {
	st, err := boot(cfg.seed, p)
	if err != nil {
		return nil, err
	}
	if err := warm(st, q.warmup(), cfg.limit > 0); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func run(cfg config) (*output, error) {
	q := newQueue(cfg.spec, cfg.seed)
	if !cfg.trace {
		var setups []float64
		var st *stack
		var spent time.Duration
		for k := 0; k < minSetups || (k < maxSetups && spent < setupBudget); k++ {
			if st != nil {
				st.close()
			}
			start := time.Now()
			s, err := setup(cfg, q, nil)
			if err != nil {
				return nil, err
			}
			d := time.Since(start)
			spent += d
			setups = append(setups, d.Seconds())
			st = s
		}
		ph := measure(st, q, cfg)
		st.close()
		rep := checkOracle(ph.results(), treeSources(st), 2)
		return endToEnd(ph, rep, median(setups))
	}

	// Traced run: an untraced half for the overhead baseline, then the
	// traced half whose seams give the per-layer numbers.
	half := cfg
	half.seconds = cfg.seconds / 2
	stA, err := setup(half, q, nil)
	if err != nil {
		return nil, err
	}
	phA := measure(stA, q, half)
	stA.close()

	p := &probe{}
	stB, err := setup(half, q, p)
	if err != nil {
		return nil, err
	}
	phB := measure(stB, q, half)
	ping, pingErr := pingFloor(stB)
	// Embedded replay: the same pairs in-process over the same LXP
	// sources, without the server; also the oracle of both halves.
	emb, embErr := embedded(stB, append(phA.results(), phB.results()...))
	stB.close()
	if err := errors.Join(pingErr, embErr); err != nil {
		return nil, err
	}
	return perLayer(phA, phB, emb, ping)
}
