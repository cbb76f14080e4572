package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// sessionsPerHalf keeps each workload's determinism run short: enough
// sessions to pass an invalidation on update-churn and to engage the
// prefetcher and the semantic tier on browse-warm.
var sessionsPerHalf = map[string]int{
	"join-cold":    6,
	"browse-warm":  24,
	"update-churn": 2*churnPeriod + 2,
}

// TestDeterministicCounts runs every workload twice with one serialized
// client and a fixed seed: the traced half's counts must repeat exactly,
// and the oracle must find no difference.
func TestDeterministicCounts(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			cfg := config{spec: sp, seed: 7, trace: true, clients: 1, limit: sessionsPerHalf[sp.name]}
			var counts []map[string]int64
			for i := 0; i < 2; i++ {
				out, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !out.Correct || out.Failed != 0 || out.Metrics["error_rate"].Value != 0 {
					t.Fatalf("run %d: correct=%v failed=%d of %d", i, out.Correct, out.Failed, out.Attempted)
				}
				counts = append(counts, out.Counts)
			}
			for k, v := range counts[0] {
				if counts[1][k] != v {
					t.Errorf("%s: %d then %d", k, v, counts[1][k])
				}
			}
			if counts[0]["navs"] == 0 || counts[0]["vxdp.round_trips"] == 0 {
				t.Errorf("nothing measured: %v", counts[0])
			}
			t.Logf("counts: %v", counts[0])
		})
	}
}

// TestPrintsEveryMetric checks that both modes print exactly the metrics
// BENCHMARK.json names, each with its unit.
func TestPrintsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var bench struct {
		EndToEnd []named `json:"end_to_end"`
		PerLayer []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	sp, _ := lookupSpec("join-cold")
	for _, mode := range []struct {
		trace bool
		want  []named
	}{{false, bench.EndToEnd}, {true, bench.PerLayer}} {
		out, err := run(config{spec: sp, seed: 3, trace: mode.trace, clients: closedLoopClients, limit: 4})
		if err != nil {
			t.Fatal(err)
		}
		var got, want []string
		for name, m := range out.Metrics {
			got = append(got, name+" "+m.Unit)
		}
		for _, m := range mode.want {
			want = append(want, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if len(got) != len(want) {
			t.Fatalf("trace=%v: printed %v, BENCHMARK.json names %v", mode.trace, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("trace=%v: printed %q, BENCHMARK.json names %q", mode.trace, got[i], want[i])
			}
		}
	}
}
