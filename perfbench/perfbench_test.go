package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"fbcache/internal/bundle"
	"fbcache/internal/policy"
)

// benchmarkFile is the part of BENCHMARK.json these tests read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMatchesMetricTables(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.EndToEnd) != len(endToEndMetrics) || len(bf.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics, tables have %d and %d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEndMetrics), len(perLayerMetrics))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEndMetrics[i].name || m.Unit != endToEndMetrics[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, table has %s %s", i, m.Name, m.Unit, endToEndMetrics[i].name, endToEndMetrics[i].unit)
		}
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayerMetrics[i].name || m.Unit != perLayerMetrics[i].unit {
			t.Errorf("per_layer[%d] = %s %s, table has %s %s", i, m.Name, m.Unit, perLayerMetrics[i].name, perLayerMetrics[i].unit)
		}
	}
	for _, w := range bf.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
}

// TestEveryWorkloadReportsEveryMetric runs each workload briefly in both
// modes and checks the result line: correct, and exactly the metrics
// BENCHMARK.json names for the mode.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := readBenchmarkFile(t)
	for _, w := range bf.Workloads {
		for _, trace := range []string{"0", "1"} {
			var out, errOut bytes.Buffer
			code := run([]string{"--workload", w.Name, "--seed", "3", "--seconds", "1", "--trace", trace}, &out, &errOut)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s%s", w.Name, trace, code, out.String(), errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool                       `json:"correct"`
				Attempted int                        `json:"attempted"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line: %v", w.Name, err)
			}
			want := map[string]bool{}
			if trace == "0" {
				for _, m := range bf.EndToEnd {
					want[m.Name] = true
				}
			} else {
				for _, m := range bf.PerLayer {
					want[m.Name] = true
				}
			}
			if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: correct=%v attempted=%d, %d metrics, want %d",
					w.Name, trace, res.Correct, res.Attempted, len(res.Metrics), len(want))
			}
			for name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace=%s: missing %s", w.Name, trace, name)
				}
			}
		}
	}
}

// slowMisses is a policy that busy-waits d after every Admit that is not
// a hit: a slower selection, which only misses run.
type slowMisses struct {
	policy.Policy
	d time.Duration
}

func (s slowMisses) Admit(b bundle.Bundle) policy.Result {
	res := s.Policy.Admit(b)
	if !res.Hit {
		for start := time.Now(); time.Since(start) < s.d; {
		}
	}
	return res
}

func measure(t *testing.T, workload string, traced bool, wrap func(policy.Policy) policy.Policy) map[string]float64 {
	t.Helper()
	def, err := findWorkload(workload)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{def: def, seed: 5, dur: 4 * time.Second, traced: traced, wrap: wrap}
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		t.Fatal(err)
	}
	res, err := b.run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct() {
		t.Fatalf("%s: a correctness check failed: %+v", workload, res.checks)
	}
	out := map[string]float64{}
	for _, m := range res.metrics {
		out[m.name] = m.value
	}
	return out
}

// TestAttribution shows that the benchmark can fail and credits the right
// layer: slowing the policy's miss path must raise churn's
// core.admit_us_p50 and cut its jobs_per_s by more than the jobs_per_s
// bound, and leave hot's jobs_per_s within that bound.
func TestAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("timed runs")
	}
	const delay = 300 * time.Microsecond
	slow := func(p policy.Policy) policy.Policy { return slowMisses{p, delay} }
	var bound float64
	for _, m := range readBenchmarkFile(t).EndToEnd {
		if m.Name == "jobs_per_s" {
			bound = m.Bound
		}
	}
	if bound <= 0 {
		t.Fatal("BENCHMARK.json has no bound for jobs_per_s")
	}

	base := measure(t, "churn", false, nil)
	slowed := measure(t, "churn", false, slow)
	t.Logf("churn jobs_per_s %.0f → %.0f", base["jobs_per_s"], slowed["jobs_per_s"])
	if got, limit := slowed["jobs_per_s"], base["jobs_per_s"]*(1-bound); got >= limit {
		t.Errorf("churn jobs_per_s %.0f with a %v slower miss path, want below %.0f (base %.0f, bound %v)",
			got, delay, limit, base["jobs_per_s"], bound)
	}
	baseTr := measure(t, "churn", true, nil)
	slowTr := measure(t, "churn", true, slow)
	t.Logf("churn core.admit_us_p50 %.0f → %.0f", baseTr["core.admit_us_p50"], slowTr["core.admit_us_p50"])
	if got, limit := slowTr["core.admit_us_p50"], baseTr["core.admit_us_p50"]*(1+bound); got <= limit {
		t.Errorf("core.admit_us_p50 %.0f us with a %v slower miss path, want above %.0f (base %.0f, bound %v)",
			got, delay, limit, baseTr["core.admit_us_p50"], bound)
	}

	hotBase := measure(t, "hot", false, nil)
	hotSlow := measure(t, "hot", false, slow)
	t.Logf("hot jobs_per_s %.0f → %.0f", hotBase["jobs_per_s"], hotSlow["jobs_per_s"])
	if got, limit := hotSlow["jobs_per_s"], hotBase["jobs_per_s"]*(1-bound); got < limit {
		t.Errorf("hot jobs_per_s %.0f with a slower miss path, want at least %.0f (base %.0f, bound %v)",
			got, limit, hotBase["jobs_per_s"], bound)
	}
}
