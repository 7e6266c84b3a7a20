// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the real code paths — an in-process srm.Server
// configured as cmd/srmd is, driven over loopback TCP by a closed loop of
// grid-job clients, or simulate.Run for the paper's replay — checks that
// the outputs are correct, and prints every metric by name and unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run reports the per-layer ones. README.md explains the
// workloads and the layer → metric map. Run it from the repository root:
//
//	bash perfbench/run.sh --workload churn --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --workload hot --seed heldout --seconds 15 --trace 1
package main

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"fbcache/internal/policy"
)

// tmpRoot holds the store directories of the staged workload; like
// spanDir it is inside the checkout and ignored by git.
const tmpRoot = ".bench_build/tmp"

// spanDir receives the JSONL span dump of the latest traced run of each
// workload.
const spanDir = ".bench_build/spans"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: hot, churn, staged or replay")
	seedArg := fs.String("seed", "1", `workload seed, or "heldout" to draw a fresh one (printed) for checking a claim on a seed not used while writing it`)
	seconds := fs.Int("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: a separate traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		if err == nil {
			err = fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
		}
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	seed, err := parseSeed(*seedArg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	b := &bench{def: def, seed: seed, dur: time.Duration(*seconds) * time.Second, traced: *trace == 1}
	res, err := b.run()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", def.name, err)
		return 1
	}
	res.print(stdout, b)
	if !res.correct() {
		return 1
	}
	return 0
}

func parseSeed(s string) (int64, error) {
	if s == "heldout" {
		var buf [8]byte
		if _, err := rand.Read(buf[:]); err != nil {
			return 0, fmt.Errorf("draw held-out seed: %w", err)
		}
		return int64(binary.LittleEndian.Uint64(buf[:]) >> 1), nil
	}
	seed, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad --seed %q: want an integer or heldout", s)
	}
	return seed, nil
}

// bench is one invocation: a workload, a seed and a mode.
type bench struct {
	def    workloadDef
	seed   int64
	dur    time.Duration
	traced bool
	// wrap decorates the policy of the measured instance (see runOpts).
	wrap func(policy.Policy) policy.Policy
}

// metric is one reported value.
type metric struct {
	name, unit string
	value      float64
	samples    int // samples behind a percentile or median; 0 when not one
}

// check is one correctness check on the program's outputs.
type check struct {
	name   string
	ok     bool
	detail string
}

type result struct {
	metrics []metric
	// windows are the per-window values behind the windowed end-to-end
	// metrics, printed in the stamp.
	windows   map[string][]float64
	checks    []check
	attempted int
	failed    int
}

// add records a metric; its unit comes from the metric tables.
func (r *result) add(name string, value float64, samples int) {
	unit, ok := units[name]
	if !ok {
		panic("perfbench: metric " + name + " is not in the metric tables")
	}
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, samples: samples})
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return true
}

// print writes the human-readable report, the environment and sample
// stamp as one JSON line, and the result object as the last line.
func (r *result) print(w io.Writer, b *bench) {
	env := stamp()
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%d trace=%v\n",
		b.def.name, b.seed, int(b.dur/time.Second), b.traced)
	fmt.Fprintf(w, "# env nproc=%d gomaxprocs=%d cpu=%q go=%s tmpfs=%s\n",
		env.NProc, env.GOMAXPROCS, env.CPU, env.Go, env.TmpFS)
	samples := map[string]int{}
	for _, m := range r.metrics {
		note := ""
		if m.samples > 0 {
			note = fmt.Sprintf("  (n=%d)", m.samples)
			samples[m.name] = m.samples
		}
		fmt.Fprintf(w, "%-32s %14.4f %-6s%s\n", m.name, m.value, m.unit, note)
	}
	for _, c := range r.checks {
		status := "ok"
		if !c.ok {
			status = "FAILED"
		}
		fmt.Fprintf(w, "check %-28s %-6s %s\n", c.name, status, c.detail)
	}
	stampLine, _ := json.Marshal(struct {
		Workload string               `json:"workload"`
		Seed     int64                `json:"seed"`
		Seconds  int                  `json:"seconds"`
		Trace    bool                 `json:"trace"`
		Env      envStamp             `json:"env"`
		Samples  map[string]int       `json:"samples"`
		Windows  map[string][]float64 `json:"windows,omitempty"`
	}{b.def.name, b.seed, int(b.dur / time.Second), b.traced, env, samples, r.windows})
	fmt.Fprintf(w, "%s\n", stampLine)

	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]val{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = val{m.value, m.unit}
	}
	line, _ := json.Marshal(out) // plain structs of numbers and strings
	fmt.Fprintf(w, "%s\n", line)
}
