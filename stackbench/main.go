package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how many times an untraced run boots, preloads, warms
// and measures a stack.
const setupRepeats = 10

// runLimit ends a run that has not finished: the whole run, build
// excluded, must finish within three minutes.
const runLimit = 170 * time.Second

// value is one metric as printed.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the last line a run prints.
type verdict struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// result is everything a run knows, written to its result file.
type result struct {
	Workload string             `json:"workload"`
	Trace    bool               `json:"trace"`
	Env      envStamp           `json:"env"`
	Metrics  map[string]float64 `json:"metrics"`
	// Samples is the sample count behind each latency figure.
	Samples map[string]int `json:"samples,omitempty"`
	// Source says where each per-layer figure came from: spans of the
	// traced stack, counters of the untraced one, or the layer ladder.
	Source map[string]string `json:"source,omitempty"`
	SetupS []float64         `json:"setup_s_each,omitempty"`
	// Boots holds each measured boot's end-to-end figures.
	Boots  []map[string]float64 `json:"boots,omitempty"`
	Ladder map[string]float64   `json:"ladder,omitempty"`
	// Spans holds the traced run's mean self time and wait per span kind.
	Spans    map[string]float64 `json:"span_means_us,omitempty"`
	Errors   []string           `json:"errors,omitempty"`
	Notes    []string           `json:"notes,omitempty"`
	Attempts int64              `json:"attempted"`
	// Tails holds each series' stretch p99s across boots.
	Tails    map[string][]float64 `json:"stretch_p99_us,omitempty"`
	T90      map[string][]float64 `json:"stretch_p90_us,omitempty"`
	Failures int64                `json:"failed"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: jobjar, futures or relay")
	seed := flag.Uint64("seed", 1, "seed that generates every key, value and read order")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end metrics")
	out := flag.String("out", filepath.Join(".bench_build", "results"), "directory for result files and span dumps")
	spreadDir := flag.String("spread", "", "summarize the result files in this directory instead of running")
	flag.Parse()

	if *spreadDir != "" {
		if err := spread(*spreadDir, "BENCHMARK.json", os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	sp, ok := specByName(*workload)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "stackbench: run exceeded %v\n", runLimit)
		os.Exit(3)
	})
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	scratch, err := os.MkdirTemp(filepath.Dir(*out), "run-")
	if err != nil {
		fatal(err)
	}
	res, err := run(sp, *seed, time.Duration(*seconds)*time.Second, *trace == 1, scratch, *out)
	os.RemoveAll(scratch)
	if err != nil {
		fatal(err)
	}
	report(res, *trace == 1)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "stackbench: %v\n", err)
	os.Exit(1)
}

func run(sp spec, seed uint64, d time.Duration, traced bool, scratch, out string) (*result, error) {
	root, _ := os.Getwd()
	res := &result{Workload: sp.name, Trace: traced, Env: stampEnv(sp, seed, scratch, root),
		Metrics: map[string]float64{}, Samples: map[string]int{}}
	var err error
	if traced {
		err = runLayers(res, sp, seed, d, scratch, out)
	} else {
		err = runEndToEnd(res, sp, seed, d)
	}
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", sp.name, seed, btoi(traced), time.Now().UnixNano())
	if err := writeJSON(filepath.Join(out, name), res); err != nil {
		return nil, err
	}
	return res, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runEndToEnd boots, preloads and warms a fresh stack setupRepeats times
// and measures each for an equal share of d, untraced. Every metric is the
// median over the boots: one boot's scheduling luck, or a burst of load
// from outside, moves one sample of ten rather than the figure.
func runEndToEnd(res *result, sp spec, seed uint64, d time.Duration) error {
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		r, err := setup(sp, seed, stackConfig{tcp: sp.tcp})
		if err != nil {
			return err
		}
		res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
		m, err := measureBoot(res, r, d/setupRepeats)
		r.teardown()
		if err != nil {
			return err
		}
		res.Boots = append(res.Boots, m)
	}
	for _, def := range endToEnd {
		var vs []float64
		for _, b := range res.Boots {
			vs = append(vs, b[def.name])
		}
		res.Metrics[def.name] = median(vs)
	}
	// The ungated tails, where every boot supports them.
	for _, name := range seriesNames {
		for _, q := range shownTails {
			key := tailKey(name, q)
			var vs []float64
			for _, b := range res.Boots {
				if v, ok := b[key]; ok {
					vs = append(vs, v)
				}
			}
			if len(vs) == len(res.Boots) {
				res.Metrics[key] = median(vs)
			}
		}
	}
	res.Metrics["setup_s"] = median(res.SetupS)
	return nil
}

// measureBoot measures one booted stack for d and checks its outputs.
func measureBoot(res *result, r *runner, d time.Duration) (map[string]float64, error) {
	out := map[string]float64{}
	before := snapCounters(r.st)
	elapsed := r.measure(d)
	after := snapCounters(r.st)
	res.Errors = append(res.Errors, r.drain()...)
	n, fails := r.counts()
	if n == 0 {
		return nil, fmt.Errorf("no op completed in %v", d)
	}
	ops := float64(n)
	res.Attempts += n
	res.Failures += fails
	out["ops_per_s"] = float64(n-fails) / elapsed.Seconds()
	for _, name := range seriesNames {
		var all latencies
		for _, c := range r.callers {
			all = append(all, c.s.named(name)...)
		}
		res.Samples[name] += len(all)
		if !supports(len(all), gatedTail) {
			res.Errors = append(res.Errors, fmt.Sprintf("%d %s ops in a boot leave fewer than %d beyond the p90", len(all), name, minBeyond))
			continue
		}
		sorted := sortedCopy(all)
		out[name+"_p50_us"] = percentile(sorted, 0.5)
		out[tailKey(name, gatedTail)] = percentile(sorted, gatedTail)
		for _, q := range shownTails {
			if supports(len(sorted), q) {
				out[tailKey(name, q)] = percentile(sorted, q)
			}
		}
	}
	out["allocs_per_op"] = float64(after.mallocs-before.mallocs) / ops
	out["cpu_us_per_op"] = float64(after.cpu-before.cpu) / 1e3 / ops
	out["ok_ratio"] = float64(n-fails) / ops
	for _, c := range r.callers {
		c.s = series{}
	}
	out["heap_mb"] = heapMB()
	return out, nil
}

// tailKey names a series' q-quantile metric: round, 0.9 -> round_p90_us;
// round, 0.999 -> round_p999_us.
func tailKey(name string, q float64) string {
	digits := strings.TrimPrefix(strconv.FormatFloat(q, 'f', -1, 64), "0.")
	if len(digits) < 2 {
		digits += "0"
	}
	return name + "_p" + digits + "_us"
}

func report(res *result, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	env, _ := json.Marshal(res.Env)
	fmt.Printf("stackbench %s env %s\n", res.Workload, env)
	v := verdict{Correct: len(res.Errors) == 0, Attempted: res.Attempts, Failed: res.Failures,
		Metrics: map[string]value{}}
	for _, d := range defs {
		x := res.Metrics[d.name]
		line := fmt.Sprintf("  %-30s %14.4f %s", d.name, x, d.unit)
		if series, _, _ := strings.Cut(d.name, "_"); res.Samples[series] > 0 {
			n := res.Samples[series]
			line += fmt.Sprintf("  (n=%d)", n)
		}
		if src, ok := res.Source[d.name]; ok {
			line += "  [" + src + "]"
		}
		fmt.Println(line)
		v.Metrics[d.name] = value{Value: x, Unit: d.unit}
	}
	for _, name := range seriesNames {
		for _, q := range shownTails {
			if v, ok := res.Metrics[tailKey(name, q)]; ok {
				fmt.Printf("  %-30s %14.4f us  (ungated)\n", tailKey(name, q), v)
			}
		}
	}
	for _, n := range res.Notes {
		fmt.Println("  note: " + n)
	}
	for _, e := range res.Errors {
		fmt.Println("  CHECK FAILED: " + e)
	}
	blob, _ := json.Marshal(v)
	fmt.Println(string(blob))
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
