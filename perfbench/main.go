// Command perfbench is Glasswing's same-host benchmark. It runs one named
// workload against the runtimes' public entry points (native.Run,
// dist.RunLoopback, the jobsvc HTTP API), times every call from outside,
// checks every job's output against a reference computed during set-up,
// and prints the metrics named in BENCHMARK.json. With --trace 1 it
// instead attaches telemetry, times the layer calls (apps, kv, blockstore)
// itself, and prints the per-layer metrics plus a Chrome trace.
//
// Run it through perfbench/run.py from the repository root:
//
//	python3 perfbench/run.py --workload wc-native --seed 1 --seconds 18 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. See perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"glasswing/perfbench/benchstat"
)

// heldOutSeed is a seed never used while tuning the benchmark; --heldout
// runs on it so a later performance claim can be re-checked on fresh data.
const heldOutSeed = 7_340_033

// outDir receives traces, layer tables and the run's scratch directory.
const outDir = ".bench_build/perfbench"

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 3

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 18, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	heldout := flag.Bool("heldout", false, fmt.Sprintf("ignore --seed and use the held-out seed %d", heldOutSeed))
	flag.Parse()

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return fail(err)
	}
	wl, ok := workloads[*name]
	if !ok {
		return fail(fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fail(errors.New("need --seconds >= 1 and --trace 0 or 1"))
	}
	if *heldout {
		*seed = heldOutSeed
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fail(err)
	}
	tmp, err := os.MkdirTemp(outDir, "tmp-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(tmp)

	b := &bench{
		name: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		nproc: nproc, tmp: tmp,
	}
	meta := runMeta(b)
	metaJSON, _ := json.Marshal(meta)
	fmt.Printf("meta %s\n", metaJSON)

	var rep *report
	if *trace == 1 {
		rep, err = b.traced(wl)
	} else {
		rep, err = b.measured(wl)
	}
	if err != nil {
		return fail(err)
	}
	want := spec.EndToEnd
	if *trace == 1 {
		want = spec.PerLayer
	}
	return rep.print(want)
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 2
}

func loadSpec(path string) (*benchstat.Spec, error) {
	doc, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark spec (run from the repository root): %w", err)
	}
	spec, err := benchstat.ParseSpec(doc)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// bench is one run's settings.
type bench struct {
	name    string
	seed    int64
	seconds time.Duration
	nproc   int
	tmp     string // scratch directory, removed at exit
}

// report is a finished run: its metric values, the job counts, and any
// correctness failures (wrong output, unbalanced ledgers).
type report struct {
	metrics   map[string]float64
	notes     map[string]string // per-metric annotation, e.g. the sample count
	attempted int
	failed    int
	problems  []string
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, notes: map[string]string{}}
}

func (r *report) set(name string, v float64) { r.metrics[name] = v }

func (r *report) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintln(os.Stderr, "perfbench: FAIL", msg)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes one line per metric, then the result object as the last
// line. Every metric in want must have been measured.
func (r *report) print(want []benchstat.Metric) int {
	out := map[string]metricOut{}
	for _, m := range want {
		v, ok := r.metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fail(fmt.Errorf("metric %s was not measured", m.Name))
		}
		out[m.Name] = metricOut{Value: v, Unit: m.Unit}
		fmt.Printf("metric %-28s %14.6g %-6s %s\n", m.Name, v, m.Unit, r.notes[m.Name])
	}
	var extra []string
	for name := range r.notes {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Printf("info   %-28s %14.6g        %s\n", name, r.metrics[name], r.notes[name])
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{len(r.problems) == 0 && r.failed == 0, r.attempted, r.failed, out})
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	return 0
}
