package benchstat

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so callers must not rely on input order
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) should be NaN")
	}
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 {
		t.Error("Median reordered its input")
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		pct    float64
		ok     bool
		beyond int
	}{
		{19, 0, false, 0},   // even the median has only 9 above it
		{20, 50, true, 10},  // median: 10 above
		{99, 75, true, 24},  // p90 would leave 9
		{100, 90, true, 10}, // p90: exactly 10 above
		{199, 90, true, 19}, // p95 would leave 9
		{200, 95, true, 10},
		{1000, 99, true, 10},
		{10000, 99.9, true, 10},
	} {
		pct, v, ok := Tail(seq(c.n))
		if ok != c.ok || pct != c.pct {
			t.Errorf("n=%d: Tail = p%v ok=%v, want p%v ok=%v", c.n, pct, ok, c.pct, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if b := Beyond(c.n, pct); b != c.beyond || b < MinBeyond {
			t.Errorf("n=%d p%v: %d beyond, want %d", c.n, pct, b, c.beyond)
		}
		// With values 1..n the nearest-rank value is the rank itself, and
		// exactly Beyond samples exceed it.
		if above := c.n - int(v); above != c.beyond {
			t.Errorf("n=%d p%v: value %v has %d samples above, want %d", c.n, pct, v, above, c.beyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{{5, 15}, {30, 20}, {40, 20}, {50, 35}, {100, 50}} {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Start: 0, End: 10},
		{ID: 2, Parent: 1, Start: 1, End: 4},
		{ID: 3, Parent: 1, Start: 3, End: 6},  // overlaps 2: union 1..6
		{ID: 4, Parent: 1, Start: 9, End: 12}, // runs past the parent: only 9..10 counts
		{ID: 5, Parent: 2, Start: 2, End: 3},  // grandchild: charged to 2, not 1
		{ID: 6, Start: 20, End: 21},
	}
	self := SelfTimes(spans)
	for id, want := range map[uint64]float64{1: 10 - 5 - 1, 2: 3 - 1, 3: 3, 4: 3, 5: 1, 6: 1} {
		if got := self[id]; math.Abs(got-want) > 1e-12 {
			t.Errorf("self[%d] = %v, want %v", id, got, want)
		}
	}
}

func TestSelfTimesChainAddsUp(t *testing.T) {
	// A root whose children tile it exactly has zero self time, so the
	// children's self times sum to the root's duration.
	spans := []Span{{ID: 1, Start: 0, End: 6}}
	for i := 0; i < 6; i++ {
		spans = append(spans, Span{ID: uint64(2 + i), Parent: 1, Start: float64(i), End: float64(i + 1)})
	}
	self := SelfTimes(spans)
	var sum float64
	for id, v := range self {
		if id != 1 {
			sum += v
		}
	}
	if self[1] != 0 || sum != 6 {
		t.Errorf("root self %v, children sum %v; want 0 and 6", self[1], sum)
	}
}

func TestDueLatencyAndLag(t *testing.T) {
	start := time.Unix(1000, 0)
	due := Due(start, 20, 3) // 20 jobs/s: job 3 is due 150ms in
	if want := start.Add(150 * time.Millisecond); !due.Equal(want) {
		t.Fatalf("Due = %v, want %v", due, want)
	}
	sent := due.Add(7 * time.Millisecond)
	done := sent.Add(40 * time.Millisecond)
	if got := Latency(due, done); got != 47*time.Millisecond {
		t.Errorf("Latency = %v, want 47ms (timed from due, not from sent)", got)
	}
	if got := Lag(due, sent); got != 7*time.Millisecond {
		t.Errorf("Lag = %v, want 7ms", got)
	}
	if got := Lag(due, due.Add(-time.Millisecond)); got != 0 {
		t.Errorf("Lag for an early send = %v, want 0", got)
	}
}

func TestValidName(t *testing.T) {
	for _, good := range []string{"job_s_p50", "kv.merge_s", "native.busy.kernel_s", "wc-dist-ooc", "9lives", strings.Repeat("a", 64)} {
		if !ValidName(good) {
			t.Errorf("ValidName(%q) = false", good)
		}
	}
	for _, bad := range []string{"", ".hidden", "_x", "-x", "has space", "a/b", "ünï", strings.Repeat("a", 65)} {
		if ValidName(bad) {
			t.Errorf("ValidName(%q) = true", bad)
		}
	}
	for _, u := range []string{"s", "ms", "1/s", "count", "MB/s", "%"} {
		if !ValidUnit(u) {
			t.Errorf("ValidUnit(%q) = false", u)
		}
	}
	if ValidUnit("per second") || ValidUnit("") {
		t.Error("ValidUnit accepted a unit with a space or an empty one")
	}
}

// TestBenchmarkJSON validates the repository's own BENCHMARK.json.
func TestBenchmarkJSON(t *testing.T) {
	doc, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseSpec(doc)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, w := range spec.Workloads {
		names[w.Name] = true
	}
	for _, w := range []string{"wc-native", "ts-dist", "wc-dist-ooc", "svc-small"} {
		if !names[w] {
			t.Errorf("BENCHMARK.json lacks workload %s", w)
		}
	}
	// A full comparison makes 4 + 22 runs per workload within 3420s; the
	// measured seconds may take at most half, leaving the rest for set-up,
	// traced probes and builds.
	if runs := 4 + 22*len(spec.Workloads); runs*spec.RunSeconds > 3420/2 {
		t.Errorf("%d runs of %ds take more than half of 3420s", runs, spec.RunSeconds)
	}
}

func TestParseSpecRejects(t *testing.T) {
	good := `{"command":["python3","perfbench/run.py"],"paths":["perfbench"],"run_seconds":10,
"workloads":[{"name":"a","why":"x"},{"name":"b","why":"y"}],
"end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.25}],
"per_layer":[{"name":"l","unit":"count","better":"higher"}]}`
	if _, err := ParseSpec([]byte(good)); err != nil {
		t.Fatalf("minimal spec rejected: %v", err)
	}
	for name, edit := range map[string][2]string{
		"extra top key":        {`"run_seconds":10,`, `"run_seconds":10,"x":1,`},
		"bound over 0.25":      {`"bound":0.25`, `"bound":0.3`},
		"missing bound":        {`,"bound":0.25`, ``},
		"bound on layer":       {`"better":"higher"}`, `"better":"higher","bound":0.1}`},
		"no setup_s":           {`"setup_s"`, `"setup"`},
		"one workload":         {`,{"name":"b","why":"y"}`, ``},
		"duplicate name":       {`"name":"l"`, `"name":"a"`},
		"bad better":           {`"better":"higher"`, `"better":"up"`},
		"absolute command":     {`"perfbench/run.py"`, `"/tmp/run.py"`},
		"path leaving repo":    {`["perfbench"]`, `["../x"]`},
		"run_seconds too long": {`"run_seconds":10`, `"run_seconds":61`},
		"two-line why":         {`"why":"x"`, `"why":"x\ny"`},
	} {
		doc := strings.Replace(good, edit[0], edit[1], 1)
		if doc == good {
			t.Fatalf("%s: edit did not apply", name)
		}
		if _, err := ParseSpec([]byte(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
