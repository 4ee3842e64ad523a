package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"glasswing/internal/dist"
	"glasswing/internal/kv"
	"glasswing/internal/native"
	"glasswing/internal/obs"
	"glasswing/perfbench/benchstat"
)

// workloadSpec sets up one named input set: it generates the data from the
// seed, computes the reference answer, starts any service, and runs one
// warm-up job, returning a target ready to measure.
type workloadSpec struct {
	setup func(b *bench) (target, error)
	seeds func(seed int64) []int64 // every seed the inputs derive from
}

var workloads = map[string]workloadSpec{
	"wc-native":   {setup: setupWCNative, seeds: oneSeed},
	"ts-dist":     {setup: setupTSDist, seeds: oneSeed},
	"wc-dist-ooc": {setup: setupWCDistOOC, seeds: oneSeed},
	"svc-small":   {setup: setupSvc, seeds: svcSeeds},
}

func oneSeed(seed int64) []int64 { return []int64{seed} }

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// target is a set-up workload.
type target interface {
	// measure runs jobs for about d (at least one) and reports what they
	// cost; tr, when non-nil, attaches telemetry and collects layer data.
	measure(b *bench, d time.Duration, tr *tracer) *window
	// input is the dataset the layer probes of a traced run replay.
	input() *dataset
	close()
}

// window is what one measuring loop saw.
type window struct {
	lat        []float64 // seconds per successful job, call (or due time) to verified result
	lags       []float64 // seconds the generator issued each job late
	attempted  int
	failed     int
	peaks      []float64 // peak RSS in MB per job (closed loops) or per window
	mbPerS     float64   // input MB processed per second
	steal      float64   // share of host CPU time stolen by the hypervisor during the loop
	elapsed    float64   // wall seconds of the loop
	cpu        float64   // process CPU seconds charged to the jobs
	mallocs    uint64
	allocBytes uint64
}

// usage is a process resource sample: CPU time and heap allocation totals.
type usage struct {
	cpu            float64
	mallocs, bytes uint64
}

func sampleUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
	}
}

func (w *window) charge(from, to usage) {
	w.cpu += to.cpu - from.cpu
	w.mallocs += to.mallocs - from.mallocs
	w.allocBytes += to.bytes - from.bytes
}

// addTo folds the window's end-to-end metrics into r.
func (w *window) addTo(r *report) {
	r.attempted += w.attempted
	r.failed += w.failed
	n := float64(w.attempted)
	r.set("job_s_p50", benchstat.Median(w.lat))
	r.notes["job_s_p50"] = fmt.Sprintf("(n=%d)", len(w.lat))
	if pct, v, ok := benchstat.Tail(w.lat); ok && pct > 50 {
		name := fmt.Sprintf("job_s_p%g", pct)
		r.set(name, v)
		r.notes[name] = fmt.Sprintf("s (n=%d, %d beyond)", len(w.lat), benchstat.Beyond(len(w.lat), pct))
	}
	r.set("input_mb_s", w.mbPerS)
	r.notes["input_mb_s"] = "MB/s"
	r.set("cpu_s_per_job", w.cpu/n)
	r.set("allocs_per_job", float64(w.mallocs)/n)
	r.set("alloc_mb_per_job", float64(w.allocBytes)/1e6/n)
	r.set("peak_rss_mb", benchstat.Median(w.peaks))
	r.set("host_steal_frac", w.steal)
	r.notes["host_steal_frac"] = "frac (CPU time the hypervisor gave to other guests; high values explain slow runs)"
	r.set("failed_frac", float64(w.failed)/n)
	r.notes["failed_frac"] = fmt.Sprintf("frac (%d of %d jobs)", w.failed, w.attempted)
}

// setUp runs the workload's set-up setupReps times and keeps the last;
// the figure is the median set-up time.
func (b *bench) setUp(wl workloadSpec) (target, float64, error) {
	var t target
	var times []float64
	for i := 0; i < setupReps; i++ {
		if t != nil {
			t.close()
			t = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if t, err = wl.setup(b); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	runtime.GC()
	return t, benchstat.Median(times), nil
}

// measured is the untraced run: set up, measure for the run length, report
// the end-to-end metrics.
func (b *bench) measured(wl workloadSpec) (*report, error) {
	t, setup, err := b.setUp(wl)
	if err != nil {
		return nil, err
	}
	defer t.close()
	rep := newReport()
	t.measure(b, b.seconds, nil).addTo(rep)
	rep.set("setup_s", setup)
	return rep, nil
}

// cpuStat is the host's cumulative CPU time split from /proc/stat, in
// clock ticks: the steal column and the total of all columns.
type cpuStat struct{ steal, total float64 }

func readCPUStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var st cpuStat
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64) // a malformed column counts as 0
		st.total += v
		if i == 7 {
			st.steal = v
		}
	}
	return st
}

// stealSince is the share of host CPU time stolen since from.
func stealSince(from cpuStat) float64 {
	to := readCPUStat()
	return ratio(to.steal-from.steal, to.total-from.total)
}

// resetPeakRSS restarts the kernel's peak-RSS mark (VmHWM) from the current
// resident set, so the next peakRSSMB covers only what follows. Where the
// kernel refuses, the mark keeps covering the whole process lifetime.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in megabytes.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	var kb float64
	for _, line := range strings.Split(string(status), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// jobResult is one runtime call's result.
type jobResult struct {
	native *native.Result
	dist   *dist.Result
}

func (j jobResult) output() []kv.Pair {
	if j.native != nil {
		return j.native.Output()
	}
	return j.dist.Output()
}

// closedTarget runs one job at a time, back to back (a closed loop with one
// client): the next call starts when the previous result is verified.
type closedTarget struct {
	d    *dataset
	call func(tel *obs.Telemetry) (jobResult, error)
}

func (c *closedTarget) input() *dataset { return c.d }
func (c *closedTarget) close()          {}

// job makes one call and verifies it, charging resources to w only for
// the call itself; it also returns the call's wall time.
func (c *closedTarget) job(w *window, tel *obs.Telemetry) (jobResult, time.Duration, error) {
	before := sampleUsage()
	start := time.Now()
	res, err := c.call(tel)
	call := time.Since(start)
	w.charge(before, sampleUsage())
	if err != nil {
		return res, call, err
	}
	return res, call, c.d.verify(res.output())
}

func (c *closedTarget) measure(b *bench, d time.Duration, tr *tracer) *window {
	w := &window{}
	stat := readCPUStat()
	start := time.Now()
	prev := start
	for w.attempted == 0 || time.Since(start) < d {
		var tel *obs.Telemetry
		if tr != nil {
			tel = obs.NewTelemetry()
		}
		resetPeakRSS()
		t0 := time.Now()
		w.lags = append(w.lags, t0.Sub(prev).Seconds())
		res, call, err := c.job(w, tel)
		end := time.Now()
		w.peaks = append(w.peaks, peakRSSMB())
		w.attempted++
		if err != nil {
			w.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s job %d failed: %v\n", b.name, w.attempted, err)
		} else {
			w.lat = append(w.lat, end.Sub(t0).Seconds())
		}
		if tr != nil {
			tr.runtimeJob("job", t0, end, call, res, tel, err)
		}
		prev = end
	}
	w.elapsed = time.Since(start).Seconds()
	w.steal = stealSince(stat)
	// One job in flight: throughput is a job's input over its median time,
	// which a single slow job moves less than the loop's mean.
	w.mbPerS = float64(len(c.d.data)) / 1e6 / benchstat.Median(w.lat)
	return w
}

// warm runs one job outside any measurement and fails set-up if it fails.
func (c *closedTarget) warm() (target, error) {
	if _, _, err := c.job(&window{}, nil); err != nil {
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	return c, nil
}

// nativeCall runs d through native.Run with cfg.
func nativeCall(d *dataset, cfg native.Config) func(*obs.Telemetry) (jobResult, error) {
	return func(tel *obs.Telemetry) (jobResult, error) {
		c := cfg
		c.Telemetry = tel
		res, err := d.runNative(c)
		return jobResult{native: res}, err
	}
}

// distCall runs one loopback cluster job with o.
func distCall(o dist.Options) func(*obs.Telemetry) (jobResult, error) {
	return func(tel *obs.Telemetry) (jobResult, error) {
		opts := o
		opts.Telemetry = tel
		res, err := dist.RunLoopback(opts)
		return jobResult{dist: res}, err
	}
}

// wc-native: 8 MiB of Zipf text, 50k-word vocabulary, hash collector
// without a combiner, 8 partitions, one kernel worker per CPU. 128 KiB
// splits give each partition 64 runs, past the pipeline's 32-run merge
// fan-in, so the merge phase runs.
func setupWCNative(b *bench) (target, error) {
	d := wcDataset(b.seed, 8<<20, 128<<10)
	return (&closedTarget{d: d, call: nativeCall(d, d.nativeConfig(b.nproc))}).warm()
}

// ts-dist: 32 MiB of TeraGen records through a loopback cluster of one
// worker per CPU, buffer-pool collector, 8 range partitions.
func setupTSDist(b *bench) (target, error) {
	d := tsDataset(b.seed, 32<<20)
	o, err := d.distOptions(b.nproc, b.tmp)
	if err != nil {
		return nil, err
	}
	return (&closedTarget{d: d, call: distCall(o)}).warm()
}

// wc-dist-ooc: 8 MiB of text, combiner off, blocks ingested into the
// workers' block stores (replication 2, locality-preferred), and a
// 256 KiB spill threshold far below the shuffle volume.
func setupWCDistOOC(b *bench) (target, error) {
	d := wcDataset(b.seed, 8<<20, blockSize)
	o, err := d.distOptions(b.nproc, b.tmp)
	if err != nil {
		return nil, err
	}
	o.Blockstore = "local"
	o.Replication = 2
	o.Tuning.SpillThreshold = 256 << 10
	return (&closedTarget{d: d, call: distCall(o)}).warm()
}
