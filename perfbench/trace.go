package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"glasswing/internal/blockstore"
	"glasswing/internal/core"
	"glasswing/internal/jobsvc"
	"glasswing/internal/kv"
	"glasswing/internal/obs"
	"glasswing/perfbench/benchstat"
)

// benchNode is the Chrome-trace process that holds the benchmark's own
// spans; runtime spans keep their node ids.
const benchNode = 99

// benchSpanBase keeps the benchmark's span ids clear of runtime-minted ids.
const benchSpanBase = 1 << 62

// tracer collects a traced run: the benchmark's own spans around layer
// calls, the runtimes' spans (shifted onto the run's clock), per-job layer
// observations, and ledger failures. A run uses it from one goroutine.
type tracer struct {
	epoch    time.Time
	spans    []obs.Span
	nextID   uint64
	vals     map[string][]float64 // per-job observations; reported as medians
	counts   map[string]float64   // totals over the run
	ledgers  int                  // conservation checks made
	problems []string
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), vals: map[string][]float64{}, counts: map[string]float64{}}
}

func (t *tracer) observe(name string, v float64) { t.vals[name] = append(t.vals[name], v) }

// openSpan is a benchmark span that has started; end records it.
type openSpan struct {
	t      *tracer
	id     uint64
	parent uint64
	stage  string
	start  time.Time
}

func (t *tracer) begin(stage string, parent uint64) openSpan {
	t.nextID++
	return openSpan{t: t, id: benchSpanBase + t.nextID, parent: parent, stage: stage, start: time.Now()}
}

// end records the span and returns its duration in seconds.
func (s openSpan) end() float64 { return s.endAt(time.Now()) }

func (s openSpan) endAt(end time.Time) float64 {
	s.t.spans = append(s.t.spans, obs.Span{
		Node: benchNode, Stage: s.stage, ID: s.id, Parent: s.parent,
		Start: s.start.Sub(s.t.epoch).Seconds(), End: end.Sub(s.t.epoch).Seconds(),
	})
	return end.Sub(s.start).Seconds()
}

// span records a finished interval.
func (t *tracer) span(stage string, parent uint64, start, end time.Time) uint64 {
	s := t.begin(stage, parent)
	s.start = start
	s.endAt(end)
	return s.id
}

// runtimeJob records one verified native or dist call: benchmark spans
// around the call and its verification, the runtime's own spans, its layer
// figures and its ledger check.
func (t *tracer) runtimeJob(stage string, start, end time.Time, call time.Duration, res jobResult, tel *obs.Telemetry, err error) {
	root := t.span(stage, 0, start, end)
	t.span("call", root, start, start.Add(call))
	t.span("verify", root, start.Add(call), end)
	shift := start.Sub(t.epoch).Seconds()
	for _, s := range tel.Spans.Spans() {
		s.Start += shift
		s.End += shift
		t.spans = append(t.spans, s)
	}
	if err != nil {
		return
	}
	c := func(name string) int64 { return tel.Metrics.Counter(name).Value() }
	switch {
	case res.native != nil:
		r := res.native
		t.observe("native.map_s", r.MapElapsed.Seconds())
		t.observe("native.merge_s", r.MergeDelay.Seconds())
		t.observe("native.reduce_s", r.ReduceElapsed.Seconds())
		t.observe("native.busy.kernel_s", r.Stages["map/kernel"].Seconds())
		t.observe("native.busy.partition_s", r.Stages["map/partition"].Seconds())
		t.observe("native.busy.merge_s", r.Stages["merge"].Seconds())
		t.observe("native.busy.reduce_s", r.Stages["reduce"].Seconds())
		t.observe("native.pairs", float64(r.IntermediatePairs))
		t.observe("native.spill_files", float64(r.SpillFiles))
		t.observe("native.spill_bytes", float64(r.SpillBytes))
		t.ledger(stage+" (native)", c, false)
	case res.dist != nil:
		r := res.dist
		frames := 0.0
		for _, m := range tel.Metrics.Snapshot() {
			if m.Name == "dist_frame_bytes" {
				frames += float64(m.Count)
			}
		}
		t.distLayer(r.MapElapsed.Seconds(), r.ReduceElapsed.Seconds(), call.Seconds(), frames, float64(r.MapRetries), c)
		t.ledger(stage+" (dist)", c, true)
	}
}

// distLayer records one dist job's phase times and transport, store and
// locality counters. totalS is the job's whole wall time as seen from
// outside the runtime, so other_s holds cluster formation, ingest and
// teardown.
func (t *tracer) distLayer(mapS, reduceS, totalS, frames, retries float64, c func(string) int64) {
	f := func(name string) float64 { return float64(c(name)) }
	t.observe("dist.map_s", mapS)
	t.observe("dist.reduce_s", reduceS)
	t.observe("dist.other_s", totalS-mapS-reduceS)
	t.observe("dist.shuffle_bytes", f("dist_shuffle_bytes_total"))
	t.observe("dist.net_bytes_sent", f("conserv_net_bytes_sent_total"))
	t.observe("dist.frames", frames)
	t.observe("dist.net_queue_s", f("dist_net_queue_ns_total")/1e9)
	t.observe("dist.net_write_s", f("dist_net_write_ns_total")/1e9)
	t.observe("dist.spill_bytes", f("conserv_spill_stored_bytes_total"))
	t.observe("dist.spill_files", f("conserv_spill_files_total"))
	dup, acc := f("conserv_store_dup_dropped_records_total"), f("conserv_store_accepted_records_total")
	t.observe("dist.dup_dropped_frac", ratio(dup, dup+acc))
	t.observe("dist.map_retries", retries)
	local, remote := f("dist_read_local_bytes_total"), f("dist_read_remote_bytes_total")
	t.observe("dist.read_local_bytes", local)
	t.observe("dist.read_remote_bytes", remote)
	t.observe("dist.locality_frac", ratio(local, local+remote))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ledger checks a job's conservation equalities: map pairs out equal reduce
// records in, and (dist) shuffle records and bytes sent equal received plus
// lost. A failure is reported with its terms.
func (t *tracer) ledger(label string, c func(string) int64, isDist bool) {
	t.ledgers++
	check := func(what string, lhs, rhs int64, terms string) {
		if lhs != rhs {
			t.problems = append(t.problems, fmt.Sprintf("%s ledger: %s: %d != %d (%s)", label, what, lhs, rhs, terms))
		}
	}
	mapOut, reduceIn := c("conserv_map_pairs_out_total"), c("conserv_reduce_records_in_total")
	check("map pairs out = reduce records in", mapOut, reduceIn,
		fmt.Sprintf("map_pairs_out=%d reduce_records_in=%d", mapOut, reduceIn))
	if !isDist {
		return
	}
	for _, unit := range []string{"records", "bytes"} {
		sent := c("conserv_net_" + unit + "_sent_total")
		recv := c("conserv_net_" + unit + "_recv_total")
		lost := c("conserv_net_" + unit + "_lost_total")
		check("net "+unit+" sent = received + lost", sent, recv+lost,
			fmt.Sprintf("sent=%d recv=%d lost=%d", sent, recv, lost))
	}
}

// svcJob records one service job: spans for generator lag, submission and
// the wait for a verified result, the service's own timings, and (when
// counters were fetched) the job's dist layer figures and ledger.
func (t *tracer) svcJob(o svcOutcome) {
	root := t.span("svc/job", 0, o.due, o.done)
	t.span("svc/gen-lag", root, o.due, o.sent)
	t.span("svc/submit", root, o.sent, o.submitted)
	t.span("svc/wait-result", root, o.submitted, o.done)
	t.counts["jobsvc.rejected"] += b2f(isRejected(o.err))
	t.counts["jobsvc.evicted"] += b2f(o.st.State == jobsvc.StateEvicted)
	if o.err != nil {
		return
	}
	t.observe("jobsvc.submit_s_p50", o.submitted.Sub(o.sent).Seconds())
	t.observe("jobsvc.queue_wait_s_p50", float64(o.st.WaitMS)/1e3)
	t.observe("jobsvc.run_s_p50", float64(o.st.RunMS)/1e3)
	if o.counters == nil || o.st.Stats == nil {
		return
	}
	c := func(name string) int64 { return o.counters[name] }
	st := o.st.Stats
	t.distLayer(float64(st.MapMS)/1e3, float64(st.ReduceMS)/1e3, float64(o.st.RunMS)/1e3,
		float64(o.counters["dist_frame_bytes"]), float64(st.MapRetries), c)
	t.ledger("svc job "+o.st.ID+" (dist)", c, true)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// jobMetrics fetches a finished service job's metric registry: counters by
// value, histograms by sample count.
func (s *service) jobMetrics(id string) (map[string]int64, error) {
	resp, err := s.api.HTTP.Get(s.api.Base + "/jobs/" + id + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var doc struct {
		Metrics []obs.Metric `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, m := range doc.Metrics {
		switch {
		case len(m.Labels) > 0:
		case m.Type == "counter":
			out[m.Name] = int64(m.Value)
		case m.Type == "histogram":
			out[m.Name] = m.Count
		}
	}
	return out, nil
}

// traced is the per-layer run: half the run length untraced and half
// traced (their job_s_p50 ratio is the tracing overhead), then the layer
// probes over the workload's input.
func (b *bench) traced(wl workloadSpec) (*report, error) {
	t, _, err := b.setUp(wl)
	if err != nil {
		return nil, err
	}
	defer t.close()
	rep := newReport()
	tr := newTracer()
	half := max(b.seconds/2, time.Second)
	plain := t.measure(b, half, nil)
	traced := t.measure(b, half, tr)
	for _, w := range []*window{plain, traced} {
		rep.attempted += w.attempted
		rep.failed += w.failed
	}
	rep.set("bench.trace_overhead_frac", benchstat.Median(traced.lat)/benchstat.Median(plain.lat)-1)
	rep.set("bench.gen_lag_s_p95", benchstat.Percentile(plain.lags, 95))

	d := t.input()
	probes := []struct {
		name string
		run  func() error
		skip bool
	}{
		{"replay", func() error { return tr.replay(d, rep) }, false},
		{"blockstore", func() error { return tr.blockstoreProbe(d, filepath.Join(b.tmp, "blockstore-probe")) }, false},
		{"native", func() error { return tr.probeJob("probe/native", d, nativeCall(d, d.nativeConfig(b.nproc))) }, tr.vals["native.map_s"] != nil},
		{"dist", func() error { return tr.probeDist(b, d) }, tr.vals["dist.map_s"] != nil},
		{"jobsvc", func() error { return tr.probeService(b, d) }, tr.vals["jobsvc.run_s_p50"] != nil},
		{"scaling", func() error { return tr.scaling(b, d, rep) }, false},
	}
	for _, p := range probes {
		if p.skip {
			continue
		}
		rep.attempted++
		if err := p.run(); err != nil {
			rep.failed++
			rep.problem("%s probe: %v", p.name, err)
		}
	}
	tr.finish(rep)
	return rep, tr.write(b)
}

// probeJob runs one traced runtime call outside the measured loop.
func (t *tracer) probeJob(stage string, d *dataset, call func(*obs.Telemetry) (jobResult, error)) error {
	tel := obs.NewTelemetry()
	start := time.Now()
	res, wall, err := (&closedTarget{d: d, call: call}).job(&window{}, tel)
	t.runtimeJob(stage, start, time.Now(), wall, res, tel, err)
	return err
}

func (t *tracer) probeDist(b *bench, d *dataset) error {
	o, err := d.distOptions(b.nproc, b.tmp)
	if err != nil {
		return err
	}
	return t.probeJob("probe/dist", d, distCall(o))
}

// probeService runs a few jobs cut from d through a fresh service, one
// at a time, so the jobsvc layer is measured on every workload. Their
// dist counters are not fetched: dist figures come from d's own jobs.
func (t *tracer) probeService(b *bench, d *dataset) error {
	j, err := newSvcJob(d.slice(svcJobBytes), svcTenants[0], svcPriorities[0])
	if err != nil {
		return err
	}
	s, err := startService(b)
	if err != nil {
		return err
	}
	defer s.close()
	for i := 0; i < 4; i++ {
		now := time.Now()
		o := s.run(j, now, now, false)
		t.svcJob(o)
		if o.err != nil {
			return o.err
		}
	}
	return nil
}

// replay runs d through the layer calls of the native pipeline on one
// goroutine — parse, map, partition, sort, encode, merge, reduce — with a
// span around each call, verifies the output, and compares the sum of the
// layers' self times with a serialized native.Run of the same input.
func (t *tracer) replay(d *dataset, rep *report) error {
	app, part := d.coreApp()
	if part == nil {
		part = kv.Partition
	}
	root := t.begin("replay", 0)
	timed := func(stage string, fn func()) {
		s := t.begin(stage, root.id)
		fn()
		s.end()
	}
	var b kv.Batch
	runs := make([][]*kv.Run, partitions)
	var records, pairs, runBytes int64
	for _, blk := range d.blocks {
		var recs []kv.Pair
		timed("apps.parse", func() { recs = app.Parse(blk) })
		b.Reset()
		timed("apps.map", func() { app.MapBatch(recs, &b) })
		records += int64(len(recs))
		pairs += int64(b.Len())
		var bounds []int
		timed("kv.partition", func() { bounds = b.PartitionRanges(part, partitions) })
		for p := 0; p < partitions; p++ {
			lo, hi := bounds[p], bounds[p+1]
			if lo == hi {
				continue
			}
			var r *kv.Run
			timed("kv.sort", func() { b.SortRange(lo, hi) })
			timed("kv.encode", func() { r = b.RunRange(lo, hi, false) })
			runBytes += r.StoredBytes()
			runs[p] = append(runs[p], r)
		}
	}
	var out []kv.Pair
	for p := range runs {
		var merged *kv.Run
		timed("kv.merge", func() { merged = kv.MergeRuns(runs[p], false) })
		timed("apps.reduce", func() { out = append(out, reduceRun(app, merged)...) })
	}
	root.end()
	if err := d.verify(out); err != nil {
		return fmt.Errorf("replay output: %w", err)
	}

	cfg := d.nativeConfig(1)
	cfg.PartitionThreads, cfg.Buffering = 1, 1
	serial := t.begin("native.serialized", 0)
	res, err := d.runNative(cfg)
	wall := serial.end()
	if err == nil {
		err = d.verify(res.Output())
	}
	if err != nil {
		return fmt.Errorf("serialized native run: %w", err)
	}

	self := t.selfByStage()
	var sum float64
	for _, stage := range []string{"apps.parse", "apps.map", "kv.partition", "kv.sort", "kv.encode", "kv.merge", "apps.reduce"} {
		sum += self[stage]
	}
	rep.set("apps.parse_s", self["apps.parse"])
	rep.set("apps.map_s", self["apps.map"])
	rep.set("apps.reduce_s", self["apps.reduce"])
	rep.set("apps.records_in", float64(records))
	rep.set("apps.pairs_out", float64(pairs))
	rep.set("kv.partition_s", self["kv.partition"])
	rep.set("kv.sort_s", self["kv.sort"])
	rep.set("kv.encode_s", self["kv.encode"])
	rep.set("kv.merge_s", self["kv.merge"])
	rep.set("kv.run_bytes", float64(runBytes))
	rep.set("bench.replay_sum_frac", sum/wall)
	rep.notes["bench.replay_sum_frac"] = fmt.Sprintf("(layer self-time sum %.4fs / serialized native.Run %.4fs)", sum, wall)
	return nil
}

// reduceRun applies app's reduce to one merged partition run (identity for
// apps without a reduce, like TeraSort).
func reduceRun(app *core.App, run *kv.Run) []kv.Pair {
	it := run.Iter()
	if app.ReduceBatch == nil && app.Reduce == nil {
		return kv.Drain(it)
	}
	gi := kv.NewGroupIter(it)
	if app.ReduceBatch != nil {
		out := new(kv.Batch)
		for g, ok := gi.Next(); ok; g, ok = gi.Next() {
			app.ReduceBatch(g.Key, g.Values, out)
		}
		return out.Pairs(nil)
	}
	var out []kv.Pair
	for g, ok := gi.Next(); ok; g, ok = gi.Next() {
		app.Reduce(g.Key, g.Values, func(k, v []byte) {
			out = append(out, kv.Pair{Key: bytes.Clone(k), Value: bytes.Clone(v)})
		})
	}
	return out
}

// selfByStage sums the benchmark spans' self times by stage.
func (t *tracer) selfByStage() map[string]float64 {
	var spans []benchstat.Span
	stage := map[uint64]string{}
	for _, s := range t.spans {
		if s.Node == benchNode {
			spans = append(spans, benchstat.Span{ID: s.ID, Parent: s.Parent, Start: s.Start, End: s.End})
			stage[s.ID] = s.Stage
		}
	}
	out := map[string]float64{}
	for id, self := range benchstat.SelfTimes(spans) {
		out[stage[id]] += self
	}
	return out
}

// blockstoreProbe writes d's blocks into a fresh block store and reads them
// back, verifying every byte.
func (t *tracer) blockstoreProbe(d *dataset, dir string) error {
	defer os.RemoveAll(dir)
	root := t.begin("blockstore", 0)
	put := t.begin("blockstore.put", root.id)
	st, err := blockstore.Open(dir)
	if err != nil {
		return err
	}
	var n int64
	for i, blk := range d.blocks {
		if err := st.Put(i, blk); err != nil {
			return err
		}
		n += int64(len(blk))
	}
	putS := put.end()
	read := t.begin("blockstore.read", root.id)
	for i, blk := range d.blocks {
		got, err := st.ReadAll(i)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, blk) {
			return fmt.Errorf("block %d read back %d bytes differing from the %d written", i, len(got), len(blk))
		}
	}
	readS := read.end()
	root.end()
	t.observe("blockstore.put_s", putS)
	t.observe("blockstore.read_s", readS)
	t.observe("blockstore.bytes", float64(n))
	return nil
}

// scaling times d at one and two kernel workers (native.Run) and one and
// two cluster workers (dist.RunLoopback): the paper's vertical and
// horizontal axes at the widths a two-CPU host supports. Each side is the
// fastest of a few interleaved runs.
func (t *tracer) scaling(b *bench, d *dataset, rep *report) error {
	pairs := 2
	if len(d.data) < 1<<20 {
		pairs = 5
	}
	native1 := &closedTarget{d: d, call: nativeCall(d, d.nativeConfig(1))}
	native2 := &closedTarget{d: d, call: nativeCall(d, d.nativeConfig(2))}
	s, err := speedup(t, "scale/native", native1, native2, pairs)
	if err != nil {
		return err
	}
	rep.set("scale.native_speedup_2", s)
	var dists [2]*closedTarget
	for i := range dists {
		o, err := d.distOptions(i+1, b.tmp)
		if err != nil {
			return err
		}
		dists[i] = &closedTarget{d: d, call: distCall(o)}
	}
	if s, err = speedup(t, "scale/dist", dists[0], dists[1], pairs); err != nil {
		return err
	}
	rep.set("scale.dist_speedup_2", s)
	return nil
}

// speedup returns one's best time over two's, alternating which runs first.
func speedup(t *tracer, stage string, one, two *closedTarget, pairs int) (float64, error) {
	best := [2]float64{math.Inf(1), math.Inf(1)}
	for i := 0; i < pairs; i++ {
		order := []int{0, 1}
		if i%2 == 1 {
			order = []int{1, 0}
		}
		for _, k := range order {
			c := []*closedTarget{one, two}[k]
			span := t.begin(fmt.Sprintf("%s-%dw", stage, k+1), 0)
			_, call, err := c.job(&window{}, nil)
			span.end()
			if err != nil {
				return 0, err
			}
			best[k] = min(best[k], call.Seconds())
		}
	}
	return best[0] / best[1], nil
}

// finish folds the per-job observations (medians) and totals into rep,
// along with any ledger failures.
func (t *tracer) finish(rep *report) {
	for name, vals := range t.vals {
		rep.set(name, benchstat.Median(vals))
	}
	for _, name := range []string{"jobsvc.rejected", "jobsvc.evicted"} {
		rep.set(name, t.counts[name])
	}
	for _, p := range t.problems {
		rep.problem("%s", p)
	}
	rep.set("bench.ledger_checks", float64(t.ledgers))
	rep.notes["bench.ledger_checks"] = fmt.Sprintf("count (%d failed)", len(t.problems))
}

// write saves the Chrome trace and the per-layer table under outDir and
// prints the table.
func (t *tracer) write(b *bench) error {
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", b.name, b.seed))
	f, err := os.Create(base + ".trace.json")
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTraceWithMeta(f, t.spans, runMeta(b)); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	table := t.table()
	if err := os.WriteFile(base+".layers.txt", []byte(table), 0o644); err != nil {
		return err
	}
	fmt.Print(table)
	fmt.Printf("trace %s.trace.json\n", base)
	return nil
}

// table renders the benchmark spans by stage: calls, total and self time.
func (t *tracer) table() string {
	type row struct {
		calls       int
		total, self float64
	}
	rows := map[string]*row{}
	for _, s := range t.spans {
		if s.Node != benchNode {
			continue
		}
		r := rows[s.Stage]
		if r == nil {
			r = &row{}
			rows[s.Stage] = r
		}
		r.calls++
		r.total += s.End - s.Start
	}
	for stage, self := range t.selfByStage() {
		rows[stage].self = self
	}
	stages := make([]string, 0, len(rows))
	for s := range rows {
		stages = append(stages, s)
	}
	sort.Strings(stages)
	var sb strings.Builder
	fmt.Fprintf(&sb, "layer %-22s %8s %12s %12s\n", "span", "calls", "total_s", "self_s")
	for _, s := range stages {
		r := rows[s]
		fmt.Fprintf(&sb, "layer %-22s %8d %12.6f %12.6f\n", s, r.calls, r.total, r.self)
	}
	return sb.String()
}
