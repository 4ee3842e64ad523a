package native

import (
	"errors"

	"glasswing/internal/core"
	"glasswing/internal/kv"
)

// The per-node engine. Run drives these three steps from its pipeline
// goroutines, and each internal/dist worker drives them per map task and
// reduce partition, so both real runtimes share one collect, partition and
// reduce implementation (the paper's per-node pipeline, §III, repeated
// across nodes). Callers own the spans and ledgers around each step.

// ErrCombiner is the one combiner rule of the real runtimes: a combiner
// needs App.Combine and the hash-table collector, which groups values per
// key for it.
var ErrCombiner = errors.New("combiner requires App.Combine and the hash-table collector")

// CheckCombiner reports ErrCombiner when useCombiner is set for an app or
// collector that cannot run one.
func CheckCombiner(app *core.App, collector core.CollectorKind, useCombiner bool) error {
	if useCombiner && (app.Combine == nil || collector != core.HashTable) {
		return ErrCombiner
	}
	return nil
}

// Collect parses one input block and runs the map kernel over it. A batch
// kernel without a combiner fills the chunk's columnar batch directly.
// Otherwise output goes through the collector: the hash table groups values
// per key (and feeds the combiner, if enabled), the buffer pool appends
// pairs as emitted. A batch kernel's output is replayed into the collector
// in emission order, so collector and combiner behavior match the
// per-record kernel byte for byte while the per-record shim's setup is paid
// once per chunk. The caller must Release the chunk.
func Collect(app *core.App, block []byte, collector core.CollectorKind, useCombiner bool) *Chunk {
	c := getChunk()
	recs := app.Parse(block)
	c.records = len(recs)
	feed := func(emit func(k, v []byte)) {
		for _, rec := range recs {
			app.Map(rec, emit)
		}
	}
	if app.MapBatch != nil {
		app.MapBatch(recs, &c.batch)
		if !useCombiner {
			c.columnar = true
			return c
		}
		feed = func(emit func(k, v []byte)) {
			for i := 0; i < c.batch.Len(); i++ {
				p := c.batch.Pair(i)
				emit(p.Key, p.Value)
			}
		}
	}
	if collector != core.HashTable {
		feed(c.poolEmit)
		return c
	}
	feed(c.hashEmit)
	if useCombiner {
		for i := range c.entries {
			e := &c.entries[i]
			app.Combine(e.key, e.vals, c.poolEmit)
		}
		return c
	}
	for i := range c.entries {
		e := &c.entries[i]
		for _, v := range e.vals {
			c.out = append(c.out, kv.Pair{Key: e.key, Value: v})
		}
	}
	return c
}

// Records returns how many input records the chunk's kernel consumed.
func (c *Chunk) Records() int { return c.records }

// Pairs returns how many intermediate pairs the chunk holds (after the
// combiner, if one ran).
func (c *Chunk) Pairs() int {
	if c.columnar {
		return c.batch.Len()
	}
	return len(c.out)
}

// PartitionStats counts what Runs produced: the conserv_partition_* terms.
type PartitionStats struct {
	Records     int64
	Runs        int64
	RawBytes    int64
	StoredBytes int64
}

// Runs splits the chunk into n partitions with part, sorts each and
// serializes it into a run (DEFLATE-compressed when compress is set).
// runs[p] is partition p's run, nil when the chunk has no pairs for p. The
// slice is scratch valid until Release; the runs own their bytes.
func (c *Chunk) Runs(part func(key []byte, n int) int, n int, compress bool) ([]*kv.Run, PartitionStats) {
	if cap(c.runs) < n {
		c.runs = make([]*kv.Run, n)
	}
	runs := c.runs[:n]
	clear(runs)
	if c.columnar {
		// Counting-scatter the 12-byte index entries by partition, sort each
		// range in place and serialize it straight into a run: no []Pair
		// materialization, no sortedness re-verification.
		b := &c.batch
		bounds := b.PartitionRanges(part, n)
		for p := 0; p < n; p++ {
			lo, hi := bounds[p], bounds[p+1]
			if lo == hi {
				continue
			}
			b.SortRange(lo, hi)
			runs[p] = b.RunRange(lo, hi, compress)
		}
	} else {
		if cap(c.buckets) < n {
			c.buckets = make([][]kv.Pair, n)
		}
		buckets := c.buckets[:n]
		for p := range buckets {
			buckets[p] = buckets[p][:0]
		}
		for _, pr := range c.out {
			p := part(pr.Key, n)
			buckets[p] = append(buckets[p], pr)
		}
		for p, bucket := range buckets {
			if len(bucket) == 0 {
				continue
			}
			kv.SortPairs(bucket)
			runs[p] = kv.NewRun(bucket, compress)
		}
	}
	var st PartitionStats
	for _, r := range runs {
		if r == nil {
			continue
		}
		st.Records += int64(r.Records)
		st.Runs++
		st.RawBytes += r.RawBytes
		st.StoredBytes += r.StoredBytes()
	}
	return runs, st
}

// ReduceStats counts one partition's reduce input: the conserv_reduce_*
// terms.
type ReduceStats struct {
	Records int64 // merged records fed to the kernel (or passed through)
	Groups  int64 // key groups the kernel consumed (0 without one)
}

// Reduce k-way merges one partition's sorted iterators and applies the
// reduce kernel: ReduceBatch if the app has one, else Reduce, else the
// merged pairs pass straight through (reduce-less apps like TeraSort). The
// output is key-sorted and owns its bytes. Iterators that can fail (spill
// files) report through their own error methods, which the caller must
// check once Reduce returns.
func Reduce(app *core.App, iters []kv.Iterator) ([]kv.Pair, ReduceStats) {
	merged := kv.Merge(iters...)
	var st ReduceStats
	if app.Reduce == nil && app.ReduceBatch == nil {
		out := kv.Drain(merged)
		st.Records = int64(len(out))
		return out, st
	}
	gi := kv.NewGroupIter(merged)
	if app.ReduceBatch != nil {
		// The kernel appends into one partition-owned slab; the returned
		// pairs are views into it (the slab outlives them via the slice
		// references), so there is no per-pair copy-out.
		batch := new(kv.Batch)
		for {
			grp, ok := gi.Next()
			if !ok {
				return batch.Pairs(nil), st
			}
			st.Records += int64(len(grp.Values))
			st.Groups++
			app.ReduceBatch(grp.Key, grp.Values, batch)
		}
	}
	var out []kv.Pair
	emit := func(k, v []byte) {
		out = append(out, kv.Pair{
			Key:   append([]byte(nil), k...),
			Value: append([]byte(nil), v...),
		})
	}
	for {
		grp, ok := gi.Next()
		if !ok {
			return out, st
		}
		st.Records += int64(len(grp.Values))
		st.Groups++
		app.Reduce(grp.Key, grp.Values, emit)
	}
}
