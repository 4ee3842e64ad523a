package kv

import (
	"encoding/binary"
	"math/rand"
	"strconv"
	"testing"
)

// wcRuns builds n word-count-shaped runs of perRun pairs each: Zipf-drawn
// words from a fixed vocabulary as keys, a 4-byte count of one as value,
// sorted and serialized through a Batch the way the native partitioner
// builds them.
func wcRuns(n, perRun int) []*Run {
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 1, 49_999)
	vocab := make([][]byte, 50_000)
	for i := range vocab {
		vocab[i] = []byte("w" + strconv.Itoa(i))
	}
	var one [4]byte
	binary.LittleEndian.PutUint32(one[:], 1)
	runs := make([]*Run, n)
	var b Batch
	for r := range runs {
		b.Reset()
		for i := 0; i < perRun; i++ {
			b.AppendKV(vocab[zipf.Uint64()], one[:])
		}
		b.Sort()
		runs[r] = b.RunRange(0, b.Len(), false)
	}
	return runs
}

// sumReduce is a word-count reduce over a merge of runs: group by key, sum
// the counts, append one pair per key to out.
func sumReduce(runs []*Run, out *Batch) {
	iters := make([]Iterator, len(runs))
	for i, r := range runs {
		iters[i] = r.Iter()
	}
	gi := NewGroupIter(Merge(iters...))
	var enc [4]byte
	for g, ok := gi.Next(); ok; g, ok = gi.Next() {
		var total uint32
		for _, v := range g.Values {
			total += binary.LittleEndian.Uint32(v)
		}
		binary.LittleEndian.PutUint32(enc[:], total)
		out.AppendKV(g.Key, enc[:])
	}
}

var benchRun *Run

// BenchmarkMergeRuns compacts 64 word-count runs into one, as the native
// merge phase does for a partition past its merge fan-in.
func BenchmarkMergeRuns(b *testing.B) {
	runs := wcRuns(64, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRun = MergeRuns(runs, false)
	}
}

// BenchmarkGroupReduce merges 64 word-count runs, groups them by key and
// sums each group, as a partition's reduce does.
func BenchmarkGroupReduce(b *testing.B) {
	runs := wcRuns(64, 2048)
	var out Batch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Reset()
		sumReduce(runs, &out)
	}
}

// TestMergeAllocsPerRun pins that merging allocates per input run, not per
// pair: 64 runs of 2048 pairs (131k pairs) must merge, and merge-group-
// reduce into a warm output batch, in a few allocations per run.
func TestMergeAllocsPerRun(t *testing.T) {
	runs := wcRuns(64, 2048)
	limit := float64(2*len(runs) + 16)
	if a := testing.AllocsPerRun(3, func() { benchRun = MergeRuns(runs, false) }); a > limit {
		t.Errorf("MergeRuns: %.0f allocations for %d runs, want at most %.0f", a, len(runs), limit)
	}
	var out Batch
	sumReduce(runs, &out)
	if a := testing.AllocsPerRun(3, func() { out.Reset(); sumReduce(runs, &out) }); a > limit {
		t.Errorf("group reduce: %.0f allocations for %d runs, want at most %.0f", a, len(runs), limit)
	}
}
