package native

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"glasswing/internal/apps"
	"glasswing/internal/core"
	"glasswing/internal/dfs"
	"glasswing/internal/kv"
)

func testRun(key, val string) *kv.Run {
	return kv.NewRun([]kv.Pair{{Key: []byte(key), Value: []byte(val)}}, false)
}

// TestStoreAddSpillError drives add into the spill path with an unwritable
// spill directory: the error must come back to the caller and via err().
func TestStoreAddSpillError(t *testing.T) {
	cfg := Config{
		Partitions:     4,
		CacheThreshold: 1, // every add over-budgets the cache
		SpillDir:       filepath.Join(t.TempDir(), "missing", "nested"),
	}.withDefaults()
	store := newPartitionStore(cfg)
	defer store.cleanup()

	var got error
	for i := 0; i < cfg.Partitions && got == nil; i++ {
		got = store.add(i, testRun(fmt.Sprintf("k%d", i), "v"))
	}
	if got == nil {
		t.Fatal("expected a spill error from an unwritable SpillDir")
	}
	store.fail(got)
	if store.err() == nil {
		t.Fatal("err() should surface the recorded failure")
	}
}

// TestStoreShardedConcurrentAdds hammers every partition from many
// goroutines with a tiny threshold (run under -race): all pairs must
// survive the spill/readback/compact machinery.
func TestStoreShardedConcurrentAdds(t *testing.T) {
	const parts, workers, perWorker = 16, 8, 50
	cfg := Config{
		Partitions:     parts,
		CacheThreshold: 256, // force constant spilling
		SpillDir:       t.TempDir(),
	}.withDefaults()
	store := newPartitionStore(cfg)
	defer store.cleanup()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				g := (w*perWorker + i) % parts
				key := fmt.Sprintf("w%02d-i%03d", w, i)
				if err := store.add(g, testRun(key, "x")); err != nil {
					store.fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := store.err(); err != nil {
		t.Fatal(err)
	}
	if store.spillCount() == 0 {
		t.Fatal("expected spills under a 256-byte threshold")
	}
	if err := store.compactAll(4); err != nil {
		t.Fatal(err)
	}
	total := 0
	for g := 0; g < parts; g++ {
		iters, done, err := store.iterators(g)
		if err != nil {
			t.Fatal(err)
		}
		total += len(kv.Drain(kv.Merge(iters...)))
		if err := done(); err != nil {
			t.Fatal(err)
		}
	}
	if want := workers * perWorker; total != want {
		t.Fatalf("drained %d pairs, want %d", total, want)
	}
}

// TestRunSurfacesStoreErrorWithoutDeadlock is the regression test for the
// pipeline deadlock: a partition worker that hits a store.add error used to
// return without draining partCh, wedging the map workers forever. The run
// must instead finish and surface the error.
func TestRunSurfacesStoreErrorWithoutDeadlock(t *testing.T) {
	data, _ := apps.WCData(9, 256<<10, 2000)
	blocks := dfs.SplitLines(data, 4<<10) // many chunks in flight
	spillDir := filepath.Join(t.TempDir(), "does-not-exist")
	done := make(chan error, 1)
	go func() {
		_, err := Run(apps.WordCount(), blocks, Config{
			Collector:        core.HashTable,
			CacheThreshold:   1 << 10,
			SpillDir:         spillDir,
			Buffering:        1,
			PartitionThreads: 1,
			KernelWorkers:    4,
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected a spill error, got success")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run deadlocked after a store error")
	}
}

// TestSpillStressManyPartitions runs a full job under heavy spill pressure
// with wide fan-out (run under -race in CI): spill + readback + compact
// under concurrency must preserve every count.
func TestSpillStressManyPartitions(t *testing.T) {
	data, want := apps.WCData(10, 512<<10, 1500)
	blocks := dfs.SplitLines(data, 2<<10)
	for _, compress := range []bool{false, true} {
		res, err := Run(apps.WordCount(), blocks, Config{
			Collector:        core.HashTable,
			KernelWorkers:    8,
			PartitionThreads: 8,
			Partitions:       32,
			Buffering:        3,
			CacheThreshold:   4 << 10,
			SpillDir:         t.TempDir(),
			Compress:         compress,
		})
		if err != nil {
			t.Fatalf("compress=%v: %v", compress, err)
		}
		if res.SpillFiles == 0 {
			t.Fatalf("compress=%v: expected spill files", compress)
		}
		if err := apps.VerifyCounts(res.Output(), want); err != nil {
			t.Fatalf("compress=%v: %v", compress, err)
		}
	}
}

// TestRunFailsOnTruncatedSpill: a spill file cut mid-pair between the map
// and reduce phases must fail the run with an error, never return the
// partition's output short. With one kernel worker the reduce phase runs
// partitions one at a time, so the first reduce call truncates the other
// partition's spill files before that partition opens them.
func TestRunFailsOnTruncatedSpill(t *testing.T) {
	data, _ := apps.WCData(11, 128<<10, 800)
	blocks := dfs.SplitLines(data, 4<<10)
	for _, compress := range []bool{false, true} {
		spillDir := t.TempDir()
		app := apps.WordCount()
		app.ReduceBatch = nil // route reduce through the wrapped per-group kernel
		reduce := app.Reduce
		var once sync.Once
		truncated := 0
		app.Reduce = func(key []byte, vals [][]byte, emit func(k, v []byte)) {
			once.Do(func() {
				other := 1 - kv.Partition(key, 2)
				files, _ := filepath.Glob(filepath.Join(spillDir, "glasswing-spill-*", fmt.Sprintf("part%04d-*.run", other)))
				for _, f := range files {
					fi, err := os.Stat(f)
					if err != nil {
						t.Error(err)
						continue
					}
					if err := os.Truncate(f, fi.Size()-1); err != nil {
						t.Error(err)
						continue
					}
					truncated++
				}
			})
			reduce(key, vals, emit)
		}
		res, err := Run(app, blocks, Config{
			Collector:      core.HashTable,
			KernelWorkers:  1,
			Partitions:     2,
			CacheThreshold: 4 << 10,
			Compress:       compress,
			SpillDir:       spillDir,
		})
		if truncated == 0 {
			t.Fatalf("compress=%v: no spill files of the second partition to truncate", compress)
		}
		if err == nil {
			t.Fatalf("compress=%v: run over %d truncated spill files succeeded with %d output pairs", compress, truncated, res.OutputPairs)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("compress=%v: error %v does not wrap io.ErrUnexpectedEOF", compress, err)
		}
	}
}
