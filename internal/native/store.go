package native

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"glasswing/internal/kv"
)

// storeShard is one partition's slice of the store: its own lock, run list,
// spill-file list, and a cached-byte tally readable without the lock (the
// spill-victim scan reads P atomics instead of walking every run).
type storeShard struct {
	mu     sync.Mutex
	runs   []*kv.Run
	spills []spillFile
	bytes  atomic.Int64
}

// spillFile is one spill file of a partition and the record count it was
// written with (OpenSpillFile checks the read-back against it).
type spillFile struct {
	path    string
	records int
}

// partitionStore is the native intermediate-data manager: per-partition run
// lists cached in memory, spilled to real temporary files when the
// aggregate cache exceeds the configured threshold (§III-B scaled down to
// one host). The store is sharded per partition — add serializes only
// against writers of the same partition, never the whole store — and all
// methods are safe for concurrent use.
type partitionStore struct {
	cfg Config
	// rec, when set, times spill and merge work and counts spill bytes.
	rec *recorder

	shards      []storeShard
	cachedBytes atomic.Int64 // aggregate across shards
	nspill      atomic.Int64

	dirMu sync.Mutex
	dir   string

	errMu    sync.Mutex
	firstErr error
}

func newPartitionStore(cfg Config) *partitionStore {
	return &partitionStore{
		cfg:    cfg,
		shards: make([]storeShard, cfg.Partitions),
	}
}

func (s *partitionStore) fail(err error) {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	if s.firstErr == nil {
		s.firstErr = err
	}
}

func (s *partitionStore) err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.firstErr
}

// add appends a run to partition g — O(1) under g's shard lock only — then
// spills the fattest partition if the aggregate cache is over threshold.
func (s *partitionStore) add(g int, run *kv.Run) error {
	n := run.StoredBytes()
	sh := &s.shards[g]
	sh.mu.Lock()
	sh.runs = append(sh.runs, run)
	sh.bytes.Add(n)
	sh.mu.Unlock()
	if s.rec != nil {
		s.rec.storeAccepted.Add(int64(run.Records))
	}
	if total := s.cachedBytes.Add(n); s.cfg.CacheThreshold > 0 && total > s.cfg.CacheThreshold {
		return s.spillLargest()
	}
	return nil
}

// spillLargest picks the partition with the largest cached-byte tally (a
// lock-free scan of the per-shard counters), detaches its runs, and streams
// them into one spill file. Concurrent callers may race to the same victim;
// the loser finds it empty and simply returns.
func (s *partitionStore) spillLargest() error {
	big, bigBytes := -1, int64(0)
	for i := range s.shards {
		if b := s.shards[i].bytes.Load(); b > bigBytes {
			big, bigBytes = i, b
		}
	}
	if big < 0 {
		return nil
	}
	sh := &s.shards[big]
	sh.mu.Lock()
	runs := sh.runs
	sh.runs = nil
	var taken int64
	for _, r := range runs {
		taken += r.StoredBytes()
	}
	sh.bytes.Add(-taken)
	sh.mu.Unlock()
	if len(runs) == 0 {
		return nil
	}
	s.cachedBytes.Add(-taken)
	return s.spill(big, runs)
}

// spillDir lazily creates the temporary spill directory.
func (s *partitionStore) spillDir() (string, error) {
	s.dirMu.Lock()
	defer s.dirMu.Unlock()
	if s.dir == "" {
		dir, err := os.MkdirTemp(s.cfg.SpillDir, "glasswing-spill-")
		if err != nil {
			return "", fmt.Errorf("native: creating spill dir: %w", err)
		}
		s.dir = dir
	}
	return s.dir, nil
}

// spill merges runs and streams them into one spill file for partition g,
// DEFLATE-compressed when the job compresses intermediate data.
func (s *partitionStore) spill(g int, runs []*kv.Run) error {
	dir, err := s.spillDir()
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("part%04d-%06d.run", g, s.nspill.Add(1)))
	end := s.rec.start(stageSpill)
	defer end()

	iters := make([]kv.Iterator, len(runs))
	for i, r := range runs {
		iters[i] = r.Iter()
	}
	st, err := kv.WriteSpillFile(path, kv.Merge(iters...), s.cfg.Compress)
	if err != nil {
		return fmt.Errorf("native: %w", err)
	}
	if s.rec != nil {
		s.rec.spillRecords.Add(int64(st.Records))
		s.rec.spillRawBytes.Add(st.RawBytes)
		s.rec.spillBytes.Add(st.StoredBytes)
	}
	sh := &s.shards[g]
	sh.mu.Lock()
	sh.spills = append(sh.spills, spillFile{path: path, records: st.Records})
	sh.mu.Unlock()
	return nil
}

// compactAll merges cached runs down to one, in parallel, for every
// partition holding more than the configured merge fan-in (a store built
// without defaults compacts anything with at least two runs).
func (s *partitionStore) compactAll(workers int) error {
	if workers < 1 {
		workers = 1
	}
	fanIn := s.cfg.MergeFanIn
	if fanIn < 1 {
		fanIn = 1
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for g := range s.shards {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			sh := &s.shards[g]
			sh.mu.Lock()
			runs := sh.runs
			sh.mu.Unlock()
			if len(runs) < 2 || len(runs) <= fanIn {
				return
			}
			end := s.rec.start(stageMerge)
			defer end()
			merged := kv.MergeRuns(runs, s.cfg.Compress)
			var before int64
			var beforeRecs int
			for _, r := range runs {
				before += r.StoredBytes()
				beforeRecs += r.Records
			}
			if s.rec != nil {
				s.rec.mergeIn.Add(int64(beforeRecs))
				s.rec.mergeOut.Add(int64(merged.Records))
			}
			delta := merged.StoredBytes() - before
			sh.mu.Lock()
			sh.runs = []*kv.Run{merged}
			sh.bytes.Add(delta)
			sh.mu.Unlock()
			s.cachedBytes.Add(delta)
		}()
	}
	wg.Wait()
	return s.err()
}

// iterators returns sorted iterators over all of partition g's data:
// cached runs plus spill files streamed back from disk. done closes the
// files and reports any read failure; call it once the merge drains.
func (s *partitionStore) iterators(g int) (iters []kv.Iterator, done func() error, err error) {
	sh := &s.shards[g]
	sh.mu.Lock()
	runs := sh.runs
	spills := sh.spills
	sh.mu.Unlock()
	for _, r := range runs {
		iters = append(iters, r.Iter())
	}
	var files []*kv.SpillFileIter
	done = func() error {
		var errs []error
		for _, f := range files {
			errs = append(errs, f.Err())
			f.Close()
		}
		if err := errors.Join(errs...); err != nil {
			return fmt.Errorf("native: %w", err)
		}
		return nil
	}
	for _, sf := range spills {
		f, err := kv.OpenSpillFile(sf.path, s.cfg.Compress, sf.records)
		if err != nil {
			done()
			return nil, nil, fmt.Errorf("native: %w", err)
		}
		files = append(files, f)
		iters = append(iters, f)
	}
	return iters, done, nil
}

func (s *partitionStore) spillCount() int {
	return int(s.nspill.Load())
}

// cleanup removes the spill directory.
func (s *partitionStore) cleanup() {
	s.dirMu.Lock()
	dir := s.dir
	s.dirMu.Unlock()
	if dir != "" {
		os.RemoveAll(dir)
	}
}
