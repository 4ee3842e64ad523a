package dist

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"glasswing/internal/kv"
)

func storeRun(t *testing.T, n int) *kv.Run {
	t.Helper()
	pairs := make([]kv.Pair, n)
	for i := 0; i < n; i++ {
		pairs[i] = kv.Pair{Key: []byte{byte('a' + i)}, Value: []byte{1}}
	}
	return kv.NewRun(pairs, false)
}

// TestStoreEpochFenceAfterHandoff is the regression test for the
// re-delivery double-commit bug: a run staged at this node by a worker that
// was then drained — its partition handed off to a new home and eventually
// handed *back* — must not commit a second copy on top of the adopted one.
// The per-(task, partition) `have` set alone cannot catch it, because
// takePartition cleared those entries when the partition left; the staged
// run's epoch is the fence.
func TestStoreEpochFenceAfterHandoff(t *testing.T) {
	s := newShuffleStore()
	const part, task = 2, 7

	// Epoch 0: a sender stages task 7's partition 2 here, but its marker is
	// still in flight when the membership transition begins.
	s.stage(task, 0, part, storeRun(t, 3), 0)

	// Epoch 1: the partition is re-homed away (this node hands it off) —
	// nothing committed yet, so the handoff is empty — and epoch 2 hands it
	// back, now carrying the committed copy its interim home accepted.
	s.setEpoch(1)
	s.takePartition(part)
	s.setEpoch(2)
	s.stageHandoff(part, 2, task, storeRun(t, 3))
	if adopted, dupped := s.adoptHandoff(part, 2); adopted != 3 || dupped != 0 {
		t.Fatalf("adopt: accepted %d dupped %d, want 3/0", adopted, dupped)
	}

	// The stale epoch-0 marker finally lands: its staged run must be fenced
	// out as a duplicate, not committed alongside the adopted copy.
	acc, dup := s.commit(task, 0)
	if acc != 0 || dup != 3 {
		t.Fatalf("stale commit: accepted %d dupped %d, want 0/3", acc, dup)
	}
	iters, records, done := s.partitionIters(part)
	done()
	if got := len(iters); got != 1 || records != 3 {
		t.Fatalf("partition holds %d runs / %d records, want exactly the adopted one (1/3)", got, records)
	}
}

// TestStoreHandoffEpochFence mirrors the same fence on the handoff path: a
// handoff staged for an epoch the store has already moved past (the
// transition was overtaken by a death) is dropped, not adopted.
func TestStoreHandoffEpochFence(t *testing.T) {
	s := newShuffleStore()
	s.stageHandoff(4, 1, 0, storeRun(t, 5))
	s.setEpoch(2)
	if adopted, dupped := s.adoptHandoff(4, 1); adopted != 0 || dupped != 5 {
		t.Fatalf("stale handoff: adopted %d dupped %d, want 0/5", adopted, dupped)
	}
	iters, _, done := s.partitionIters(4)
	done()
	if iters != nil {
		t.Fatal("stale handoff runs became visible to reduce")
	}
}

// TestStoreDedupAcrossAttempts: after a death, a re-executed attempt may
// legitimately add partitions of a task whose other partitions are already
// committed here — per-task dedup would wrongly drop them; per-(task,
// partition) dedup must accept the new partition and drop the repeat.
func TestStoreDedupAcrossAttempts(t *testing.T) {
	s := newShuffleStore()
	s.stage(3, 0, 0, storeRun(t, 2), 0)
	s.commit(3, 0)

	// Attempt 1 (post-death re-execution) re-delivers partition 0 and newly
	// delivers partition 1 (inherited by this node in the re-homing).
	s.stage(3, 1, 0, storeRun(t, 2), 0)
	s.stage(3, 1, 1, storeRun(t, 4), 0)
	acc, dup := s.commit(3, 1)
	if acc != 4 || dup != 2 {
		t.Fatalf("re-execution commit: accepted %d dupped %d, want 4/2", acc, dup)
	}
}

// TestStoreTruncatedSpillFailsReduce: a spilled run whose file was cut
// mid-pair must surface through partitionIters' done, so the reduce attempt
// fails instead of reporting the partition short.
func TestStoreTruncatedSpillFailsReduce(t *testing.T) {
	dir := t.TempDir()
	s := newShuffleStore()
	s.enableSpill(1, func() (string, error) { return dir, nil }, nil, nil)
	const part = 3
	s.stage(0, 0, part, storeRun(t, 5), 0)
	s.stage(1, 0, part, storeRun(t, 6), 0)
	s.commit(0, 0)
	s.commit(1, 0)
	files, _ := filepath.Glob(filepath.Join(dir, "spill-*.run"))
	if len(files) != 2 {
		t.Fatalf("%d spill files, want one per committed run (2)", len(files))
	}
	fi, err := os.Stat(files[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(files[1], fi.Size()-1); err != nil {
		t.Fatal(err)
	}

	iters, records, done := s.partitionIters(part)
	if records != 11 {
		t.Fatalf("partition books %d records, want 11", records)
	}
	got := kv.Drain(kv.Merge(iters...))
	err = done()
	if err == nil {
		t.Fatalf("merge over a truncated spill returned %d of 11 records with no error", len(got))
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("error %v does not wrap io.ErrUnexpectedEOF", err)
	}
}
