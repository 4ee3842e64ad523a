package kv

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func spillPairs(n int) []Pair {
	pairs := make([]Pair, n)
	for i := range pairs {
		pairs[i] = Pair{Key: []byte(fmt.Sprintf("key-%05d", i)), Value: bytes.Repeat([]byte{byte(i)}, 1+i%7)}
	}
	return pairs
}

// readSpill drains a spill file and returns the pairs plus the stream error.
func readSpill(t *testing.T, path string, compress bool, records int) ([]Pair, error) {
	t.Helper()
	it, err := OpenSpillFile(path, compress, records)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	got := Drain(it)
	return got, it.Err()
}

func TestSpillFileRoundTrip(t *testing.T) {
	pairs := spillPairs(500)
	var raw int64
	for _, p := range pairs {
		raw += p.Size()
	}
	for _, compress := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "run")
		st, err := WriteSpillFile(path, NewSliceIter(pairs), compress)
		if err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Records != len(pairs) || st.RawBytes != raw || st.StoredBytes != fi.Size() {
			t.Fatalf("compress=%v: stats %+v, want %d records, %d raw, %d stored", compress, st, len(pairs), raw, fi.Size())
		}
		got, err := readSpill(t, path, compress, st.Records)
		if err != nil {
			t.Fatalf("compress=%v: %v", compress, err)
		}
		if len(got) != len(pairs) {
			t.Fatalf("compress=%v: read %d pairs, want %d", compress, len(got), len(pairs))
		}
		for i := range pairs {
			if pairs[i].Compare(got[i]) != 0 {
				t.Fatalf("compress=%v: pair %d differs", compress, i)
			}
		}
	}
}

// TestSpillFileTruncated: a spill file cut short — mid-pair, or cleanly on
// a pair boundary — must surface an error from Err, never pass as a shorter
// complete stream.
func TestSpillFileTruncated(t *testing.T) {
	pairs := spillPairs(300)
	// Offset of pair 200's first byte in the uncompressed framing.
	boundary := 0
	for _, p := range pairs[:200] {
		boundary += uvarintLen(uint64(len(p.Key))) + uvarintLen(uint64(len(p.Value))) + len(p.Key) + len(p.Value)
	}
	for _, tc := range []struct {
		name     string
		compress bool
		cut      func(size int64) int64
	}{
		{"plain mid-pair", false, func(int64) int64 { return int64(boundary + 3) }},
		{"plain pair boundary", false, func(int64) int64 { return int64(boundary) }},
		{"plain last byte", false, func(size int64) int64 { return size - 1 }},
		{"deflate mid-stream", true, func(size int64) int64 { return size / 2 }},
		{"deflate last byte", true, func(size int64) int64 { return size - 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run")
			st, err := WriteSpillFile(path, NewSliceIter(pairs), tc.compress)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, tc.cut(st.StoredBytes)); err != nil {
				t.Fatal(err)
			}
			got, err := readSpill(t, path, tc.compress, st.Records)
			if err == nil {
				t.Fatalf("truncated file read back %d of %d pairs with no error", len(got), len(pairs))
			}
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("error %v does not wrap io.ErrUnexpectedEOF", err)
			}
		})
	}
}

// TestSpillFileWriteErrorRemovesFile: a failed write leaves no partial file.
func TestSpillFileWriteErrorRemovesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing-dir", "run")
	if _, err := WriteSpillFile(path, NewSliceIter(spillPairs(3)), false); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("partial spill file left behind: %v", err)
	}
}
