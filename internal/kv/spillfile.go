package kv

import (
	"bufio"
	"compress/flate"
	"fmt"
	"io"
	"os"
)

// Spill files are the on-disk form of sorted intermediate data in both real
// runtimes: a Writer stream of pairs (no leading count), DEFLATE-compressed
// as a whole when asked. WriteSpillFile produces one; OpenSpillFile streams
// it back for a reduce-side merge.

// SpillStats describes one written spill file.
type SpillStats struct {
	Records     int
	RawBytes    int64 // pair payload volume before framing
	StoredBytes int64 // bytes on disk, after framing and any compression
}

// WriteSpillFile streams the sorted pairs of it into a new file at path,
// DEFLATE-compressed when compress is set. On error the partial file is
// removed.
func WriteSpillFile(path string, it Iterator, compress bool) (SpillStats, error) {
	f, err := os.Create(path)
	if err != nil {
		return SpillStats{}, fmt.Errorf("kv: creating spill file: %w", err)
	}
	st, err := writeSpill(f, it, compress)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("kv: closing spill file: %w", cerr)
	}
	if err != nil {
		os.Remove(path)
		return SpillStats{}, err
	}
	return st, nil
}

func writeSpill(f *os.File, it Iterator, compress bool) (SpillStats, error) {
	var out io.Writer = f
	var fw *flate.Writer
	if compress {
		var err error
		if fw, err = flate.NewWriter(f, flate.BestSpeed); err != nil {
			return SpillStats{}, err
		}
		out = fw
	}
	w := NewWriter(out)
	for {
		p, ok := it.Next()
		if !ok {
			break
		}
		if err := w.Write(p); err != nil {
			return SpillStats{}, fmt.Errorf("kv: writing spill file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return SpillStats{}, fmt.Errorf("kv: writing spill file: %w", err)
	}
	if fw != nil {
		if err := fw.Close(); err != nil {
			return SpillStats{}, fmt.Errorf("kv: writing spill file: %w", err)
		}
	}
	fi, err := f.Stat()
	if err != nil {
		return SpillStats{}, fmt.Errorf("kv: sizing spill file: %w", err)
	}
	return SpillStats{Records: w.Count(), RawBytes: w.Bytes(), StoredBytes: fi.Size()}, nil
}

// SpillFileIter streams a spill file back in sorted order. Next reports
// exhaustion on a clean end and on any failure alike; Err tells them apart
// and must be checked once the consumer stops. Close releases the file.
type SpillFileIter struct {
	f    *os.File
	it   *StreamIter
	want int
	got  int
	err  error
}

// OpenSpillFile opens a spill file written by WriteSpillFile with the same
// compress setting. records is the count WriteSpillFile reported: a stream
// that ends cleanly short of it (a file cut on a pair boundary) is an error
// too, so a damaged file can never pass for a complete one.
func OpenSpillFile(path string, compress bool, records int) (*SpillFileIter, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("kv: opening spill file: %w", err)
	}
	var src io.Reader = bufio.NewReaderSize(f, 64<<10)
	if compress {
		src = flate.NewReader(src)
	}
	return &SpillFileIter{f: f, it: NewStreamIter(NewReader(src)), want: records}, nil
}

// Next implements Iterator.
func (s *SpillFileIter) Next() (Pair, bool) {
	if s.err != nil {
		return Pair{}, false
	}
	p, ok := s.it.Next()
	if ok {
		s.got++
		return p, true
	}
	if err := s.it.Err(); err != nil {
		s.err = fmt.Errorf("kv: reading spill file %s: %w", s.f.Name(), err)
	} else if s.got != s.want {
		s.err = fmt.Errorf("kv: spill file %s ended after %d of %d records: %w", s.f.Name(), s.got, s.want, io.ErrUnexpectedEOF)
	}
	return Pair{}, false
}

// Err reports why the stream stopped early (nil after a complete read, or
// while the stream is still being consumed).
func (s *SpillFileIter) Err() error { return s.err }

// Close releases the file.
func (s *SpillFileIter) Close() error { return s.f.Close() }
