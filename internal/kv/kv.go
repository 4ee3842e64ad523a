// Package kv provides the key/value machinery shared by all three MapReduce
// engines in this repository: pair representation, a compact length-prefixed
// wire/disk encoding with optional DEFLATE compression, in-memory sort
// buffers, k-way merge of sorted runs, and key grouping for reduction.
//
// Keys are ordered by bytes.Compare, matching Hadoop's BytesWritable and the
// paper's TeraSort semantics.
package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
)

// Pair is one key/value record.
type Pair struct {
	Key   []byte
	Value []byte
}

// Size returns the payload size in bytes (key + value).
func (p Pair) Size() int64 { return int64(len(p.Key) + len(p.Value)) }

// Compare orders pairs by key, then by value for determinism.
func (p Pair) Compare(q Pair) int {
	if c := bytes.Compare(p.Key, q.Key); c != 0 {
		return c
	}
	return bytes.Compare(p.Value, q.Value)
}

// Hash returns a stable 32-bit FNV-1a hash of the key, used for
// partitioning. Applications may override partitioning with their own
// function (the paper's Configuration API allows overloading the hash).
func Hash(key []byte) uint32 {
	h := fnv.New32a()
	h.Write(key)
	return h.Sum32()
}

// Partition maps a key to one of n partitions.
func Partition(key []byte, n int) int {
	if n <= 1 {
		return 0
	}
	return int(Hash(key) % uint32(n))
}

// SortPairs orders pairs by key (then value) in place. This is the shared
// sort path for every engine's partition buffers: slices.SortFunc on the
// method expression avoids the closure state and interface boxing of
// sort.Slice.
func SortPairs(pairs []Pair) { slices.SortFunc(pairs, Pair.Compare) }

// PairsSorted reports whether pairs are in key-then-value order.
func PairsSorted(pairs []Pair) bool { return slices.IsSortedFunc(pairs, Pair.Compare) }

// Buffer accumulates pairs in memory and tracks their payload volume.
type Buffer struct {
	Pairs []Pair
	bytes int64
}

// Add appends a pair.
func (b *Buffer) Add(p Pair) {
	b.Pairs = append(b.Pairs, p)
	b.bytes += p.Size()
}

// AddKV appends a key/value pair.
func (b *Buffer) AddKV(key, value []byte) { b.Add(Pair{Key: key, Value: value}) }

// Len returns the number of pairs.
func (b *Buffer) Len() int { return len(b.Pairs) }

// Bytes returns the accumulated payload volume.
func (b *Buffer) Bytes() int64 { return b.bytes }

// Sort orders the pairs by key (then value) in place.
func (b *Buffer) Sort() { SortPairs(b.Pairs) }

// Sorted reports whether the buffer is in key order.
func (b *Buffer) Sorted() bool { return PairsSorted(b.Pairs) }

// Reset empties the buffer, retaining capacity.
func (b *Buffer) Reset() {
	b.Pairs = b.Pairs[:0]
	b.bytes = 0
}

// Marshal encodes pairs as varint-length-prefixed frames:
// uvarint(count), then per pair uvarint(len(key)), uvarint(len(value)),
// key bytes, value bytes. The encoded size is computed exactly up front, so
// the blob is built in one allocation.
func Marshal(pairs []Pair) []byte {
	size := uvarintLen(uint64(len(pairs)))
	for _, p := range pairs {
		size += uvarintLen(uint64(len(p.Key))) + uvarintLen(uint64(len(p.Value))) + len(p.Key) + len(p.Value)
	}
	buf := binary.AppendUvarint(make([]byte, 0, size), uint64(len(pairs)))
	for _, p := range pairs {
		buf = appendFrame(buf, p)
	}
	return buf
}

// appendFrame appends one pair's frame to buf.
func appendFrame(buf []byte, p Pair) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(p.Key)))
	buf = binary.AppendUvarint(buf, uint64(len(p.Value)))
	buf = append(buf, p.Key...)
	return append(buf, p.Value...)
}

// Unmarshal decodes a blob produced by Marshal. The pairs alias blob.
func Unmarshal(blob []byte) ([]Pair, error) {
	c, err := newFrameCursor(blob)
	if err != nil {
		return nil, err
	}
	pairs := make([]Pair, 0, c.count)
	for {
		p, ok, err := c.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return pairs, nil
		}
		pairs = append(pairs, p)
	}
}

// frameCursor walks the frames of a Marshal blob one pair at a time. It is
// the one frame decoder: Unmarshal drains it into a slice, Run.Iter and
// MergeRuns stream from it without materializing pairs. Decoded pairs are
// views into the blob (capacity-limited, so appending to one never
// overwrites the frame after it).
type frameCursor struct {
	blob  []byte
	off   int    // start of the next frame
	read  uint64 // pairs decoded so far
	count uint64 // pairs the blob's header announces
}

// newFrameCursor reads blob's pair count and positions the cursor on the
// first frame.
func newFrameCursor(blob []byte) (frameCursor, error) {
	count, n := binary.Uvarint(blob)
	if n <= 0 {
		return frameCursor{}, fmt.Errorf("kv: pair count: %s", badUvarint)
	}
	// Every pair carries at least two framing bytes, so a count beyond the
	// blob size is corrupt; rejecting it here also bounds the preallocation
	// against hostile counts.
	if count > uint64(len(blob)) {
		return frameCursor{}, fmt.Errorf("kv: pair count %d exceeds blob size %d", count, len(blob))
	}
	return frameCursor{blob: blob, off: n, count: count}, nil
}

// next decodes the next pair, or reports ok=false once all count pairs
// have been read. Bytes after the last announced pair are ignored.
func (c *frameCursor) next() (p Pair, ok bool, err error) {
	if c.read == c.count {
		return Pair{}, false, nil
	}
	i, off := c.read, c.off
	kl, n := binary.Uvarint(c.blob[off:])
	if n <= 0 {
		return Pair{}, false, fmt.Errorf("kv: pair %d key length: %s", i, badUvarint)
	}
	off += n
	vl, n := binary.Uvarint(c.blob[off:])
	if n <= 0 {
		return Pair{}, false, fmt.Errorf("kv: pair %d value length: %s", i, badUvarint)
	}
	off += n
	// Validate in uint64 space before any int conversion: lengths near
	// 2^63 would otherwise overflow the bounds arithmetic.
	rem := uint64(len(c.blob) - off)
	if kl > rem || vl > rem-kl {
		return Pair{}, false, fmt.Errorf("kv: pair %d overruns blob (%d+%d > %d remaining)", i, kl, vl, rem)
	}
	k, v := off+int(kl), off+int(kl)+int(vl)
	c.off = v
	c.read++
	return Pair{Key: c.blob[off:k:k], Value: c.blob[k:v:v]}, true, nil
}

// badUvarint describes a varint that binary.Uvarint rejects (n <= 0).
const badUvarint = "truncated or overlong uvarint"
