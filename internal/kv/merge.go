package kv

// Iterator yields pairs in key order. Implementations are not safe for
// concurrent use; in the simulation each iterator is driven by one process.
type Iterator interface {
	// Next returns the next pair, or ok=false when exhausted.
	Next() (Pair, bool)
}

// SliceIter iterates over an in-memory pair slice (which must already be
// sorted if the iterator feeds a merge).
type SliceIter struct {
	pairs []Pair
	i     int
}

// NewSliceIter returns an iterator over pairs.
func NewSliceIter(pairs []Pair) *SliceIter { return &SliceIter{pairs: pairs} }

// Next implements Iterator.
func (s *SliceIter) Next() (Pair, bool) {
	if s.i >= len(s.pairs) {
		return Pair{}, false
	}
	p := s.pairs[s.i]
	s.i++
	return p, true
}

// mergeIter is a k-way merge over sorted inputs using a binary min-heap
// ordered by (pair, source index), so equal pairs leave in source order.
// The heap is a concrete slice with its own sift-down: no container/heap
// interface dispatch per comparison.
type mergeIter struct {
	h []mergeEntry
}

type mergeEntry struct {
	pair Pair
	src  int
	it   Iterator
}

func (m *mergeIter) less(i, j int) bool {
	if c := m.h[i].pair.Compare(m.h[j].pair); c != 0 {
		return c < 0
	}
	return m.h[i].src < m.h[j].src
}

// down restores the heap order below i.
func (m *mergeIter) down(i int) {
	n := len(m.h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		j := l
		if r := l + 1; r < n && m.less(r, l) {
			j = r
		}
		if !m.less(j, i) {
			return
		}
		m.h[i], m.h[j] = m.h[j], m.h[i]
		i = j
	}
}

// Merge returns an iterator producing the union of the sorted inputs in key
// order. This is the multi-way merge the paper's intermediate-data manager
// runs continuously (§III-B) and the reduce input reader runs one last time
// (§III-C).
func Merge(iters ...Iterator) Iterator {
	m := &mergeIter{h: make([]mergeEntry, 0, len(iters))}
	for i, it := range iters {
		if p, ok := it.Next(); ok {
			m.h = append(m.h, mergeEntry{pair: p, src: i, it: it})
		}
	}
	for i := len(m.h)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
	return m
}

// Next implements Iterator.
func (m *mergeIter) Next() (Pair, bool) {
	if len(m.h) == 0 {
		return Pair{}, false
	}
	top := m.h[0].pair
	if p, ok := m.h[0].it.Next(); ok {
		m.h[0].pair = p
	} else {
		last := len(m.h) - 1
		m.h[0] = m.h[last]
		m.h[last] = mergeEntry{}
		m.h = m.h[:last]
	}
	m.down(0)
	return top, true
}

// Group is one reduce input: a key and all of its values.
type Group struct {
	Key    []byte
	Values [][]byte
}

// Bytes returns the group payload volume.
func (g Group) Bytes() int64 {
	n := int64(len(g.Key))
	for _, v := range g.Values {
		n += int64(len(v))
	}
	return n
}

// GroupIter folds a key-sorted pair iterator into per-key groups. It
// reuses one Values backing array across groups (up to maxReusedValues
// entries): a group's Values is valid only until the next call to Next, so
// a caller that keeps a group past that must clone Values. The key and
// value bytes themselves belong to the underlying iterator and are not
// reused.
type GroupIter struct {
	it      Iterator
	pending Pair
	have    bool
	vals    [][]byte
}

// maxReusedValues caps the Values array a GroupIter carries from one group
// to the next. Holding the array of a key with hundreds of thousands of
// values for the rest of a merge would raise the live heap, and with it the
// GC's heap goal, by that much.
const maxReusedValues = 1 << 14

// NewGroupIter wraps a sorted iterator.
func NewGroupIter(it Iterator) *GroupIter { return &GroupIter{it: it} }

// Next returns the next key group, or ok=false at the end of input. The
// returned Values is overwritten by the following Next.
func (g *GroupIter) Next() (Group, bool) {
	if !g.have {
		p, ok := g.it.Next()
		if !ok {
			return Group{}, false
		}
		g.pending, g.have = p, true
	}
	key := g.pending.Key
	if cap(g.vals) > maxReusedValues {
		g.vals = nil
	}
	g.vals = append(g.vals[:0], g.pending.Value)
	g.have = false
	for {
		p, ok := g.it.Next()
		if !ok {
			return Group{Key: key, Values: g.vals}, true
		}
		if string(p.Key) != string(key) {
			g.pending, g.have = p, true
			return Group{Key: key, Values: g.vals}, true
		}
		g.vals = append(g.vals, p.Value)
	}
}

// Drain collects all remaining pairs from it.
func Drain(it Iterator) []Pair {
	var out []Pair
	for {
		p, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, p)
	}
}
