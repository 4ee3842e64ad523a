// Package benchstat holds the benchmark's pure arithmetic: medians and the
// tail-percentile rule, span self time, open-loop due-time accounting, and
// the metric-name and BENCHMARK.json schema rules. Nothing here touches the
// runtimes, so every rule is unit-tested on its own.
package benchstat

import (
	"math"
	"regexp"
	"sort"
	"time"
)

// Median returns the middle of xs (the mean of the two middles for an even
// count), or NaN for no samples. xs is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// TailPercentiles are the candidate tail percentiles, highest first.
var TailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// MinBeyond is how many samples must lie above a percentile for it to be
// reported: fewer, and the figure is one or two outliers, not a tail.
const MinBeyond = 10

// Tail returns the highest candidate percentile that has at least
// MinBeyond samples above it, with its nearest-rank value. ok is false when
// not even the median qualifies (fewer than 2*MinBeyond samples).
func Tail(xs []float64) (pct, value float64, ok bool) {
	n := len(xs)
	for _, p := range TailPercentiles {
		if Beyond(n, p) >= MinBeyond {
			return p, Percentile(xs, p), true
		}
	}
	return 0, 0, false
}

// Beyond is how many of n samples lie strictly above the nearest-rank p-th
// percentile.
func Beyond(n int, p float64) int {
	return n - rank(n, p)
}

// rank is the 1-based nearest-rank index of the p-th percentile of n
// samples. The epsilon keeps decimal percentiles like 99.9 from rounding
// up a whole rank (99.9% of 10000 is 9990, not 9990.000000000002).
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// Percentile returns the nearest-rank p-th percentile of xs (NaN for no
// samples).
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sorted(xs)[rank(len(xs), p)-1]
}

// Span is the minimal interval shape self time needs: an id, the id of the
// enclosing span (0 = none) and start/end in seconds.
type Span struct {
	ID, Parent uint64
	Start, End float64
}

// SelfTimes returns each span's self time by id: its duration minus the
// part of its interval that its direct children cover (overlapping children
// are counted once; child time outside the parent is ignored).
func SelfTimes(spans []Span) map[uint64]float64 {
	kids := map[uint64][][2]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	out := make(map[uint64]float64, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of [lo,hi) covered by the union of ivs.
func covered(lo, hi float64, ivs [][2]float64) float64 {
	clipped := make([][2]float64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]float64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB float64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curA, curB, open = iv[0], iv[1], true
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// Due is when open-loop request i is due: start plus i periods of a fixed
// rate (requests per second).
func Due(start time.Time, rate float64, i int) time.Time {
	return start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
}

// Latency is an open-loop request's latency: from when it was due, not
// when it was sent, so a generator or system stall is charged to every
// request it delayed.
func Latency(due, done time.Time) time.Duration { return done.Sub(due) }

// Lag is how late the generator sent a request (never negative: a request
// sent early is sent on time).
func Lag(due, sent time.Time) time.Duration { return max(sent.Sub(due), 0) }

// nameRE is the metric-name alphabet; ValidName adds the length and
// leading-character rules.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// ValidName reports whether s is a legal metric or workload name: 1-64
// characters from [A-Za-z0-9_.-], starting with a letter or digit.
func ValidName(s string) bool {
	if len(s) == 0 || len(s) > 64 || !nameRE.MatchString(s) {
		return false
	}
	c := s[0]
	return c != '_' && c != '.' && c != '-'
}

var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// ValidUnit reports whether s is a legal unit ("s", "ms", "1/s", "count").
func ValidUnit(s string) bool { return unitRE.MatchString(s) }
