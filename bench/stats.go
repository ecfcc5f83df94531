package main

import (
	"math"
	"sort"
	"time"
)

// sample is a set of measurements of one quantity, in any order.
type sample []float64

func (s sample) sorted() sample {
	out := append(sample(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile returns the p-quantile (0..1) by linear interpolation between
// the two nearest order statistics; 0 for an empty sample.
func (s sample) quantile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	xs := s.sorted()
	pos := p * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func (s sample) median() float64 { return s.quantile(0.5) }

func (s sample) mean() float64 { return share(s.sum(), float64(len(s))) }

func (s sample) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the exclusive method): the
// figure the benchmark contract judges steadiness by.
func (s sample) quartileSpread() float64 {
	n := len(s)
	if n < 2 {
		return 0
	}
	xs := s.sorted()
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			return xs[0]
		}
		if j >= n {
			return xs[n-1]
		}
		return xs[j-1] + (xs[j]-xs[j-1])*(pos-float64(j))
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// share is part ÷ whole, 0 when the whole is empty.
func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}
