package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refQuantile is the definition the benchmark's percentiles must agree
// with, written out on a sorted array: the value at 1-based rank
// q*(n+1), on the line through the two order statistics around that rank
// (the first two or last two when the rank falls outside 1..n).
func refQuantile(s []float64, q float64) float64 {
	pos := q * float64(len(s)+1)
	lo := math.Min(math.Max(math.Floor(pos), 1), float64(len(s)-1))
	return s[int(lo)-1] + (pos-lo)*(s[int(lo)]-s[int(lo)-1])
}

func TestQuantileMatchesSortedReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{2, 3, 4, 5, 10, 11, 99, 100, 101, 1000, 4097} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.ExpFloat64() * 1e3
		}
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		// Median: the middle element, or the mean of the two middle ones.
		want := s[n/2]
		if n%2 == 0 {
			want = (s[n/2-1] + s[n/2]) / 2
		}
		if got := median(xs); math.Abs(got-want) > 1e-9*want {
			t.Errorf("n=%d: median %v, want %v", n, got, want)
		}
		for _, c := range []struct {
			i, n int
			q    float64
		}{{1, 4, 0.25}, {3, 4, 0.75}, {99, 100, 0.99}} {
			got, want := quantile(s, c.i, c.n), refQuantile(s, c.q)
			if math.Abs(got-want) > 1e-9*math.Abs(want) {
				t.Errorf("n=%d: q%.2f = %v, want %v", n, c.q, got, want)
			}
		}
	}
}

// Known values of Python's statistics.quantiles(range(1, 11), n=4) and of
// the p99 of 1..1000, so the method is pinned, not just self-consistent.
func TestQuantileKnownValues(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		i    int
		want float64
	}{{1, 2.75}, {2, 5.5}, {3, 8.25}} {
		if got := quantile(s, c.i, 4); got != c.want {
			t.Errorf("quartile %d of 1..10 = %v, want %v", c.i, got, c.want)
		}
	}
	k := make([]float64, 1000)
	for i := range k {
		k[i] = float64(i + 1)
	}
	if got := quantile(k, 99, 100); math.Abs(got-990.99) > 1e-9 {
		t.Errorf("p99 of 1..1000 = %v, want 990.99", got)
	}
	if got := quantile([]float64{7}, 99, 100); got != 7 {
		t.Errorf("p99 of one sample = %v, want 7", got)
	}
}

// The interquartile mean averages the middle half and ignores the tails.
func TestInterquartileMean(t *testing.T) {
	if got := interquartileMean([]float64{1000, 4, 3, -50, 2, 1, 5, 6}); got != 3.5 {
		t.Errorf("interquartile mean = %v, want 3.5", got)
	}
	if got := interquartileMean([]float64{7}); got != 7 {
		t.Errorf("interquartile mean of one value = %v, want 7", got)
	}
}
