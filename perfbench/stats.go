package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
)

// quantile returns the i/n quantile of sorted xs by the "exclusive"
// method of Python's statistics.quantiles: the value at 1-based rank
// i*(len+1)/n on the line through the order statistics around it. The
// steadiness check is defined with that function, so every percentile
// this benchmark prints — latency p50/p99 and the quartiles of a set of
// runs — uses the same arithmetic. It is computed from raw samples, never
// from histogram buckets.
func quantile(xs []float64, i, n int) float64 {
	ld := len(xs)
	switch ld {
	case 0:
		return 0
	case 1:
		return xs[0]
	}
	m := ld + 1
	j := i * m / n
	if j < 1 {
		j = 1
	} else if j > ld-1 {
		j = ld - 1
	}
	delta := i*m - j*n
	return (xs[j-1]*float64(n-delta) + xs[j]*float64(delta)) / float64(n)
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the 1/2 quantile of unsorted xs.
func median(xs []float64) float64 { return quantile(sorted(xs), 1, 2) }

// interquartileMean is the mean of the middle half of xs: like the
// median it ignores the tails, but it moves smoothly with the values.
func interquartileMean(xs []float64) float64 {
	s := sorted(xs)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// itemMedians takes timings of the same work made round after round,
// item k of every round timing the same item, and returns each item's
// median over the rounds.
func itemMedians(rounds [][]float64) []float64 {
	out := make([]float64, len(rounds[0]))
	xs := make([]float64, len(rounds))
	for k := range out {
		for r, round := range rounds {
			xs[r] = round[k]
		}
		out[k] = median(xs)
	}
	return out
}

// peakRSSMiB reads the peak resident set size (VmHWM) of a process from
// /proc, in MiB.
func peakRSSMiB(pid string) (float64, error) { return statusMiB(pid, "VmHWM:") }

// statusMiB reads a size field of a process's /proc status, in MiB.
func statusMiB(pid, field string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, os.ErrNotExist
}
