// Package stat holds the order statistics the benchmark reports, computed
// by the same rules as Python's statistics module so that any tooling
// reading the benchmark's output gets the same numbers from the same
// samples.
package stat

import "sort"

// Quantiles cuts xs into n intervals of equal probability and returns the
// n-1 cut points, as statistics.quantiles does with its default
// "exclusive" method. It returns nil for no samples or n < 2.
func Quantiles(xs []float64, n int) []float64 {
	if len(xs) == 0 || n < 2 {
		return nil
	}
	data := append([]float64(nil), xs...)
	sort.Float64s(data)
	ld := len(data)
	out := make([]float64, 0, n-1)
	if ld == 1 {
		for i := 1; i < n; i++ {
			out = append(out, data[0])
		}
		return out
	}
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		out = append(out, (data[j-1]*(float64(n)-delta)+data[j]*delta)/float64(n))
	}
	return out
}

// Median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for no samples.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	data := append([]float64(nil), xs...)
	sort.Float64s(data)
	mid := len(data) / 2
	if len(data)%2 == 1 {
		return data[mid]
	}
	return (data[mid-1] + data[mid]) / 2
}
