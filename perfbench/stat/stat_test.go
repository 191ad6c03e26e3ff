package stat

import (
	"math"
	"testing"
)

// The expected values are what Python's statistics.quantiles returns for
// the same samples.
func TestQuantilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		n    int
		want []float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 4, []float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 7}, 4, []float64{1.8125, 5.25, 8.5}},
		{[]float64{5, 1}, 4, []float64{0, 3, 6}},
	}
	for _, c := range cases {
		got := Quantiles(c.xs, c.n)
		if len(got) != len(c.want) {
			t.Fatalf("Quantiles(%v, %d) = %v, want %v", c.xs, c.n, got, c.want)
		}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Fatalf("Quantiles(%v, %d) = %v, want %v", c.xs, c.n, got, c.want)
			}
		}
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("Median = %v, want 2.5", got)
	}
}
