package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread is (max−min)/median over rounds, the suite's run-to-run width.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sorted(xs)
	m := median(s)
	if m == 0 {
		return 0
	}
	return (s[len(s)-1] - s[0]) / math.Abs(m)
}

// iqrSpread is (Q3−Q1)/median: the width of a probe's many samples, which
// unlike max−min does not grow with the sample count.
func iqrSpread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 4 || m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / math.Abs(m)
}

// tail is the highest percentile of a timing that still has at least ten
// samples beyond it — a higher one would be read off fewer than ten
// observations and is noise.
type tail struct {
	Percentile float64 `json:"percentile"`
	Value      float64 `json:"value"`
	Samples    int     `json:"samples"`
}

// tailOf picks that percentile from the usual ladder; with fewer than 20
// samples not even the median has ten beyond it and there is no tail.
func tailOf(xs []float64) *tail {
	n := len(xs)
	for _, p := range []float64{99.99, 99.9, 99, 95, 90, 75, 50} {
		if float64(n)*(100-p)/100 >= 10 {
			return &tail{Percentile: p, Value: quantile(xs, p/100), Samples: n}
		}
	}
	return nil
}

// aggregate folds per-round values into one number per metric: the median
// over the replays of each episode, then the median over episodes, so
// that neither a noisy round nor an unusual generated input carries the
// result, and every input weighs the same however many times the clock
// let it replay. With one episode this is the plain median over rounds.
func aggregate(values []float64, episodes []int) float64 {
	byEp := map[int][]float64{}
	for i, v := range values {
		byEp[episodes[i]] = append(byEp[episodes[i]], v)
	}
	var meds []float64
	for _, xs := range byEp {
		meds = append(meds, median(xs))
	}
	return median(meds)
}
