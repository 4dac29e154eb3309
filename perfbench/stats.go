package main

import "sort"

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).  Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// interval is a half-open time range in nanoseconds.
type interval struct{ lo, hi int64 }

// unionLen returns the length of the union of ivs clipped to [lo, hi):
// the time at least one of them was running.
func unionLen(ivs []interval, lo, hi int64) int64 {
	c := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			c = append(c, interval{a, b})
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i].lo < c[j].lo })
	var total, end int64
	end = -1 << 62
	for _, iv := range c {
		if iv.lo > end {
			total += iv.hi - iv.lo
			end = iv.hi
		} else if iv.hi > end {
			total += iv.hi - end
			end = iv.hi
		}
	}
	return total
}
