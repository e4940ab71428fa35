package main

import "math/bits"

// subBits sets the histogram's resolution: 2^subBits buckets per power of
// two, so a bucket is at most 1/128 (0.8%) of its values wide.
const subBits = 7

// numBuckets covers every non-negative int64.
const numBuckets = (64 - subBits) << subBits

// histogram is a log-linear latency histogram in nanoseconds. Values below
// 2^subBits get a bucket each; above that every power of two is split into
// 2^subBits equal buckets. Quantiles interpolate linearly inside the
// bucket, so they move continuously with the data instead of snapping to
// bucket bounds. It is not safe for concurrent use: each worker owns one.
type histogram struct {
	counts []int64
	n      int64
}

func bucketOf(v int64) int {
	if v < 1<<subBits {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - subBits - 1
	return (e+1)<<subBits + int(v>>e) - 1<<subBits
}

// bucketRange returns bucket b's lowest value and width.
func bucketRange(b int) (lo, width float64) {
	if b < 1<<subBits {
		return float64(b), 1
	}
	e := b>>subBits - 1
	m := int64(b&(1<<subBits-1) + 1<<subBits)
	return float64(m << e), float64(int64(1) << e)
}

func (h *histogram) observe(v int64) {
	if h.counts == nil {
		h.counts = make([]int64, numBuckets)
	}
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *histogram) merge(o *histogram) {
	if o.n == 0 {
		return
	}
	if h.counts == nil {
		h.counts = make([]int64, numBuckets)
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0 < q < 1) in nanoseconds, or 0 for an
// empty histogram.
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, w := bucketRange(b)
			return lo + w*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	lo, w := bucketRange(numBuckets - 1)
	return lo + w
}
