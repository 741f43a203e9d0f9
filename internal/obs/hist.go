package obs

import (
	"math/bits"
	"sync/atomic"
)

// Hist is a log₂-bucketed uint64 histogram (typically of nanosecond
// durations): bucket i counts values v with bits.Len64(v) == i, i.e.
// v ∈ [2^(i-1), 2^i), with bucket 0 counting exact zeros. It is the
// one histogram implementation shared by the event sink (per-cause
// lock waits), the span recorder (transaction latency), and the
// registry (WAL append / pool fault / store scan latency). Observe is two atomic adds; the zero value is ready to
// use.
type Hist struct {
	b   [histBuckets]atomic.Uint64
	sum atomic.Uint64
}

// histBuckets covers every possible bits.Len64 result (0..64).
const histBuckets = 65

// Observe records one value.
func (h *Hist) Observe(v uint64) {
	h.b[bits.Len64(v)].Add(1)
	h.sum.Add(v)
}

// Bucket is one non-empty histogram bucket covering values in [Lo, Hi).
type Bucket struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
}

// bucketBounds returns the [lo, hi) range of bucket i. Bucket 64's hi
// saturates (1<<64 does not fit in a uint64); durations never get
// there.
func bucketBounds(i int) (lo, hi uint64) {
	if i > 0 {
		lo = 1 << (i - 1)
	}
	hi = uint64(1) << i
	if i >= 64 {
		hi = ^uint64(0)
	}
	return lo, hi
}

// Buckets returns the non-empty buckets in ascending value order. Safe
// to call concurrently with Observe (the result is a per-bucket-atomic
// view, not a consistent cut).
func (h *Hist) Buckets() []Bucket {
	var out []Bucket
	for i := 0; i < histBuckets; i++ {
		cnt := h.b[i].Load()
		if cnt == 0 {
			continue
		}
		lo, hi := bucketBounds(i)
		out = append(out, Bucket{Lo: lo, Hi: hi, Count: cnt})
	}
	return out
}

// Snap captures the histogram for delta arithmetic and quantile
// estimation.
func (h *Hist) Snap() HistSnap {
	var s HistSnap
	for i := 0; i < histBuckets; i++ {
		s.B[i] = h.b[i].Load()
	}
	s.Sum = h.sum.Load()
	return s
}

// Count returns the total number of observations.
func (h *Hist) Count() uint64 {
	var n uint64
	for i := 0; i < histBuckets; i++ {
		n += h.b[i].Load()
	}
	return n
}

// Quantile estimates the q-quantile (0 < q <= 1) of all observations;
// see HistSnap.Quantile.
func (h *Hist) Quantile(q float64) uint64 { return h.Snap().Quantile(q) }

// HistSnap is a copyable point-in-time view of a Hist. Subtracting two
// snapshots of the same histogram yields the distribution of the
// observations made between them — the harness uses this to report
// per-experiment-point percentiles off a shared recorder.
type HistSnap struct {
	B   [histBuckets]uint64
	Sum uint64
}

// Sub returns the bucket-wise difference s - prev (prev must be an
// earlier snapshot of the same histogram).
func (s HistSnap) Sub(prev HistSnap) HistSnap {
	var d HistSnap
	for i := range s.B {
		d.B[i] = s.B[i] - prev.B[i]
	}
	d.Sum = s.Sum - prev.Sum
	return d
}

// Count returns the total number of observations in the snapshot.
func (s HistSnap) Count() uint64 {
	var n uint64
	for _, c := range s.B {
		n += c
	}
	return n
}

// Quantile estimates the q-quantile (0 < q <= 1): it finds the bucket
// containing the ceil(q·count)-th observation and returns that
// bucket's midpoint. With log₂ buckets the estimate is within 2× of
// the true value, which is the resolution the histograms are built
// for. Returns 0 for an empty snapshot.
func (s HistSnap) Quantile(q float64) uint64 {
	total := s.Count()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i, c := range s.B {
		cum += c
		if cum >= rank {
			lo, hi := bucketBounds(i)
			return lo + (hi-lo)/2
		}
	}
	return 0
}
