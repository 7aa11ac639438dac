package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of vals by linear interpolation
// between closest ranks; NaN for an empty slice.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// heapSampler records the post-GC live heap of every collection:
// runtime/metrics refreshes /gc/heap/live:bytes at the end of each
// cycle, and a finalizer on a sentinel that is re-armed after each
// collection reads it once per cycle, so no cycle is missed between
// polls.
type heapSampler struct {
	mu      sync.Mutex
	live    []float64
	stopped bool
}

// sentinel carries a pointer so that it is not tiny-allocated: the
// runtime may never finalize tiny objects.
type sentinel struct{ _ *int }

const liveHeapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{}
	h.arm()
	return h
}

func (h *heapSampler) arm() {
	runtime.SetFinalizer(&sentinel{}, func(*sentinel) {
		if h.sample() {
			h.arm()
		}
	})
}

// sample records the live heap of the last collection and reports
// whether sampling continues.
func (h *heapSampler) sample() bool {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	h.mu.Lock()
	defer h.mu.Unlock()
	if s[0].Value.Kind() == metrics.KindUint64 && !h.stopped {
		h.live = append(h.live, float64(s[0].Value.Uint64()))
	}
	return !h.stopped
}

// stopMB stops the sampler and returns the peak live heap in MiB, taken
// as the 99th percentile over the window's collections: the maximum of a
// few hundred cycles depends on which instant the slowest cycle caught,
// its 99th percentile does not.
func (h *heapSampler) stopMB() float64 {
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stopped = true
	return quantile(h.live, 0.99) / (1 << 20)
}
