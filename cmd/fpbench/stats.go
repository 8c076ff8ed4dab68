package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// tailLadder lists the percentiles a tail metric may report, highest first.
var tailLadder = []float64{99.9, 99.5, 99, 98, 95, 90, 75, 50}

// rank returns the 1-based nearest-rank position of percentile p among n
// sorted samples.
func rank(p float64, n int) int {
	// The epsilon keeps p·n/100 = 990 from rounding up to 991 when the
	// product of the decimal p and n comes out a hair above the integer.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// percentile returns the nearest-rank p-th percentile of xs, or 0 for no
// samples. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[rank(p, len(s))-1]
}

// tail returns the highest percentile of tailLadder that has at least ten
// samples above its rank, and which percentile that is. With too few
// samples for any of them it returns the maximum, reported as percentile
// 100.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	for _, p := range tailLadder {
		if r := rank(p, len(s)); len(s)-r >= 10 {
			return s[r-1], p
		}
	}
	return s[len(s)-1], 100
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// recorder collects named millisecond samples from many goroutines.
type recorder struct {
	mu sync.Mutex
	m  map[string][]float64
}

func newRecorder() *recorder { return &recorder{m: map[string][]float64{}} }

func (r *recorder) add(name string, v float64) {
	r.mu.Lock()
	r.m[name] = append(r.m[name], v)
	r.mu.Unlock()
}

func (r *recorder) get(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m[name]
}

// cpuReading is the process's runtime/metrics CPU account at one instant.
type cpuReading struct {
	busy  float64 // total − idle − idle-priority GC marking, seconds
	gc    float64 // GC CPU excluding idle-priority marking, seconds
	alloc float64 // cumulative heap allocation, bytes
}

var cpuMetricNames = []string{
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/gc/mark/idle:cpu-seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

// readCPU forces a collection first: the runtime refreshes its CPU classes
// only when a GC cycle ends, so an unforced read can be a cycle stale.
// Idle-priority marking is excluded because it only soaks up otherwise idle
// processors, and varies run to run.
func readCPU() cpuReading {
	runtime.GC()
	s := make([]metrics.Sample, len(cpuMetricNames))
	for i, n := range cpuMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return float64(s[i].Value.Uint64())
		}
		return s[i].Value.Float64()
	}
	return cpuReading{
		busy:  f(0) - f(1) - f(2),
		gc:    f(3) - f(2),
		alloc: f(4),
	}
}

// liveHeapMB is HeapAlloc after a forced collection, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}
