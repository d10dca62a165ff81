package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile interpolates the q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuTime is the process's user+sys CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAlloc is the live heap after collection. Two cycles, so objects
// parked in sync.Pool victim caches are gone too.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

var refSink float64

// refMflops times a fixed scalar multiply-add loop owned by the
// benchmark. It tells a slow machine from a slow program; it never
// normalises a metric.
func refMflops() float64 {
	const n = 1 << 24
	a, b, c, d := 1.0, 1.0, 1.0, 1.0
	t0 := time.Now()
	for i := 0; i < n; i++ {
		a = a*0.999999 + 0.25
		b = b*0.999998 + 0.5
		c = c*0.999997 + 0.75
		d = d*0.999996 + 1.0
	}
	el := time.Since(t0).Seconds()
	refSink = a + b + c + d
	return 8 * n / el / 1e6
}
