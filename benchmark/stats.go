package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by nearest rank. Failed
// operations enter as +Inf, so they exceed every percentile.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// residentSampler tracks the peak of the Go runtime's resident memory
// estimate (memory mapped from the OS minus memory returned to it),
// sampling every few milliseconds until stopped.
type residentSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak atomic.Uint64
}

var residentMetrics = []string{"/memory/classes/total:bytes", "/memory/classes/heap/released:bytes"}

func residentBytes(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64() - s[1].Value.Uint64()
}

func newSamples() []metrics.Sample {
	s := make([]metrics.Sample, len(residentMetrics))
	for i, name := range residentMetrics {
		s[i].Name = name
	}
	return s
}

func startResidentSampler() *residentSampler {
	r := &residentSampler{stop: make(chan struct{})}
	s := newSamples()
	r.peak.Store(residentBytes(s))
	r.done.Add(1)
	go func() {
		defer r.done.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-tick.C:
				v := residentBytes(s)
				for p := r.peak.Load(); v > p && !r.peak.CompareAndSwap(p, v); p = r.peak.Load() {
				}
			}
		}
	}()
	return r
}

// take returns the peak in MB since the previous take and starts a new
// window.
func (r *residentSampler) take() float64 {
	cur := residentBytes(newSamples())
	return float64(max(r.peak.Swap(cur), cur)) / (1 << 20)
}

// finish ends the sampling and waits for the sampler to exit.
func (r *residentSampler) finish() {
	close(r.stop)
	r.done.Wait()
}

// runtimeCounters are the Go runtime totals the traced run differences
// across the measured phase.
type runtimeCounters struct {
	allocBytes, mallocs uint64
	gcCycles            uint32
	gcPauseNs           uint64
}

func readRuntimeCounters() runtimeCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeCounters{
		allocBytes: ms.TotalAlloc, mallocs: ms.Mallocs,
		gcCycles: ms.NumGC, gcPauseNs: ms.PauseTotalNs,
	}
}
