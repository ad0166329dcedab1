package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

func has[K comparable](m map[K]struct{}, k K) bool {
	_, ok := m[k]
	return ok
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// reading is the process cost of one timed section.
type reading struct {
	cpuMS   float64
	allocKB float64
}

// meter reads process CPU time and cumulative heap allocation at start
// and stop. Both are process-wide, so a section meters everything that
// ran while it did (for the serve phases: clients and server alike).
type meter struct {
	cpu   time.Duration
	alloc uint64
}

func startMeter() meter { return meter{cpu: cpuTime(), alloc: totalAlloc()} }

func (m meter) stop() reading {
	return reading{
		cpuMS:   float64(cpuTime()-m.cpu) / float64(time.Millisecond),
		allocKB: float64(totalAlloc()-m.alloc) / 1024,
	}
}

// phaseCost sums the readings of a phase's ops.
type phaseCost struct {
	cpuMS, allocKB float64
	ops            int
}

func (c *phaseCost) merge(o phaseCost) {
	c.cpuMS += o.cpuMS
	c.allocKB += o.allocKB
	c.ops += o.ops
}

func (c *phaseCost) add(r reading, ops int) {
	c.cpuMS += r.cpuMS
	c.allocKB += r.allocKB
	c.ops += ops
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// maxRSSMB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// latencies collects per-operation wall times, in milliseconds, by kind.
type latencies map[string][]float64

func (l latencies) add(kind string, d time.Duration) {
	l[kind] = append(l[kind], float64(d)/float64(time.Millisecond))
}

func (l latencies) merge(o latencies) {
	for k, v := range o {
		l[k] = append(l[k], v...)
	}
}

func (l latencies) all() []float64 {
	var out []float64
	for _, v := range l {
		out = append(out, v...)
	}
	return out
}
