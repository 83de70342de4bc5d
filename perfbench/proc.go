package main

import (
	"runtime"
	"syscall"
	"time"
)

// procSample is the process's CPU time and heap allocation counters at one
// instant; the difference of two samples is what a phase cost.
type procSample struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{at: time.Now(), cpu: cpuTime(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (a procSample) minus(b procSample) procSample {
	return procSample{cpu: a.cpu - b.cpu, mallocs: a.mallocs - b.mallocs, bytes: a.bytes - b.bytes}
}

func (a procSample) plus(b procSample) procSample {
	return procSample{cpu: a.cpu + b.cpu, mallocs: a.mallocs + b.mallocs, bytes: a.bytes + b.bytes}
}

// phaseCost is what happened between two samples, per op.
type phaseCost struct {
	cpuUSPerOp      float64
	allocsPerOp     float64
	allocBytesPerOp float64
}

func costBetween(a, b procSample, ops int) phaseCost {
	if ops <= 0 {
		return phaseCost{}
	}
	n := float64(ops)
	return phaseCost{
		cpuUSPerOp:      float64(b.cpu-a.cpu) / float64(time.Microsecond) / n,
		allocsPerOp:     float64(b.mallocs-a.mallocs) / n,
		allocBytesPerOp: float64(b.bytes-a.bytes) / n,
	}
}

// liveHeapMiB collects garbage and returns the live heap in MiB.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
