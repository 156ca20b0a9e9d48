package main

import (
	"runtime/metrics"
	"time"
)

// calibSink keeps the calibration loop's result live so the compiler cannot
// drop the loop.
var calibSink float64

// hostCalib times a fixed pure-Go integer and float loop that calls no
// repository code, five times, and returns the median in milliseconds. The
// same loop on the same host takes the same time, so a change in this
// number between runs is host drift, not a change in the program.
func hostCalib() float64 {
	var ts []float64
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		x := uint64(0x9e3779b97f4a7c15)
		acc := 0.0
		for i := 0; i < 8_000_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			acc += float64(x>>40) * 1e-9
		}
		calibSink += acc
		ts = append(ts, ms(time.Since(start)))
	}
	return median(ts)
}

// processSample is a snapshot of the Go runtime's cumulative allocation and
// CPU accounting for the whole benchmark process (client, router and
// replica run in it together).
type processSample struct {
	allocBytes float64
	gcCPU      float64
	busyCPU    float64
}

func sampleProcess() processSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return processSample{
		allocBytes: val(0),
		gcCPU:      val(1),
		busyCPU:    val(2) - val(3),
	}
}
