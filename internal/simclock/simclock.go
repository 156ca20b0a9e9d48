// Package simclock accumulates simulated execution time. It is the paper's
// backend cost model (Equation 5) promoted from a scheduling heuristic to a
// measurement substitute: every executed operator charges
//
//	Cop = MUL/FLOPS × 1000            (CPU)
//	Cop = MUL/FLOPS × 1000 + t_sched  (GPU)
//
// milliseconds, optionally scaled by a per-engine/per-scheme efficiency
// factor. This is how phone-grade latency numbers are produced without
// phones (README "Simulated devices"); host wall-clock time is measured
// separately and reported alongside.
package simclock

import (
	"sync"
)

// Clock is a concurrency-safe accumulator of simulated milliseconds.
type Clock struct {
	mu sync.Mutex
	ms float64
	// breakdown per label (op type or phase), for diagnosis output.
	byLabel map[string]float64
}

// New returns a zeroed clock.
func New() *Clock {
	return &Clock{byLabel: map[string]float64{}}
}

// Charge adds ms of simulated time under a label.
func (c *Clock) Charge(label string, ms float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.ms += ms
	c.byLabel[label] += ms
	c.mu.Unlock()
}

// TotalMs returns the accumulated simulated time.
func (c *Clock) TotalMs() float64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ms
}

// ByLabel returns a copy of the per-label breakdown.
func (c *Clock) ByLabel() map[string]float64 {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]float64, len(c.byLabel))
	for k, v := range c.byLabel {
		out[k] = v
	}
	return out
}

// Reset zeroes the clock.
func (c *Clock) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.ms = 0
	c.byLabel = map[string]float64{}
	c.mu.Unlock()
}

// CPUCostMs is Equation 5's CPU branch: MUL/FLOPS × 1000, divided by an
// efficiency factor in (0, 1] that models how far a given implementation is
// from the device's peak (1.0 ≙ the paper's fully optimized kernels).
func CPUCostMs(muls int64, flops, efficiency float64) float64 {
	if flops <= 0 || muls <= 0 {
		return 0
	}
	if efficiency <= 0 {
		efficiency = 1
	}
	return float64(muls) / flops * 1000 / efficiency
}

// GPUCostMs is Equation 5's GPU branch: MUL/FLOPS × 1000 + t_schedule.
func GPUCostMs(muls int64, flops, tScheduleMs, efficiency float64) float64 {
	if flops <= 0 {
		return tScheduleMs
	}
	if efficiency <= 0 {
		efficiency = 1
	}
	var compute float64
	if muls > 0 {
		compute = float64(muls) / flops * 1000 / efficiency
	}
	return compute + tScheduleMs
}
