package mnn

import (
	"errors"
	"fmt"
)

// Sentinel errors returned by the Engine API. Wrap-aware: test with
// errors.Is, e.g.
//
//	if errors.Is(err, mnn.ErrCancelled) { ... }
var (
	// ErrUnknownDevice is returned by Open when the requested simulated
	// device profile does not exist (see Devices()).
	ErrUnknownDevice = errors.New("mnn: unknown device")

	// ErrUnknownNetwork is returned by Open/BuildNetwork when the requested
	// built-in network does not exist (see Networks()).
	ErrUnknownNetwork = errors.New("mnn: unknown network")

	// ErrInputShape is returned by Engine.Infer when the input map is
	// missing a declared graph input, names an unknown input, or provides a
	// tensor whose shape disagrees with the prepared session.
	ErrInputShape = errors.New("mnn: input shape mismatch")

	// ErrShapeOutOfPlan is returned by Engine.Infer on a dynamic engine
	// (WithMaxInputShapes) when a request's input shape cannot be served by
	// the planned arena: wrong rank, a dim exceeding the planned maximum, or
	// a derived activation that would overflow its planned buffer. The
	// request is rejected before any arena byte is read or written.
	ErrShapeOutOfPlan = errors.New("mnn: input shape outside planned maximum")

	// ErrCancelled is returned by Engine.Infer when the context is
	// cancelled or its deadline expires, either while waiting for a pooled
	// session or between pipeline operators mid-inference.
	ErrCancelled = errors.New("mnn: inference cancelled")

	// ErrEngineClosed is returned by Engine.Infer after Close.
	ErrEngineClosed = errors.New("mnn: engine closed")

	// ErrUnknownBackend is returned by Open when the forward type is
	// unknown or the device lacks the requested GPU API.
	ErrUnknownBackend = errors.New("mnn: unknown or unsupported backend")

	// ErrKernelPanic is returned by Engine.Infer when a kernel panicked
	// mid-inference. The containment barriers (sched → session → engine)
	// convert the panic into this typed error instead of crashing the
	// process; the poisoned pooled session is closed and rebuilt. Use
	// errors.As with *KernelPanicError for the op identity and stack.
	ErrKernelPanic = errors.New("mnn: kernel panic")
)

// KernelPanicError carries the identity of a contained kernel panic: which
// operator it escaped from, the original panic value, and the stack of the
// goroutine that panicked. It wraps ErrKernelPanic for errors.Is.
type KernelPanicError struct {
	// Op is the graph node (or graph name, when the panic happened outside
	// a node) the panic escaped from.
	Op string
	// Value is the original panic value.
	Value any
	// Stack is the panicking goroutine's stack, captured at recovery.
	Stack []byte
}

func (e *KernelPanicError) Error() string {
	return fmt.Sprintf("mnn: kernel panic in op %q: %v", e.Op, e.Value)
}

func (e *KernelPanicError) Unwrap() error { return ErrKernelPanic }
