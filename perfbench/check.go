package main

import (
	"fmt"
	"math"

	"mnn"
	"mnn/serve"
)

// sameTensor reports whether got (shape and flat NCHW data) is bitwise
// identical to want. Bitwise, not within a tolerance: the serving tier
// guarantees that batched and unbatched runs of one engine configuration
// produce identical bits, and the JSON wire format round-trips float32
// exactly, so any differing bit is a wrong output.
func sameTensor(name string, shape []int, data []float32, want *mnn.Tensor) error {
	ws := want.Shape()
	if len(shape) != len(ws) {
		return fmt.Errorf("output %q: shape %v, want %v", name, shape, ws)
	}
	for i := range shape {
		if shape[i] != ws[i] {
			return fmt.Errorf("output %q: shape %v, want %v", name, shape, ws)
		}
	}
	wd := want.Data()
	if len(data) != len(wd) {
		return fmt.Errorf("output %q: %d values, want %d", name, len(data), len(wd))
	}
	for i := range data {
		if math.Float32bits(data[i]) != math.Float32bits(wd[i]) {
			return fmt.Errorf("output %q: value %d is %v, want %v", name, i, data[i], wd[i])
		}
	}
	return nil
}

// checkTensors compares every expected output against the engine's result.
func checkTensors(got, want map[string]*mnn.Tensor) error {
	for name, w := range want {
		g := got[name]
		if g == nil {
			return fmt.Errorf("output %q missing", name)
		}
		if err := sameTensor(name, g.Shape(), g.Data(), w); err != nil {
			return err
		}
	}
	return nil
}

// checkResponse compares a decoded KServe-V2 response against the expected
// outputs: every expected output must be present, and nothing else.
func checkResponse(resp *serve.InferResponse, want map[string]*mnn.Tensor) error {
	if len(resp.Outputs) != len(want) {
		return fmt.Errorf("response has %d outputs, want %d", len(resp.Outputs), len(want))
	}
	for _, out := range resp.Outputs {
		w, ok := want[out.Name]
		if !ok {
			return fmt.Errorf("unexpected output %q", out.Name)
		}
		if out.Datatype != serve.DatatypeFP32 {
			return fmt.Errorf("output %q: datatype %q", out.Name, out.Datatype)
		}
		if err := sameTensor(out.Name, out.Shape, out.Data, w); err != nil {
			return err
		}
	}
	return nil
}
