package mnn_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mnn"
	"mnn/internal/tensor"
)

const tinyModelJSON = `{
  "name": "tiny",
  "inputs": ["data"],
  "outputs": ["prob"],
  "nodes": [
    {"name": "data", "op": "Input", "attrs": {"shape": [1, 3, 16, 16]}},
    {"name": "conv1", "op": "Conv2D", "inputs": ["data"], "weights": ["w1", "b1"],
     "attrs": {"kernel": [3], "pad": [1], "outputs": 8, "relu": true}},
    {"name": "dw", "op": "Conv2D", "inputs": ["conv1"], "weights": ["w2", "b2"],
     "attrs": {"kernel": [3], "pad": [1], "group": 8, "outputs": 8, "relu": true}},
    {"name": "pw", "op": "Conv2D", "inputs": ["dw"], "weights": ["w3", "b3"],
     "attrs": {"kernel": [1], "outputs": 16}},
    {"name": "gap", "op": "Pool", "inputs": ["pw"], "attrs": {"type": "avg", "global": true}},
    {"name": "flat", "op": "Flatten", "inputs": ["gap"], "attrs": {"axis": 1}},
    {"name": "prob", "op": "Softmax", "inputs": ["flat"], "attrs": {"axis": 1}}
  ],
  "weights": [
    {"name": "w1", "shape": [8, 3, 3, 3], "init": "random", "seed": 1, "scale": 0.3},
    {"name": "b1", "shape": [8], "init": "random", "seed": 2, "scale": 0.1},
    {"name": "w2", "shape": [8, 1, 3, 3], "init": "random", "seed": 3, "scale": 0.3},
    {"name": "b2", "shape": [8], "init": "random", "seed": 4, "scale": 0.1},
    {"name": "w3", "shape": [16, 8, 1, 1], "init": "random", "seed": 5, "scale": 0.3},
    {"name": "b3", "shape": [16], "init": "random", "seed": 6, "scale": 0.1}
  ]
}`

func tinyModel(t *testing.T) *mnn.Graph {
	t.Helper()
	g, err := mnn.ParseJSONModel(strings.NewReader(tinyModelJSON))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestQuickstartWorkflow(t *testing.T) {
	g := tinyModel(t)
	if err := mnn.Optimize(g); err != nil {
		t.Fatal(err)
	}
	eng, err := mnn.Open(g, mnn.WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	in := tensor.New(eng.InputShape("data")...)
	tensor.FillRandom(in, 42, 1)
	outs, err := eng.Infer(context.Background(), map[string]*mnn.Tensor{"data": in})
	if err != nil {
		t.Fatal(err)
	}
	out := outs["prob"]
	var sum float64
	for _, v := range out.Data() {
		sum += float64(v)
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("softmax sum %v", sum)
	}
	// Must agree with the reference oracle.
	ref, err := mnn.RunReference(tinyModel(t), map[string]*mnn.Tensor{"data": in})
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(ref["prob"], out); d > 1e-4 {
		t.Fatalf("engine differs from reference by %g", d)
	}
}

func TestSaveLoadFileRoundTrip(t *testing.T) {
	g := tinyModel(t)
	path := filepath.Join(t.TempDir(), "tiny.mnng")
	if err := mnn.SaveModelFile(g, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := mnn.LoadGraphFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Nodes) != len(g.Nodes) {
		t.Fatal("node count changed through file round trip")
	}
	missing := filepath.Join(t.TempDir(), "missing.mnng")
	if _, err := mnn.LoadGraphFile(missing); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("LoadGraphFile(missing) = %v, want os.ErrNotExist", err)
	}
	if _, err := mnn.Open(missing); !errors.Is(err, mnn.ErrUnknownNetwork) {
		t.Fatalf("Open(missing) = %v, want ErrUnknownNetwork", err)
	}
}

func TestQuantizedSessionStillWorks(t *testing.T) {
	g := tinyModel(t)
	count, saved := mnn.QuantizeWeights(g)
	if count == 0 || saved <= 0 {
		t.Fatalf("quantize: %d, %d", count, saved)
	}
	var buf bytes.Buffer
	if err := mnn.SaveModel(g, &buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := mnn.LoadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := mnn.Open(loaded, mnn.WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	in := tensor.New(1, 3, 16, 16)
	tensor.FillRandom(in, 7, 1)
	out, err := eng.Infer(context.Background(), map[string]*mnn.Tensor{"data": in})
	if err != nil {
		t.Fatal(err)
	}
	// int8 quantization error on this tiny model should stay small.
	ref, err := mnn.RunReference(tinyModel(t), map[string]*mnn.Tensor{"data": in})
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(ref["prob"], out["prob"]); d > 0.05 {
		t.Fatalf("quantized output error %g", d)
	}
}

func TestSimulatedDeviceSession(t *testing.T) {
	eng, err := mnn.Open(tinyModel(t), mnn.WithForwardType(mnn.ForwardVulkan), mnn.WithThreads(2),
		mnn.WithDevice("MI6"), mnn.WithSimulatedClock())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	in := tensor.New(1, 3, 16, 16)
	tensor.FillRandom(in, 9, 1)
	eng.ResetSimulatedClock()
	if _, err := eng.Infer(context.Background(), map[string]*mnn.Tensor{"data": in}); err != nil {
		t.Fatal(err)
	}
	if eng.SimulatedMs() <= 0 {
		t.Fatal("simulated clock must advance")
	}
}

func TestConfigErrors(t *testing.T) {
	g := tinyModel(t)
	if _, err := mnn.Open(g, mnn.WithDevice("NokiaBrick")); !errors.Is(err, mnn.ErrUnknownDevice) {
		t.Errorf("unknown device = %v, want ErrUnknownDevice", err)
	}
	// Metal on an Android profile must fail.
	if _, err := mnn.Open(g, mnn.WithForwardType(mnn.ForwardMetal), mnn.WithDevice("MI6")); !errors.Is(err, mnn.ErrUnknownBackend) {
		t.Errorf("Metal on MI6 = %v, want ErrUnknownBackend", err)
	}
	// GPU forward type without a device (host has no GPU sim) must fail.
	if _, err := mnn.Open(g, mnn.WithForwardType(mnn.ForwardVulkan)); !errors.Is(err, mnn.ErrUnknownBackend) {
		t.Errorf("Vulkan on host = %v, want ErrUnknownBackend", err)
	}
}

func TestNetworksAndDevicesLists(t *testing.T) {
	if len(mnn.Networks()) != 9 {
		t.Fatalf("networks: %v", mnn.Networks())
	}
	found := false
	for _, d := range mnn.Devices() {
		if d == "Mate20" {
			found = true
		}
	}
	if !found {
		t.Fatalf("devices: %v", mnn.Devices())
	}
	if _, err := mnn.BuildNetwork("mobilenet-v1"); err != nil {
		t.Fatal(err)
	}
}

// TestEngineWithInputShapes prepares an engine at an input shape other than
// the declared one and checks it against the reference at that shape.
func TestEngineWithInputShapes(t *testing.T) {
	eng, err := mnn.Open(tinyModel(t), mnn.WithThreads(1),
		mnn.WithInputShapes(map[string][]int{"data": {1, 3, 32, 32}}))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if !tensor.EqualShape(eng.InputShape("data"), []int{1, 3, 32, 32}) {
		t.Fatalf("prepared input shape %v, want [1 3 32 32]", eng.InputShape("data"))
	}
	in := tensor.New(1, 3, 32, 32)
	tensor.FillRandom(in, 11, 1)
	out, err := eng.Infer(context.Background(), map[string]*mnn.Tensor{"data": in})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mnn.RunReference(tinyModel(t), map[string]*mnn.Tensor{"data": in})
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(ref["prob"], out["prob"]); d > 1e-4 {
		t.Fatalf("engine at 32x32 differs from reference by %g", d)
	}
}
