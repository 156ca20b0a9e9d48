package main

import (
	"math"
	"testing"
	"time"

	"mnn"
	"mnn/serve"
)

func flipLowBit(t *mnn.Tensor, i int) {
	d := t.Data()
	d[i] = math.Float32frombits(math.Float32bits(d[i]) ^ 1)
}

func TestSameTensorCatchesOneBit(t *testing.T) {
	want := mnn.NewTensor(1, 4)
	copy(want.Data(), []float32{0.1, 0.2, 0.3, 0.4})
	got := append([]float32(nil), want.Data()...)
	if err := sameTensor("prob", []int{1, 4}, got, want); err != nil {
		t.Fatalf("identical output rejected: %v", err)
	}
	flipLowBit(want, 2)
	if err := sameTensor("prob", []int{1, 4}, got, want); err == nil {
		t.Fatal("one flipped bit in the expected output was not caught")
	}
	if err := sameTensor("prob", []int{4, 1}, got, want); err == nil {
		t.Fatal("wrong shape was not caught")
	}
}

func TestCheckResponseRejectsMissingAndExtraOutputs(t *testing.T) {
	want := map[string]*mnn.Tensor{"prob": mnn.NewTensor(1, 2)}
	resp := &serve.InferResponse{Outputs: []serve.InferTensor{serve.EncodeTensor("other", mnn.NewTensor(1, 2))}}
	if err := checkResponse(resp, want); err == nil {
		t.Fatal("response with the wrong output name passed")
	}
	resp.Outputs = nil
	if err := checkResponse(resp, want); err == nil {
		t.Fatal("response without outputs passed")
	}
}

// smallSpec is the transformer workload with short sequences, over HTTP or
// in process, so the end-to-end tests stay fast.
func smallSpec(http bool) *spec {
	sp := *findSpec("transformer-mix-http")
	sp.http = http
	sp.shapes = []shapeSpec{{label: "L8", input: []int{1, 8, 32}, share: 1, items: 2}}
	sp.closedWorkers = 1
	return &sp
}

// A corrupted expected output must turn a correct response into a failed
// operation, on both the HTTP path and the in-process path.
func TestCorruptedExpectedOutputIsCaught(t *testing.T) {
	for _, http := range []bool{true, false} {
		sp := smallSpec(http)
		fx, err := buildFixture(sp, 7)
		if err != nil {
			t.Fatal(err)
		}
		st, _, err := openStack(sp, nil, 7, fx)
		if err != nil {
			fx.ref.Close()
			t.Fatal(err)
		}
		if err := st.do(0, fx.items[0], "ok"); err != nil {
			t.Errorf("http=%v: correct response rejected: %v", http, err)
		}
		flipLowBit(fx.items[0].want["prob"], 5)
		if err := st.do(0, fx.items[0], "bad"); err == nil {
			t.Errorf("http=%v: corrupted expected output not caught", http)
		}
		p := sp.load(st, nil, "c", fx, 7, 300*time.Millisecond)
		o := &outcome{}
		o.addPass(&p)
		if o.failed == 0 && len(p.records) > 1 {
			t.Errorf("http=%v: a pass over a corrupted item counted no failures", http)
		}
		st.close()
		fx.ref.Close()
	}
}
