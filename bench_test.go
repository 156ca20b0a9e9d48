package mnn_test

// One testing.B benchmark family per table and figure of the paper's
// evaluation, in the paper's order. `go test -bench=.` gives
// host numbers for the measured experiments and drives the Equation 5
// simulator for the device-labelled ones; `cmd/mnnbench` prints the same
// data as paper-shaped tables.

import (
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"mnn"
	"mnn/internal/bench"
	"mnn/internal/device"
	"mnn/internal/engines"
	"mnn/internal/matmul"
	"mnn/internal/models"
	"mnn/internal/tensor"
)

// --- Table 1: computation scheme selection ------------------------------

func BenchmarkTable1(b *testing.B) {
	for _, c := range bench.Table1Cases {
		b.Run(fmt.Sprintf("conv%dx%d_ic%d_oc%d_%d", c.K, c.K, c.IC, c.OC, c.Size), func(b *testing.B) {
			var row []time.Duration
			for i := 0; i < b.N; i++ {
				var err error
				if row, err = bench.Table1Row(c, 1, 1); err != nil {
					b.Fatal(err)
				}
			}
			for i, d := range row {
				b.ReportMetric(float64(d.Nanoseconds()), bench.Table1Schemes[i]+"-ns")
			}
		})
	}
}

// --- Table 2: preparation–execution decoupling --------------------------

func BenchmarkTable2Decoupled(b *testing.B) {
	runInferInto(b, models.MobileNetV1(), mnn.WithThreads(4))
}

func BenchmarkTable2NoPreparation(b *testing.B) {
	runInferInto(b, models.MobileNetV1(), mnn.WithThreads(4), mnn.WithoutPreparation())
}

// --- Table 3: Strassen matmul -------------------------------------------

func BenchmarkTable3(b *testing.B) {
	for _, c := range bench.Table3Cases {
		a := tensor.NewRandom(1, 1, c.M, c.K).Data()
		bm := tensor.NewRandom(2, 1, c.K, c.N).Data()
		dst := make([]float32, c.M*c.N)
		b.Run(fmt.Sprintf("direct_%dx%dx%d", c.M, c.K, c.N), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				matmul.Mul(dst, a, bm, c.M, c.K, c.N)
			}
		})
		b.Run(fmt.Sprintf("strassen_%dx%dx%d", c.M, c.K, c.N), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				matmul.MulStrassen(dst, a, bm, c.M, c.K, c.N)
			}
		})
	}
}

// --- Table 4: backend operator coverage (report-style, priced as census) --

func BenchmarkTable4Census(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Table4(bench.Options{Quick: true, Out: io.Discard}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 5: TVM deployment cost vs MNN pre-inference -------------------

func BenchmarkTable5PreInference(b *testing.B) {
	g := models.ResNet18()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := mnn.Open(g, mnn.WithThreads(4))
		if err != nil {
			b.Fatal(err)
		}
		eng.Close()
	}
}

// --- Table 6: production fleet ------------------------------------------

func BenchmarkTable6FleetSim(b *testing.B) {
	g := models.CommoditySearchDetector()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, row := range bench.Table6Devices {
			if _, err := engines.Simulate(engines.MNN, g, row.Dev, engines.Mode{Threads: 4}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Table 7: MLPerf single-stream ---------------------------------------

func BenchmarkTable7SingleStream(b *testing.B) {
	runInferInto(b, models.MobileNetV2(), mnn.WithThreads(4))
}

// --- Table 8: Pixel CPU comparison ---------------------------------------

func BenchmarkTable8(b *testing.B) {
	g := models.InceptionV3()
	for _, dev := range []*device.Profile{device.Pixel2, device.Pixel3} {
		for _, threads := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s_t%d", dev.Name, threads), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := engines.Simulate(engines.MNN, g, dev, engines.Mode{Threads: threads}); err != nil {
						b.Fatal(err)
					}
					if _, err := engines.Simulate(engines.TFLite, g, dev, engines.Mode{Threads: threads}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Figures 7–9: engine comparison grids --------------------------------

func BenchmarkFigure7Grid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure7Grid(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	g := models.InceptionV3()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bar := range bench.Figure8Bars {
			if _, err := engines.Simulate(bar.Engine, g, device.P20, bar.Mode); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, row := range bench.Figure9Nets {
			g, err := models.ByName(row.Name)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := engines.Simulate(engines.MNN, g, device.P20Pro, engines.Mode{Threads: 4}); err != nil {
				b.Fatal(err)
			}
			if _, err := engines.Simulate(engines.TVM, g, device.P20Pro, engines.Mode{Threads: 4}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Ablations ------------------------------------------------------------

func BenchmarkAblationStrassenCutoff(b *testing.B) {
	const size = 384
	a := tensor.NewRandom(1, 1, size, size).Data()
	bm := tensor.NewRandom(2, 1, size, size).Data()
	dst := make([]float32, size*size)
	saved := matmul.MinSplitDim
	defer func() { matmul.MinSplitDim = saved }()
	for _, floor := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("floor%d", floor), func(b *testing.B) {
			matmul.MinSplitDim = floor
			for i := 0; i < b.N; i++ {
				matmul.MulStrassen(dst, a, bm, size, size, size)
			}
		})
	}
}

func BenchmarkAblationMemoryPlan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.AblationMemory(bench.Options{Quick: true, Out: io.Discard}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- End-to-end network inference on the host ----------------------------

func BenchmarkInference(b *testing.B) {
	for _, name := range []string{"mobilenet-v1", "squeezenet-v1.1", "resnet-18"} {
		for _, threads := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/t%d", name, threads), func(b *testing.B) {
				g, err := models.ByName(name)
				if err != nil {
					b.Fatal(err)
				}
				if err := mnn.Optimize(g); err != nil {
					b.Fatal(err)
				}
				runInferInto(b, g, mnn.WithThreads(threads))
			})
		}
	}
}

// runInferInto opens g, fills every input with random data, warms up with
// one Infer whose results become the output buffers, and then times InferInto.
func runInferInto(b *testing.B, g *mnn.Graph, opts ...mnn.Option) {
	b.Helper()
	eng, err := mnn.Open(g, opts...)
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	inputs := map[string]*mnn.Tensor{}
	for _, name := range eng.InputNames() {
		in := tensor.New(eng.InputShape(name)...)
		tensor.FillRandom(in, 1, 1)
		inputs[name] = in
	}
	ctx := context.Background()
	outputs, err := eng.Infer(ctx, inputs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.InferInto(ctx, inputs, outputs); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Engine.Infer steady state (PR 3's throughput headline) ---------------

// BenchmarkEngineInfer measures the concurrent-facade hot path end to end:
// checkout → input copy → pure-compute run on the persistent worker pool →
// output copy. InferInto reuses caller buffers and must report 0 allocs/op;
// Infer adds only the caller-owned output copies.
func BenchmarkEngineInfer(b *testing.B) {
	for _, threads := range []int{1, 4} {
		eng, err := mnn.Open("mobilenet-v1", mnn.WithThreads(threads))
		if err != nil {
			b.Fatal(err)
		}
		in := tensor.New(1, 3, 224, 224)
		tensor.FillRandom(in, 1, 1)
		inputs := map[string]*mnn.Tensor{"data": in}
		ctx := context.Background()
		outputs, err := eng.Infer(ctx, inputs)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("Infer/t%d", threads), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Infer(ctx, inputs); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("InferInto/t%d", threads), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := eng.InferInto(ctx, inputs, outputs); err != nil {
					b.Fatal(err)
				}
			}
		})
		eng.Close()
	}
}
