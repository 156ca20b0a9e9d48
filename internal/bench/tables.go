package bench

import (
	"context"
	"fmt"
	"time"

	"mnn/internal/backend"
	"mnn/internal/core"
	"mnn/internal/cpu"
	"mnn/internal/device"
	"mnn/internal/engines"
	"mnn/internal/gpusim"
	"mnn/internal/graph"
	"mnn/internal/kernels"
	"mnn/internal/loadgen"
	"mnn/internal/matmul"
	"mnn/internal/models"
	"mnn/internal/sched"
	"mnn/internal/session"
	"mnn/internal/simclock"
	"mnn/internal/tensor"
)

// ---------------------------------------------------------------- Table 1

// Table1Case is one convolution configuration of the paper's Table 1:
// (kernel, input channels, output channels, spatial size).
type Table1Case struct {
	K, IC, OC, Size int
	// Paper's milliseconds for sliding / WinoMin / WinoMax / ours.
	Paper [4]float64
}

// Table1Cases are the paper's three configurations.
var Table1Cases = []Table1Case{
	{2, 3, 16, 224, [4]float64{32.1, 42.2, 57.3, 32.7}},
	{2, 512, 512, 16, [4]float64{895.1, 287.7, 539.3, 286.0}},
	{3, 64, 64, 112, [4]float64{895.1, 389.8, 237.4, 236.4}},
}

// Table1Schemes are Table 1's columns: sliding window, Winograd with the
// smallest and largest tile, and the Equation 2–3 choice ("ours").
var Table1Schemes = []string{"sliding", "wino2", "wino6", "ours"}

// Table1Row measures every scheme of Table1Schemes for a case. The prepared
// kernels run round-robin and each reports its fastest of rounds runs (see
// minInterleaved), so the schemes compare fairly on a loaded host.
func Table1Row(c Table1Case, threads, rounds int) ([]time.Duration, error) {
	runs := make([]func(), len(Table1Schemes))
	for i, scheme := range Table1Schemes {
		run, release, err := table1Runner(c, scheme, threads)
		if err != nil {
			return nil, err
		}
		defer release()
		run() // warm up
		runs[i] = run
	}
	return minInterleaved(rounds, runs...), nil
}

// table1Runner prepares one scheme's kernel for a case and returns its run
// function and the release of its worker pool.
func table1Runner(c Table1Case, scheme string, threads int) (run func(), release func(), err error) {
	a := &graph.Conv2DAttrs{
		KernelH: c.K, KernelW: c.K, StrideH: 1, StrideW: 1,
		Group: 1, InputCount: c.IC, OutputCount: c.OC,
	}
	src := tensor.NewWithLayout(tensor.NC4HW4, 1, c.IC, c.Size, c.Size)
	tensor.FillRandom(src, 7, 1)
	weight := tensor.NewRandom(8, 0.2, c.OC, c.IC, c.K, c.K)
	bias := tensor.NewRandom(9, 0.1, c.OC)
	oh, ow, err := graph.ConvOutputSize(c.Size, c.Size, a)
	if err != nil {
		return nil, nil, err
	}
	dst := tensor.NewWithLayout(tensor.NC4HW4, 1, c.OC, oh, ow)

	pool := sched.New(threads)
	defer func() {
		if err != nil {
			pool.Close()
		}
	}()
	switch scheme {
	case "sliding":
		sc := kernels.PrepareSliding(weight, bias, a)
		run = func() { sc.Run(dst, src, pool) }
	case "wino2", "wino6":
		tile := 2
		if scheme == "wino6" {
			tile = 6
		}
		wc, err := kernels.PrepareWinograd(weight, bias, a, tile, tile)
		if err != nil {
			return nil, nil, err
		}
		ws := make([]float32, wc.WorkspaceSize()*threads)
		run = func() { wc.Run(dst, src, pool, ws) }
	case "ours":
		dec := core.SelectConvScheme(a, src.Shape())
		switch dec.Scheme {
		case core.SchemeWinograd:
			wc, err := kernels.PrepareWinograd(weight, bias, a, dec.TileH, dec.TileW)
			if err != nil {
				return nil, nil, err
			}
			ws := make([]float32, wc.WorkspaceSize()*threads)
			run = func() { wc.Run(dst, src, pool, ws) }
		default:
			sc := kernels.PrepareSliding(weight, bias, a)
			run = func() { sc.Run(dst, src, pool) }
		}
	default:
		return nil, nil, fmt.Errorf("bench: unknown scheme %q", scheme)
	}
	return run, func() { pool.Close() }, nil
}

// Table1 reproduces the computation-scheme comparison (host-measured).
func Table1(opt Options) error {
	reps := 5
	if opt.Quick {
		reps = 1
	}
	opt.printf("Table 1 — computation scheme selection (host ms; paper ms in parens)\n")
	opt.printf("%-22s %12s %12s %12s %12s\n", "conv (k,ic,oc,size)", "Sliding", "WinoMin", "WinoMax", "Ours")
	for _, c := range Table1Cases {
		opt.printf("(%d,%d,%d,%d)", c.K, c.IC, c.OC, c.Size)
		row, err := Table1Row(c, 1, reps)
		if err != nil {
			return err
		}
		vals := make([]float64, len(row))
		for i, d := range row {
			vals[i] = ms(d)
			opt.record("table1", fmt.Sprintf("conv(%d,%d,%d,%d)/%s", c.K, c.IC, c.OC, c.Size, Table1Schemes[i]),
				float64(d.Nanoseconds()), 0)
		}
		pad := 22 - len(fmt.Sprintf("(%d,%d,%d,%d)", c.K, c.IC, c.OC, c.Size))
		opt.printf("%*s", pad, "")
		for i, v := range vals {
			opt.printf(" %6.1f(%5.1f)", v, c.Paper[i])
		}
		opt.printf("\n")
	}
	opt.printf("shape check: 'Ours' should track the best fixed scheme per column.\n\n")
	return nil
}

// ---------------------------------------------------------------- Table 2

// Table2Row is one measurement of the preparation–execution decoupling.
type Table2Row struct {
	Label           string
	WithoutMs, With float64
	PaperWithout    float64
	PaperWith       float64
}

// Table2Rows measures the decoupling effect. CPU rows are host wall-clock
// (real allocation/packing interleaved vs decoupled); GPU rows are
// simulated Vulkan sessions on the paper's devices, where command-buffer
// encoding either happens per run or at pre-inference.
func Table2Rows(opt Options) ([]Table2Row, error) {
	g := models.MobileNetV1()
	reps := 5
	if opt.Quick {
		reps = 3
	}

	// --- CPU rows: host measured, the two sessions interleaved.
	mk := func(noPrep bool) (*session.Session, error) {
		return session.New(g, session.Config{
			Backends:      []backend.Backend{cpu.New(cpu.Config{Threads: 4})},
			NoPreparation: noPrep,
		})
	}
	prepared, err := mk(false)
	if err != nil {
		return nil, err
	}
	fillSessionInput(prepared, g.InputNames[0], 3)
	if err := prepared.Run(context.Background()); err != nil {
		return nil, err
	}
	unprepared, err := mk(true)
	if err != nil {
		return nil, err
	}
	if err := unprepared.Run(context.Background()); err != nil {
		return nil, err
	}
	best := minInterleaved(reps,
		func() { _ = prepared.Run(context.Background()) },
		func() { _ = unprepared.Run(context.Background()) })
	withMs, withoutMs := ms(best[0]), ms(best[1])

	rows := []Table2Row{{Label: "CPU 4-thread (host)", WithoutMs: withoutMs, With: withMs,
		PaperWithout: 30.9, PaperWith: 28.9}}

	// --- GPU rows: simulated Vulkan on MI6 and P10.
	for _, tc := range []struct {
		dev          *device.Profile
		paperWithout float64
		paperWith    float64
	}{
		{device.MI6, 63.6, 15.8},
		{device.P10, 41.0, 20.7},
	} {
		gpuMs := func(decoupled bool) (float64, error) {
			clock := simclock.New()
			cpuB := cpu.New(cpu.Config{Threads: 4, Device: tc.dev, Clock: clock})
			gpuB, err := gpusim.New(gpusim.Config{Kind: backend.KindVulkan, Device: tc.dev,
				Clock: clock, DecoupledEncode: decoupled, ComputeThreads: 2})
			if err != nil {
				return 0, err
			}
			s, err := session.New(g, session.Config{Backends: []backend.Backend{cpuB, gpuB}})
			if err != nil {
				return 0, err
			}
			fillSessionInput(s, g.InputNames[0], 3)
			clock.Reset() // exclude pre-inference charges
			if err := s.Run(context.Background()); err != nil {
				return 0, err
			}
			return clock.TotalMs(), nil
		}
		w, err := gpuMs(true)
		if err != nil {
			return nil, err
		}
		wo, err := gpuMs(false)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table2Row{Label: tc.dev.Name + " GPU Vulkan (sim)",
			WithoutMs: wo, With: w, PaperWithout: tc.paperWithout, PaperWith: tc.paperWith})
	}
	return rows, nil
}

// Table2 reproduces the preparation–execution decoupling experiment.
func Table2(opt Options) error {
	rows, err := Table2Rows(opt)
	if err != nil {
		return err
	}
	opt.printf("Table 2 — preparation–execution decoupling (MobileNet-v1)\n")
	opt.printf("%-26s %14s %14s %9s %22s\n", "setting", "w/o (ms)", "w/ (ms)", "drop", "paper w/o→w/ (ms)")
	for _, r := range rows {
		drop := 0.0
		if r.WithoutMs > 0 {
			drop = (r.WithoutMs - r.With) / r.WithoutMs * 100
		}
		opt.printf("%-26s %14.1f %14.1f %8.1f%% %12.1f → %6.1f\n",
			r.Label, r.WithoutMs, r.With, drop, r.PaperWithout, r.PaperWith)
	}
	opt.printf("shape check: CPU drops a few percent, GPU drops 50–75%%.\n\n")
	return nil
}

func fillSessionInput(s *session.Session, name string, seed uint64) {
	in := s.Input(name)
	tmp := tensor.New(in.Shape()...)
	tensor.FillRandom(tmp, seed, 1)
	in.CopyFrom(tmp)
}

// ---------------------------------------------------------------- Table 3

// Table3Case is one matmul size of the paper's Table 3.
type Table3Case struct {
	M, K, N                    int
	PaperDirect, PaperStrassen float64
}

// Table3Cases are the published sizes ((a,b,c) = [a,b]×[b,c]).
var Table3Cases = []Table3Case{
	{256, 256, 256, 23, 23},
	{512, 512, 512, 191, 176},
	{512, 512, 1024, 388, 359},
	{1024, 1024, 1024, 1501, 1299},
}

// Table3Measure times direct vs Strassen on the host.
func Table3Measure(c Table3Case, reps int) (direct, strassen time.Duration) {
	a := tensor.NewRandom(1, 1, c.M, c.K).Data()
	b := tensor.NewRandom(2, 1, c.K, c.N).Data()
	dst := make([]float32, c.M*c.N)
	matmul.Mul(dst, a, b, c.M, c.K, c.N) // warm
	direct = medianOf(reps, func() { matmul.Mul(dst, a, b, c.M, c.K, c.N) })
	matmul.MulStrassen(dst, a, b, c.M, c.K, c.N)
	strassen = medianOf(reps, func() { matmul.MulStrassen(dst, a, b, c.M, c.K, c.N) })
	return direct, strassen
}

// Table3 reproduces the Strassen matrix-multiplication comparison.
func Table3(opt Options) error {
	reps := 3
	cases := Table3Cases
	if opt.Quick {
		reps = 1
		cases = cases[:2]
	}
	opt.printf("Table 3 — Strassen vs direct matmul (host ms; paper ms in parens)\n")
	opt.printf("%-18s %16s %18s %8s\n", "size (m,k,n)", "w/o Strassen", "w/ Strassen", "gain")
	for _, c := range cases {
		d, s := Table3Measure(c, reps)
		opt.record("table3", fmt.Sprintf("matmul(%d,%d,%d)/direct", c.M, c.K, c.N), float64(d.Nanoseconds()), 0)
		opt.record("table3", fmt.Sprintf("matmul(%d,%d,%d)/strassen", c.M, c.K, c.N), float64(s.Nanoseconds()), 0)
		gain := (1 - float64(s)/float64(d)) * 100
		opt.printf("(%d,%d,%d)%*s %8.1f(%6.1f) %8.1f(%6.1f) %7.1f%%\n",
			c.M, c.K, c.N, 18-len(fmt.Sprintf("(%d,%d,%d)", c.M, c.K, c.N)), "",
			ms(d), c.PaperDirect, ms(s), c.PaperStrassen, gain)
	}
	opt.printf("shape check: ≈parity at 256, growing gains at 512–1024.\n\n")
	return nil
}

// ---------------------------------------------------------------- Table 4

// Table4 prints the operator coverage census per backend next to the
// paper's counts (MNN row of the paper's Table 4).
func Table4(opt Options) error {
	total := graph.NumOpTypes()
	count := func(kind backend.Kind) int {
		c := 0
		for op, ok := range gpusim.DefaultSupported(kind) {
			_ = op
			if ok {
				c++
			}
		}
		return c
	}
	opt.printf("Table 4 — backend operator coverage (this repo's op set has %d kinds; paper counts its 94-op set)\n", total)
	opt.printf("%-8s %10s %12s\n", "backend", "supported", "paper(MNN)")
	opt.printf("%-8s %10d %12d\n", "CPU", total, 94)
	opt.printf("%-8s %10d %12d\n", "Metal", count(backend.KindMetal), 55)
	opt.printf("%-8s %10d %12d\n", "Vulkan", count(backend.KindVulkan), 35)
	opt.printf("%-8s %10d %12d\n", "OpenCL", count(backend.KindOpenCL), 33)
	opt.printf("%-8s %10d %12d\n", "OpenGL", count(backend.KindOpenGL), 15)
	opt.printf("shape check: CPU > Metal > Vulkan ≥ OpenCL > OpenGL.\n\n")
	return nil
}

// ---------------------------------------------------------------- Table 5

// Table5 reproduces the TVM auto-tuning/compiling cost model next to MNN's
// on-device pre-inference cost (host measured).
func Table5(opt Options) error {
	opt.printf("Table 5 — TVM deployment cost for ResNet-18 (model; paper s in parens)\n")
	opt.printf("%-8s %18s %16s\n", "#Trial", "auto-tune (s)", "compile (s)")
	for _, row := range []struct {
		trials               int
		paperTune, paperComp float64
	}{
		{1, 355, 40}, {10, 1477, 41}, {30, 4583, 41},
	} {
		c := engines.TVMTuningModel(row.trials)
		opt.printf("%-8d %10.0f(%5.0f) %9.0f(%4.0f)\n",
			row.trials, c.AutoTuneSeconds, row.paperTune, c.CompileSeconds, row.paperComp)
	}
	// MNN's counterpart: pre-inference time, measured for real.
	g := models.ResNet18()
	t0 := time.Now()
	s, err := session.New(g, session.Config{Backends: []backend.Backend{cpu.New(cpu.Config{Threads: 4})}})
	if err != nil {
		return err
	}
	prep := time.Since(t0)
	_ = s
	opt.printf("MNN pre-inference (runtime search, host): %.1f ms — vs minutes per device for TVM.\n", ms(prep))
	opt.printf("fleet cost at 10 trials × 500 device types: %.0f hours of tuning.\n\n",
		engines.TVMFleetCost(10, 500)/3600)
	return nil
}

// ---------------------------------------------------------------- Table 6

// Table6Devices pairs the production devices with the paper's average
// inference times.
var Table6Devices = []struct {
	Dev     *device.Profile
	PaperMs float64
}{
	{device.EMLAL00, 87.9},
	{device.PBEM00, 84.5},
	{device.PACM00, 92.0},
	{device.COLAL10, 95.1},
	{device.OPPOR11, 91.4},
}

// Table6 reproduces the online-case-study device table with the simulated
// detector workload.
func Table6(opt Options) error {
	g := models.CommoditySearchDetector()
	opt.printf("Table 6 — production case study: main-object detector AIT (sim ms; paper ms in parens)\n")
	opt.printf("%-10s %-16s %-16s %12s\n", "device", "CPU", "GPU", "AIT")
	var minMs, maxMs float64
	for i, row := range Table6Devices {
		r, err := engines.Simulate(engines.MNN, g, row.Dev, engines.Mode{Threads: 4})
		if err != nil {
			return err
		}
		opt.printf("%-10s %-16s %-16s %6.1f(%5.1f)\n", row.Dev.Name, row.Dev.SoC, row.Dev.GPU, r.SimMs, row.PaperMs)
		if i == 0 || r.SimMs < minMs {
			minMs = r.SimMs
		}
		if r.SimMs > maxMs {
			maxMs = r.SimMs
		}
	}
	opt.printf("shape check: stable across the fleet — spread %.2fx (paper %.2fx).\n\n",
		maxMs/minMs, 95.1/84.5)
	return nil
}

// ---------------------------------------------------------------- Table 7

// Table7 runs the MLPerf-style single-stream benchmark on the host
// (MobileNet-v2, 4 threads), the Appendix A experiment.
func Table7(opt Options) error {
	g := models.MobileNetV2()
	s, err := session.New(g, session.Config{Backends: []backend.Backend{cpu.New(cpu.Config{Threads: 4})}})
	if err != nil {
		return err
	}
	fillSessionInput(s, "data", 5)
	if err := s.Run(context.Background()); err != nil {
		return err
	}
	minQ := 64
	if opt.Quick {
		minQ = 8
	}
	st, err := loadgen.RunSingleStream(func() error { return s.Run(context.Background()) },
		loadgen.Config{MinQueryCount: minQ})
	if err != nil {
		return err
	}
	opt.record("table7", "mobilenet-v2/single-stream", float64(st.MeanLatency.Nanoseconds()), st.QPSWithLoadgen)
	opt.printf("Table 7 — MLPerf single-stream, MobileNet-v2, 4 CPU threads (host; paper on Pixel 3)\n")
	opt.printf("%-34s %14s %14s\n", "item", "this repo", "paper")
	opt.printf("%-34s %14d %14s\n", "query count", st.QueryCount, "1024–5000")
	opt.printf("%-34s %14.2f %14.2f\n", "QPS w/ loadgen overhead", st.QPSWithLoadgen, 64.22)
	opt.printf("%-34s %14.2f %14.2f\n", "QPS w/o loadgen overhead", st.QPSWithoutLoadgen, 64.27)
	opt.printf("%-34s %14.2f %14.2f\n", "min latency (ms)", ms(st.MinLatency), 13.21)
	opt.printf("%-34s %14.2f %14.2f\n", "max latency (ms)", ms(st.MaxLatency), 36.02)
	opt.printf("%-34s %14.2f %14.2f\n", "mean latency (ms)", ms(st.MeanLatency), 15.56)
	opt.printf("%-34s %14.2f %14.2f\n", "p50 latency (ms)", ms(st.P50Latency), 15.60)
	opt.printf("%-34s %14.2f %14.2f\n", "p90 latency (ms)", ms(st.P90Latency), 16.41)
	opt.printf("shape check: QPS w/ ≈ QPS w/o (loadgen overhead negligible); p90/p50 close.\n\n")
	return nil
}

// ---------------------------------------------------------------- Table 8

// Table8 reproduces the Pixel-phone CPU comparison (Inception-v3 float,
// TF-Lite vs MNN, simulated).
func Table8(opt Options) error {
	g := models.InceptionV3()
	paper := map[string][2]float64{ // device/threads → tflite, mnn
		"Pixel 2/1": {974, 664}, "Pixel 2/4": {310, 214},
		"Pixel 3/1": {873, 593}, "Pixel 3/4": {239, 160},
	}
	opt.printf("Table 8 — Inception-v3 on Pixel CPUs (sim ms; paper ms in parens)\n")
	opt.printf("%-10s %9s %18s %18s\n", "phone", "#threads", "TF-Lite", "MNN")
	for _, dev := range []*device.Profile{device.Pixel2, device.Pixel3} {
		for _, threads := range []int{1, 4} {
			tfl, err := engines.Simulate(engines.TFLite, g, dev, engines.Mode{Threads: threads})
			if err != nil {
				return err
			}
			mnn, err := engines.Simulate(engines.MNN, g, dev, engines.Mode{Threads: threads})
			if err != nil {
				return err
			}
			key := fmt.Sprintf("%s/%d", dev.Name, threads)
			p := paper[key]
			opt.printf("%-10s %9d %10.0f(%5.0f) %10.0f(%5.0f)\n",
				dev.Name, threads, tfl.SimMs, p[0], mnn.SimMs, p[1])
		}
	}
	opt.printf("shape check: MNN < TF-Lite at every thread count, both scale with threads.\n\n")
	return nil
}
