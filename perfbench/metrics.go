package main

import "fmt"

// metricDef names one reported metric and its unit. The tables below must
// match BENCHMARK.json; a test checks that they do.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees; untraced runs report these.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"goodput_rps", "1/s"},
	{"resident_mb", "MB"},
}

// perLayer is what traced runs report. A layer a workload does not use
// (HTTP layers on the in-process workload, a kernel class a model does not
// have, a sequence length it does not send) reads 0.
var perLayer = []metricDef{
	{"protocol.decode_ms", "ms"},
	{"protocol.encode_ms", "ms"},
	{"protocol.decode_alloc_kb", "KB"},
	{"process.alloc_kb_per_req", "KB"},
	{"process.gc_cpu_share", "ratio"},
	{"mesh.self_ms", "ms"},
	{"mesh.retries", "count"},
	{"serve.handler_ms", "ms"},
	{"serve.infer_ms", "ms"},
	{"serve.stage_residual_ms", "ms"},
	{"client.gap_ms", "ms"},
	{"admission.wait_ms", "ms"},
	{"admission.shed", "count"},
	{"batcher.batch_size_mean", "count"},
	{"batcher.flushes", "count"},
	{"batcher.overhead_ms", "ms"},
	{"engine.infer_ms", "ms"},
	{"engine.infer_ms.L8", "ms"},
	{"engine.infer_ms.L32", "ms"},
	{"engine.infer_ms.L128", "ms"},
	{"session.overhead_ms", "ms"},
	{"session.overhead_ms.L8", "ms"},
	{"session.overhead_ms.L32", "ms"},
	{"session.overhead_ms.L128", "ms"},
	{"kernels.conv_pointwise_ms", "ms"},
	{"kernels.conv_depthwise_ms", "ms"},
	{"kernels.conv_dense_ms", "ms"},
	{"kernels.fc_ms", "ms"},
	{"kernels.pool_ms", "ms"},
	{"kernels.concat_ms", "ms"},
	{"kernels.conv_pointwise_gflops", "GFLOP/s"},
	{"kernels.conv_gops", "GOP/s"},
	{"kernels.matmul_ms.L8", "ms"},
	{"kernels.gelu_ms.L8", "ms"},
	{"kernels.softmax_ms.L8", "ms"},
	{"kernels.layernorm_ms.L8", "ms"},
	{"kernels.matmul_ms.L128", "ms"},
	{"kernels.gelu_ms.L128", "ms"},
	{"kernels.softmax_ms.L128", "ms"},
	{"kernels.layernorm_ms.L128", "ms"},
	{"kernels.matmul_gflops", "GFLOP/s"},
	{"preinference.prepare_ms", "ms"},
	{"setup.load_ms", "ms"},
	{"setup.first_response_ms", "ms"},
	{"memory.arena_mb", "MB"},
	{"memory.reuse_ratio", "ratio"},
	{"host.calib_ms", "ms"},
	{"gen.lateness_p99_ms", "ms"},
	{"gen.conn_wait_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricSet collects one run's values for a fixed table of metrics; every
// metric of the table is reported, unset ones as 0.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: map[string]float64{}}
}

func (m *metricSet) set(name string, v float64) {
	if !m.has(name) {
		panic(fmt.Sprintf("perfbench: metric %q is not declared", name))
	}
	m.values[name] = v
}

func (m *metricSet) out() map[string]metricValue {
	out := make(map[string]metricValue, len(m.defs))
	for _, d := range m.defs {
		out[d.name] = metricValue{Value: m.values[d.name], Unit: d.unit}
	}
	return out
}

func (m *metricSet) has(name string) bool {
	for _, d := range m.defs {
		if d.name == name {
			return true
		}
	}
	return false
}
