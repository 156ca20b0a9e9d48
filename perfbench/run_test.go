package main

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// A short run of the cheapest workload in both modes reports exactly the
// declared metrics, all finite, with every operation checked and correct,
// and a traced run leaves its artifacts behind.
func TestRunWorkloadReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the transformer workload for a few seconds")
	}
	sp := findSpec("transformer-mix-http")
	for _, trace := range []bool{false, true} {
		out := t.TempDir()
		o, metrics, err := runWorkload(sp, runConfig{seed: 3, seconds: 3, trace: trace, outDir: out, report: io.Discard})
		if err != nil {
			t.Fatalf("trace=%v: %v", trace, err)
		}
		if o.failed != 0 || o.attempted == 0 {
			t.Fatalf("trace=%v: %d of %d failed: %v", trace, o.failed, o.attempted, o.firstErr)
		}
		want := endToEnd
		if trace {
			want = perLayer
		}
		if len(metrics) != len(want) {
			t.Fatalf("trace=%v: %d metrics, want %d", trace, len(metrics), len(want))
		}
		for _, d := range want {
			v, ok := metrics[d.name]
			if !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("trace=%v: %s = %+v", trace, d.name, v)
			}
		}
		if !trace {
			for _, name := range []string{"setup_s", "latency_p50_ms", "throughput_rps", "resident_mb"} {
				if metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, metrics[name].Value)
				}
			}
			continue
		}
		for _, f := range []string{"ops-L8.tsv", "ops-L32.tsv", "ops-L128.tsv", "reconcile.txt", "spans.jsonl"} {
			if st, err := os.Stat(filepath.Join(out, f)); err != nil || st.Size() == 0 {
				t.Errorf("artifact %s missing or empty: %v", f, err)
			}
		}
		if metrics["batcher.flushes"].Value <= 0 || metrics["serve.handler_ms"].Value <= 0 {
			t.Errorf("traced run saw no batcher flushes or handler spans: %+v %+v",
				metrics["batcher.flushes"], metrics["serve.handler_ms"])
		}
	}
}
