package main

import (
	"strings"
	"testing"
)

const promSample = `# HELP mnn_queue_wait_seconds Time requests spent waiting.
# TYPE mnn_queue_wait_seconds histogram
mnn_queue_wait_seconds_bucket{model="m:1",le="0.005"} 3
mnn_queue_wait_seconds_sum{model="m:1"} 0.25
mnn_queue_wait_seconds_count{model="m:1"} 5
mnn_shed_total{model="m:1",reason="queue_full"} 2
mnn_shed_total{model="m:1",reason="deadline"} 1
mnn_shed_total_extra 100
mnn_resident_bytes 1.5e+06
mnn_label_with_space{note="a b"} 4 1700000000000
`

func TestParsePromAndDelta(t *testing.T) {
	after, err := parseProm(strings.NewReader(promSample))
	if err != nil {
		t.Fatal(err)
	}
	if got := after.family("mnn_shed_total"); got != 3 {
		t.Errorf("shed family sum = %v, want 3 (a longer family name must not match)", got)
	}
	if got := after.family("mnn_resident_bytes"); got != 1.5e6 {
		t.Errorf("unlabelled series = %v", got)
	}
	if got := after.family("mnn_label_with_space"); got != 4 {
		t.Errorf("label value with a space = %v, want 4", got)
	}
	before := promSnapshot{`mnn_queue_wait_seconds_sum{model="m:1"}`: 0.05, `mnn_queue_wait_seconds_count{model="m:1"}`: 1}
	d := promDelta{before: before, after: after}
	if got := d.meanMs("mnn_queue_wait_seconds"); got != 50 {
		t.Errorf("mean wait = %v ms, want 50", got)
	}
	if got := d.count("mnn_shed_total"); got != 3 {
		t.Errorf("shed delta = %v, want 3", got)
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	if _, err := parseProm(strings.NewReader("mnn_x{a=\"b\"} notanumber\n")); err == nil {
		t.Fatal("non-numeric value accepted")
	}
	if _, err := parseProm(strings.NewReader("mnn_x\n")); err == nil {
		t.Fatal("line without a value accepted")
	}
}
