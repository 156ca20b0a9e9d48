package bench

import (
	"bytes"
	"strings"
	"testing"
)

// Every experiment must run clean in quick mode and emit its table header —
// this is the regression net for the harness behind cmd/mnnbench.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment end to end (~20s even in quick mode)")
	}
	headers := map[string]string{
		"table1":            "Table 1",
		"table2":            "Table 2",
		"table3":            "Table 3",
		"table4":            "Table 4",
		"table5":            "Table 5",
		"table6":            "Table 6",
		"table7":            "Table 7",
		"table8":            "Table 8",
		"figure7":           "Figure 7",
		"figure8":           "Figure 8",
		"figure9":           "Figure 9",
		"ablation-strassen": "Strassen",
		"ablation-layout":   "NC4HW4",
		"ablation-memory":   "memory",
		"ablation-tile":     "tile",
		"throughput":        "Throughput",
		"serving":           "Serving",
	}
	rec := &Recorder{}
	for _, exp := range Experiments {
		exp := exp
		t.Run(exp, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Run(exp, Options{Quick: true, Out: &buf, Recorder: rec}); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), headers[exp]) {
				t.Errorf("output missing header %q:\n%s", headers[exp], buf.String())
			}
		})
	}
	// The instrumented experiments must have fed the -json recorder, and
	// the rows must serialize.
	if len(rec.Results()) == 0 {
		t.Error("no experiment recorded machine-readable results")
	}
	var out bytes.Buffer
	if err := rec.WriteJSON(&out); err != nil {
		t.Errorf("WriteJSON: %v", err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := Run("table99", Options{Quick: true, Out: &bytes.Buffer{}}); err == nil {
		t.Fatal("expected unknown-experiment error")
	}
}

func TestTable2ShapePreserved(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full sessions")
	}
	rows, err := Table2Rows(Options{Quick: true, Out: &bytes.Buffer{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows: %d", len(rows))
	}
	// The CPU row's effect is only a few percent (the paper's 6.5–7.6%) and
	// host wall-clock noise under `go test` can exceed it, so allow slack.
	// Table2Rows runs the two sessions interleaved and keeps each one's
	// fastest run, so contention cannot land on one side only.
	if cpuRow := rows[0]; cpuRow.With > cpuRow.WithoutMs*1.15 {
		t.Errorf("%s: decoupled run (%.1f) should not be clearly slower than interleaved (%.1f)",
			cpuRow.Label, cpuRow.With, cpuRow.WithoutMs)
	}
	for _, r := range rows[1:] {
		if r.With >= r.WithoutMs {
			t.Errorf("%s: decoupling must help (w/ %.1f vs w/o %.1f)", r.Label, r.With, r.WithoutMs)
		}
	}
	// GPU rows must show the paper's dramatic (≥40%) improvement.
	for _, r := range rows[1:] {
		drop := (r.WithoutMs - r.With) / r.WithoutMs
		if drop < 0.40 {
			t.Errorf("%s: GPU drop %.0f%%, want ≥40%%", r.Label, drop*100)
		}
	}
}

func TestTable1OursTracksBest(t *testing.T) {
	if testing.Short() {
		t.Skip("measures real conv kernels repeatedly (~5s)")
	}
	// For each Table 1 case, "ours" must be within 40% of the best fixed
	// scheme (the paper's claim: best or comparable-to-best). The schemes
	// run interleaved and each keeps its fastest of three rounds, so a
	// contended host slows every candidate alike.
	for _, c := range Table1Cases {
		row, err := Table1Row(c, 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		best := min(row[0], row[1], row[2])
		if ours := row[3]; ms(ours) > ms(best)*1.4 {
			t.Errorf("case (%d,%d,%d,%d): ours %.1f ms vs best fixed %.1f ms",
				c.K, c.IC, c.OC, c.Size, ms(ours), ms(best))
		}
	}
}
