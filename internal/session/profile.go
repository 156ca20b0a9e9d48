package session

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"mnn/internal/graph"
	"mnn/internal/tensor"
)

// ProfileEntry is one operator's measured cost in a profiled run.
type ProfileEntry struct {
	Node    string
	Op      graph.OpType
	Backend string
	// Wall is the host wall-clock time of the execution (staging copies
	// for the node are included).
	Wall time.Duration
}

// Profile is a per-operator breakdown of one inference.
type Profile struct {
	Entries []ProfileEntry
	Total   time.Duration
}

// RunProfiled executes one inference measuring every operator, the
// equivalent of the original engine's per-op profiler tooling. It is
// RunObserved with a timing observer, so it checks ctx between operators and
// runs every node behind the same panic barrier and fault site as Run.
func (s *Session) RunProfiled(ctx context.Context) (*Profile, error) {
	p := &Profile{Entries: make([]ProfileEntry, 0, len(s.steps))}
	var start, end time.Time
	err := s.RunObserved(ctx, func(n *graph.Node, _ []*tensor.Tensor, wall time.Duration) {
		end = time.Now()
		if start.IsZero() {
			// Total starts at the first node, not before a NoPreparation
			// session's re-prepare.
			start = end.Add(-wall)
		}
		p.Entries = append(p.Entries, ProfileEntry{
			Node:    n.Name,
			Op:      n.Op,
			Backend: s.assign[n.Name],
			Wall:    wall,
		})
	})
	if err != nil {
		return nil, err
	}
	p.Total = end.Sub(start)
	return p, nil
}

// ByOp aggregates total time per operator type, descending.
func (p *Profile) ByOp() []ProfileEntry {
	agg := map[graph.OpType]time.Duration{}
	for _, e := range p.Entries {
		agg[e.Op] += e.Wall
	}
	out := make([]ProfileEntry, 0, len(agg))
	for op, d := range agg {
		out = append(out, ProfileEntry{Op: op, Wall: d})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Wall > out[j].Wall })
	return out
}

// Hottest returns the n slowest operators, descending.
func (p *Profile) Hottest(n int) []ProfileEntry {
	out := append([]ProfileEntry(nil), p.Entries...)
	sort.Slice(out, func(i, j int) bool { return out[i].Wall > out[j].Wall })
	if n > len(out) {
		n = len(out)
	}
	return out[:n]
}

// Dump writes a human-readable report.
func (p *Profile) Dump(w io.Writer, topN int) {
	fmt.Fprintf(w, "total: %.2f ms over %d ops\n", msOf(p.Total), len(p.Entries))
	fmt.Fprintf(w, "\nby op type:\n")
	for _, e := range p.ByOp() {
		pct := 0.0
		if p.Total > 0 {
			pct = float64(e.Wall) / float64(p.Total) * 100
		}
		fmt.Fprintf(w, "  %-14s %9.2f ms %5.1f%%\n", e.Op, msOf(e.Wall), pct)
	}
	fmt.Fprintf(w, "\nhottest %d operators:\n", topN)
	for _, e := range p.Hottest(topN) {
		fmt.Fprintf(w, "  %-28s %-12s %-8s %9.2f ms\n", e.Node, e.Op, e.Backend, msOf(e.Wall))
	}
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
