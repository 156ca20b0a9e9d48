package main

import (
	"errors"
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"time"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("empty quantile is not 0")
	}
}

// Segments split a pass by due time and drop failed requests and empty
// segments.
func TestSegmentLatenciesSplitByDueTime(t *testing.T) {
	p := pass{records: []record{
		{due: 0, done: 2 * time.Millisecond},
		{due: 4 * time.Second, done: 4*time.Second + 5*time.Millisecond},
		{due: 5 * time.Second, done: 5*time.Second + 7*time.Millisecond, err: errors.New("mismatch")},
		{due: 9 * time.Second, done: 9*time.Second + 3*time.Millisecond},
	}}
	segs := p.segmentLatenciesMs(5, 10*time.Second)
	want := [][]float64{{2}, {5}, {3}}
	if len(segs) != len(want) {
		t.Fatalf("segments %v, want %v", segs, want)
	}
	for i := range want {
		if len(segs[i]) != 1 || segs[i][0] != want[i][0] {
			t.Fatalf("segments %v, want %v", segs, want)
		}
	}
}

func TestPoissonScheduleIsSeededAndOnRate(t *testing.T) {
	pick := func(r *rand.Rand) int { return r.IntN(3) }
	a := poissonSchedule(3, 100, 20*time.Second, pick)
	b := poissonSchedule(3, 100, 20*time.Second, pick)
	c := poissonSchedule(4, 100, 20*time.Second, pick)
	if len(a) != len(b) || a[len(a)-1] != b[len(b)-1] {
		t.Fatal("same seed gave different schedules")
	}
	if len(a) == len(c) && a[len(a)-1] == c[len(c)-1] {
		t.Fatal("different seeds gave the same schedule")
	}
	// 2000 expected arrivals; five standard deviations is ±224.
	if math.Abs(float64(len(a))-2000) > 224 {
		t.Fatalf("%d arrivals in 20 s at 100/s", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i].at < a[i-1].at {
			t.Fatal("arrivals out of order")
		}
	}
}

func TestScheduleFollowsLengthMix(t *testing.T) {
	sp := findSpec("transformer-mix-http")
	fx := &fixture{}
	for si, sh := range sp.shapes {
		for k := 0; k < sh.items; k++ {
			fx.items = append(fx.items, &item{shape: si})
		}
	}
	sched := sp.schedule(fx, 11, 100*time.Second)
	counts := make([]float64, len(sp.shapes))
	for _, a := range sched {
		counts[fx.items[a.item].shape]++
	}
	for si, sh := range sp.shapes {
		got := counts[si] / float64(len(sched))
		if math.Abs(got-sh.share) > 0.03 {
			t.Errorf("%s share %.3f, want %.2f", sh.label, got, sh.share)
		}
	}
}

// fakeTarget sleeps per request and records how many requests overlap.
type fakeTarget struct {
	mu       sync.Mutex
	inFlight int
	maxSeen  int
	calls    int
}

func (f *fakeTarget) do(_ int, _ *item, _ string) error {
	f.mu.Lock()
	f.calls++
	f.inFlight++
	if f.inFlight > f.maxSeen {
		f.maxSeen = f.inFlight
	}
	f.mu.Unlock()
	time.Sleep(2 * time.Millisecond)
	f.mu.Lock()
	f.inFlight--
	f.mu.Unlock()
	return nil
}

func TestOpenLoopSendsOnScheduleOverBoundedConnections(t *testing.T) {
	items := []*item{{}, {}}
	sched := poissonSchedule(5, 2000, 100*time.Millisecond, func(r *rand.Rand) int { return r.IntN(2) })
	f := &fakeTarget{}
	tr := newTracer()
	p := openLoop(f, tr, "o", items, sched, 2)
	if f.calls != len(sched) || len(p.records) != len(sched) {
		t.Fatalf("%d calls, %d records for %d arrivals", f.calls, len(p.records), len(sched))
	}
	if f.maxSeen > 2 {
		t.Fatalf("%d requests in flight over 2 connections", f.maxSeen)
	}
	for i := range p.records {
		r := &p.records[i]
		if r.dispatched < r.due || r.sent < r.dispatched || r.done < r.sent {
			t.Fatalf("record %d out of order: %+v", i, *r)
		}
	}
	// 2000/s against 2 connections of 2 ms each: requests queue, and the
	// queueing counts as connection wait and in the latency from due time.
	_, wait := p.generatorStats()
	if wait <= 0 {
		t.Fatal("no connection wait at twice the connections' capacity")
	}
	if got := tr.stats().requests; got != 0 {
		t.Fatalf("client spans alone made %d complete requests", got)
	}
}

func TestClosedLoopKeepsOneRequestPerCaller(t *testing.T) {
	f := &fakeTarget{}
	p := closedLoop(f, nil, "c", []*item{{}, {}, {}}, 9, 2, 50*time.Millisecond)
	if f.maxSeen > 2 || len(p.records) != f.calls || f.calls < 10 {
		t.Fatalf("max in flight %d, %d records, %d calls", f.maxSeen, len(p.records), f.calls)
	}
	o := &outcome{}
	o.addPass(&p)
	if o.failed != 0 {
		t.Fatalf("%d failures", o.failed)
	}
}
