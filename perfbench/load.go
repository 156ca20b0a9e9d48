package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"time"
)

// target executes one request of a workload. do returns nil only when the
// response arrived and every output matched the expected bits; the worker
// index selects per-caller state such as output buffers.
type target interface {
	do(worker int, it *item, id string) error
}

// record is one request of a load pass. Times are offsets from the pass
// start. In an open loop due is the scheduled arrival, dispatched is when
// the generator handed it to the connection queue and sent when a
// connection took it; in a closed loop all three are the send time.
type record struct {
	item       int
	due        time.Duration
	dispatched time.Duration
	sent       time.Duration
	done       time.Duration
	err        error
}

// latency is timed from the due time, so a stall also charges the requests
// queued behind it.
func (r *record) latency() time.Duration { return r.done - r.due }

// pass is the outcome of one timed load pass.
type pass struct {
	records []record
	wall    time.Duration // pass start → last completion, drain included
}

// latenciesMs returns the latencies of correct responses.
func (p *pass) latenciesMs() []float64 {
	out := make([]float64, 0, len(p.records))
	for i := range p.records {
		if p.records[i].err == nil {
			out = append(out, ms(p.records[i].latency()))
		}
	}
	return out
}

// segmentLatenciesMs splits a pass of length dur into n equal segments by
// due time and returns the latencies of each segment's correct responses,
// leaving out segments that have none.
func (p *pass) segmentLatenciesMs(n int, dur time.Duration) [][]float64 {
	segs := make([][]float64, n)
	for i := range p.records {
		r := &p.records[i]
		if r.err != nil {
			continue
		}
		k := min(int(int64(r.due)*int64(n)/int64(dur)), n-1)
		segs[k] = append(segs[k], ms(r.latency()))
	}
	out := segs[:0]
	for _, s := range segs {
		if len(s) > 0 {
			out = append(out, s)
		}
	}
	return out
}

// perSecond counts correct responses within limit (0: no limit) per second
// of wall time.
func (p *pass) perSecond(limit time.Duration) float64 {
	n := 0
	for i := range p.records {
		r := &p.records[i]
		if r.err == nil && (limit == 0 || r.latency() <= limit) {
			n++
		}
	}
	return ratio(float64(n), p.wall.Seconds())
}

// itemMix is the share of requests that used each item.
func (p *pass) itemMix(nItems int) []float64 {
	w := make([]float64, nItems)
	for i := range p.records {
		w[p.records[i].item] += 1 / float64(len(p.records))
	}
	return w
}

func requestID(tag string, worker, seq int) string {
	return fmt.Sprintf("%s-%d-%d", tag, worker, seq)
}

// closedLoop runs `workers` callers, each sending its next request as soon
// as the previous one completes, until dur has passed; requests in flight
// at that point finish and count. Each caller draws items from its own
// seeded stream, so a seed fixes every caller's request sequence.
func closedLoop(t target, tr *tracer, tag string, items []*item, seed uint64, workers int, dur time.Duration) pass {
	perWorker := make([][]record, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(w)+1))
			for seq := 0; time.Since(start) < dur; seq++ {
				idx := rng.IntN(len(items))
				id := requestID(tag, w, seq)
				sentAt := time.Now()
				err := t.do(w, items[idx], id)
				doneAt := time.Now()
				tr.record(id, spanClient, sentAt, doneAt)
				sent := sentAt.Sub(start)
				perWorker[w] = append(perWorker[w], record{item: idx, due: sent, dispatched: sent, sent: sent,
					done: doneAt.Sub(start), err: err})
			}
		}(w)
	}
	wg.Wait()
	p := pass{wall: time.Since(start)}
	for _, rs := range perWorker {
		p.records = append(p.records, rs...)
	}
	return p
}

// arrival is one scheduled request of an open loop.
type arrival struct {
	at   time.Duration
	item int
}

// poissonSchedule draws exponential inter-arrival gaps at rate requests per
// second over dur, and an item for each arrival from pick.
func poissonSchedule(seed uint64, rate float64, dur time.Duration, pick func(*rand.Rand) int) []arrival {
	rng := rand.New(rand.NewPCG(seed, 0x5ca1ab1e))
	var out []arrival
	at := 0.0
	for {
		at += -math.Log(1-rng.Float64()) / rate
		if at >= dur.Seconds() {
			return out
		}
		out = append(out, arrival{at: time.Duration(at * float64(time.Second)), item: pick(rng)})
	}
}

// openLoop sends every arrival at its scheduled time, whatever the state of
// earlier requests, over at most conns connections: a generator goroutine
// releases arrivals on time into a queue that conns sender goroutines
// drain, each holding one keep-alive connection. Time a request spends in
// that queue is connection wait; the generator's own delay is lateness.
func openLoop(t target, tr *tracer, tag string, items []*item, sched []arrival, conns int) pass {
	recs := make([]record, len(sched))
	queue := make(chan int, len(sched)) // sized to the number of sends
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range queue {
				r := &recs[i]
				id := requestID(tag, w, i)
				sentAt := time.Now()
				r.sent = sentAt.Sub(start)
				r.err = t.do(w, items[r.item], id)
				doneAt := time.Now()
				r.done = doneAt.Sub(start)
				tr.record(id, spanClient, sentAt, doneAt)
			}
		}(w)
	}
	for i, a := range sched {
		if d := a.at - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		recs[i].item = a.item
		recs[i].due = a.at
		recs[i].dispatched = time.Since(start)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return pass{records: recs, wall: time.Since(start)}
}

// generatorStats reports how late the generator released arrivals (p99)
// and the mean time requests waited for a free connection, in ms.
func (p *pass) generatorStats() (latenessP99, connWait float64) {
	var late, wait []float64
	for i := range p.records {
		r := &p.records[i]
		late = append(late, ms(r.dispatched-r.due))
		wait = append(wait, ms(r.sent-r.dispatched))
	}
	return quantile(late, 0.99), mean(wait)
}
