package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"time"

	"mnn"
	"mnn/serve"
)

// shapeSpec is one input shape of a workload.
type shapeSpec struct {
	label string  // metric suffix and artifact name, e.g. "L8"
	input []int   // shape of the model's single input
	share float64 // fraction of requests with this shape
	items int     // distinct seeded inputs of this shape
}

// spec is one benchmark workload: what it serves, how, and with what load.
type spec struct {
	name   string
	model  string // built-in network
	input  string // the model's input name
	shapes []shapeSpec
	// opts are the engine options, shared by the serving engine and the
	// idle reference engine that computes expected outputs.
	opts func() []mnn.Option

	// HTTP workloads go client → mesh.Router → serve.Server; the others
	// call Engine.InferInto in process.
	http  bool
	batch serve.BatchConfig
	queue int // admission queue depth

	// closedWorkers > 0 selects a closed loop with that many callers;
	// otherwise arrivals are Poisson at rate per second over conns
	// connections.
	closedWorkers int
	rate          float64
	conns         int

	// limit is the latency a response must meet to count for goodput. The
	// closed loops' limits sit several times above their p99 on a slow
	// host, so there goodput falls below throughput only when latency
	// degrades by that much.
	limit time.Duration
	// setupReps cold set-ups open each round; setup_s is the median over
	// all of a run's set-ups, which makes it steady where one set-up would
	// vary by a third between runs.
	setupReps int
	// idleReps repetitions of each idle measurement in traced runs.
	idleReps int
}

var specs = []*spec{
	{
		name:   "mobilenet-http",
		model:  "mobilenet-v1",
		input:  "data",
		shapes: []shapeSpec{{label: "224", input: []int{1, 3, 224, 224}, share: 1, items: 4}},
		opts: func() []mnn.Option {
			return []mnn.Option{mnn.WithPoolSize(1), mnn.WithThreads(2)}
		},
		http:          true,
		queue:         8,
		closedWorkers: 2,
		limit:         3 * time.Second,
		setupReps:     5,
		idleReps:      7,
	},
	{
		name:  "transformer-mix-http",
		model: "transformer",
		input: "tokens",
		shapes: []shapeSpec{
			{label: "L8", input: []int{1, 8, 32}, share: 0.50, items: 8},
			{label: "L32", input: []int{1, 32, 32}, share: 0.35, items: 8},
			{label: "L128", input: []int{1, 128, 32}, share: 0.15, items: 8},
		},
		opts: func() []mnn.Option {
			return []mnn.Option{mnn.WithPoolSize(2), mnn.WithThreads(1),
				mnn.WithMaxInputShapes(map[string][]int{"tokens": {1, 128, 32}})}
		},
		http:      true,
		batch:     serve.BatchConfig{MaxBatch: 2, MaxLatency: 2 * time.Millisecond, Buckets: 3},
		queue:     8,
		rate:      32,
		conns:     2,
		limit:     50 * time.Millisecond,
		setupReps: 15,
		idleReps:  25,
	},
	{
		name:   "squeezenet-int8-direct",
		model:  "squeezenet-v1.1",
		input:  "data",
		shapes: []shapeSpec{{label: "224", input: []int{1, 3, 224, 224}, share: 1, items: 4}},
		opts: func() []mnn.Option {
			return []mnn.Option{mnn.WithPoolSize(2), mnn.WithThreads(1), mnn.WithPrecision(mnn.PrecisionInt8)}
		},
		closedWorkers: 2,
		limit:         time.Second,
		setupReps:     5,
		idleReps:      7,
	},
}

func findSpec(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// item is one distinct request a workload can send.
type item struct {
	shape  int // index into spec.shapes
	inputs map[string]*mnn.Tensor
	body   []byte                 // KServe-V2 JSON request (HTTP workloads)
	want   map[string]*mnn.Tensor // outputs of the unbatched reference engine
}

// fixture holds a run's seeded inputs, their expected outputs, and the idle
// reference engine that computed them.
type fixture struct {
	items []*item
	ref   *mnn.Engine
}

// buildFixture makes every input from the seed and computes its expected
// outputs once, on an unbatched engine opened with the workload's options.
func buildFixture(sp *spec, seed uint64) (*fixture, error) {
	ref, err := mnn.Open(sp.model, sp.opts()...)
	if err != nil {
		return nil, fmt.Errorf("opening reference engine: %w", err)
	}
	fx := &fixture{ref: ref}
	for si, sh := range sp.shapes {
		for k := 0; k < sh.items; k++ {
			rng := rand.New(rand.NewPCG(seed, uint64(si)<<32|uint64(k)))
			in := mnn.NewTensor(sh.input...)
			data := in.Data()
			for i := range data {
				data[i] = 2*rng.Float32() - 1
			}
			it := &item{shape: si, inputs: map[string]*mnn.Tensor{sp.input: in}}
			if it.want, err = ref.Infer(context.Background(), it.inputs); err != nil {
				ref.Close()
				return nil, fmt.Errorf("computing expected outputs: %w", err)
			}
			if sp.http {
				req := serve.InferRequest{Inputs: []serve.InferTensor{serve.EncodeTensor(sp.input, in)}}
				if it.body, err = json.Marshal(req); err != nil {
					ref.Close()
					return nil, fmt.Errorf("encoding request: %w", err)
				}
			}
			fx.items = append(fx.items, it)
		}
	}
	return fx, nil
}

// firstOfShape returns the first item of each shape.
func (fx *fixture) firstOfShape(nShapes int) []*item {
	out := make([]*item, nShapes)
	for _, it := range fx.items {
		if out[it.shape] == nil {
			out[it.shape] = it
		}
	}
	return out
}

// schedule is the open-loop arrival schedule: Poisson arrivals, each
// drawing a shape by its share and then one of that shape's items.
func (sp *spec) schedule(fx *fixture, seed uint64, dur time.Duration) []arrival {
	byShape := make([][]int, len(sp.shapes))
	for i, it := range fx.items {
		byShape[it.shape] = append(byShape[it.shape], i)
	}
	return poissonSchedule(seed, sp.rate, dur, func(rng *rand.Rand) int {
		u := rng.Float64()
		si := len(sp.shapes) - 1
		for i, sh := range sp.shapes {
			if u < sh.share {
				si = i
				break
			}
			u -= sh.share
		}
		return byShape[si][rng.IntN(len(byShape[si]))]
	})
}

// load runs one timed pass of the workload's traffic against t.
func (sp *spec) load(t target, tr *tracer, tag string, fx *fixture, seed uint64, dur time.Duration) pass {
	if sp.closedWorkers > 0 {
		return closedLoop(t, tr, tag, fx.items, seed, sp.closedWorkers, dur)
	}
	return openLoop(t, tr, tag, fx.items, sp.schedule(fx, seed, dur), sp.conns)
}

// workers is how many callers or connections the workload uses.
func (sp *spec) workers() int {
	if sp.closedWorkers > 0 {
		return sp.closedWorkers
	}
	return sp.conns
}
