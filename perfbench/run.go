package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mnn"
	"mnn/serve"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed    uint64
	seconds int
	trace   bool
	outDir  string    // traced-run artifacts
	report  io.Writer // human-readable lines printed before the result
}

// outcome accumulates what every checked operation of a run did.
type outcome struct {
	attempted int
	failed    int
	firstErr  error
}

func (o *outcome) note(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if o.firstErr == nil {
			o.firstErr = err
		}
	}
}

func (o *outcome) addPass(p *pass) {
	for i := range p.records {
		o.note(p.records[i].err)
	}
}

// warm sends every item once, split across the workload's callers, so lazy
// set-up (bucket engines, shape plans, connections) is done before timing.
// Warm-up requests carry no request ID, so they leave no spans.
func (o *outcome) warm(sp *spec, t target, fx *fixture) {
	n := sp.workers()
	errs := make([][]error, n)
	done := make(chan struct{})
	for w := 0; w < n; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := w; i < len(fx.items); i += n {
				errs[w] = append(errs[w], t.do(w, fx.items[i], ""))
			}
		}(w)
	}
	for w := 0; w < n; w++ {
		<-done
	}
	for _, es := range errs {
		for _, err := range es {
			o.note(err)
		}
	}
}

// openStack performs one cold set-up: Registry.Load or mnn.Open, then the
// servers. load is the time spent in Load/Open alone.
func openStack(sp *spec, tr *tracer, seed uint64, fx *fixture) (stack, time.Duration, error) {
	if sp.http {
		s, load, err := openHTTPStack(sp, tr, seed)
		if err != nil {
			return nil, 0, err
		}
		return s, load, nil
	}
	s, load, err := openDirectStack(sp, fx)
	if err != nil {
		return nil, 0, err
	}
	return s, load, nil
}

// rounds is how many rounds a run makes: an untraced run one, a traced
// run an untraced and a traced one over the same traffic.
func (rc runConfig) rounds() int {
	if rc.trace {
		return 2
	}
	return 1
}

// roundDuration is the length of each round's timed pass.
func (rc runConfig) roundDuration() time.Duration {
	return time.Duration(rc.seconds) * time.Second / time.Duration(rc.rounds())
}

// segments is how many equal parts, by send or due time, an untraced pass
// is split into. A latency quantile is reported as the median over the
// segments of each segment's quantile: the shared host slows down for
// seconds at a time, and a slowdown confined to a few segments does not
// move the median.
const segments = 10

// setupSample is one cold set-up: the Load/Open call alone and the total
// from its start to the first checked response.
type setupSample struct{ load, total time.Duration }

// round is the outcome of one cold-started timed pass.
type round struct {
	pass
	setups   []setupSample
	resident int64
	proc     [2]processSample // before and after the pass
	tr       *tracer
	replica  promDelta // /metrics around a traced pass
	router   promDelta
}

// runRound performs sp.setupReps cold set-ups, each from Load/Open to the
// first checked response (the last stack stays open), a warm-up and one
// timed pass. A non-nil tracer wraps the handlers in span middleware and
// brackets the pass with /metrics scrapes of the replica and the router.
func (o *outcome) runRound(sp *spec, rc runConfig, fx *fixture, tr *tracer, tag string, traffic uint64) (*round, error) {
	r := &round{tr: tr}
	var st stack
	for rep := 0; rep < sp.setupReps; rep++ {
		if st != nil {
			st.close()
		}
		start := time.Now()
		s, load, err := openStack(sp, tr, rc.seed, fx)
		if err != nil {
			return nil, err
		}
		st = s
		o.note(st.do(0, fx.items[0], ""))
		r.setups = append(r.setups, setupSample{load: load, total: time.Since(start)})
	}
	defer st.close()
	o.warm(sp, st, fx)
	r.resident = st.residentBytes()
	hs, isHTTP := st.(*httpStack)
	scrapeNow := tr != nil && isHTTP
	var err error
	if scrapeNow {
		if r.replica.before, r.router.before, err = hs.scrape(); err != nil {
			return nil, err
		}
	}
	r.proc[0] = sampleProcess()
	r.pass = sp.load(st, tr, tag, fx, traffic, rc.roundDuration())
	r.proc[1] = sampleProcess()
	if scrapeNow {
		if r.replica.after, r.router.after, err = hs.scrape(); err != nil {
			return nil, err
		}
	}
	o.addPass(&r.pass)
	lat := r.latenciesMs()
	fmt.Fprintf(rc.report, "round %s: sent=%d succeeded=%d p50=%.3fms p90=%.3fms p99=%.3fms throughput=%.3f/s goodput=%.3f/s\n",
		tag, len(r.records), len(lat), quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99), r.perSecond(0), r.perSecond(sp.limit))
	return r, nil
}

// runWorkload performs one benchmark run: the fixture, then the rounds.
// An untraced run makes one round and reports its end-to-end metrics. A
// traced run makes one untraced and one traced round over the same
// traffic, then measures each shape on the idle reference engine, and
// reports the per-layer metrics.
func runWorkload(sp *spec, rc runConfig) (*outcome, map[string]metricValue, error) {
	o := &outcome{}
	calibStart := hostCalib()
	fx, err := buildFixture(sp, rc.seed)
	if err != nil {
		return nil, nil, err
	}
	defer fx.ref.Close()

	var rs []*round
	var totals, loads, firsts []float64
	traffic := rc.seed ^ 0x9e3779b97f4a7c15
	for i := 0; i < rc.rounds(); i++ {
		var tr *tracer
		tag := "u"
		if i == 1 {
			tr, tag = newTracer(), "t"
		}
		r, err := o.runRound(sp, rc, fx, tr, tag, traffic)
		if err != nil {
			return nil, nil, err
		}
		rs = append(rs, r)
		for _, s := range r.setups {
			totals = append(totals, s.total.Seconds())
			loads = append(loads, ms(s.load))
			firsts = append(firsts, ms(s.total-s.load))
		}
	}
	calibEnd := hostCalib()
	fmt.Fprintf(rc.report, "host.calib_ms start=%.3f end=%.3f\n", calibStart, calibEnd)

	if !rc.trace {
		r := rs[0]
		var p50, p90, p99 []float64
		for _, lat := range r.segmentLatenciesMs(segments, rc.roundDuration()) {
			p50 = append(p50, quantile(lat, 0.5))
			p90 = append(p90, quantile(lat, 0.9))
			p99 = append(p99, quantile(lat, 0.99))
		}
		m := newMetricSet(endToEnd)
		m.set("setup_s", median(totals))
		m.set("latency_p50_ms", median(p50))
		m.set("latency_p90_ms", median(p90))
		m.set("latency_p99_ms", median(p99))
		m.set("throughput_rps", r.perSecond(0))
		m.set("goodput_rps", r.perSecond(sp.limit))
		m.set("resident_mb", float64(r.resident)/1e6)
		return o, m.out(), nil
	}

	plain, traced := rs[0], rs[1]
	m := newMetricSet(perLayer)
	if err := traceMetrics(sp, rc, fx, m, plain, traced); err != nil {
		return nil, nil, err
	}
	m.set("host.calib_ms", (calibStart+calibEnd)/2)
	m.set("setup.load_ms", median(loads))
	m.set("setup.first_response_ms", median(firsts))
	m.set("process.alloc_kb_per_req", ratio(plain.proc[1].allocBytes-plain.proc[0].allocBytes, float64(len(plain.records)))/1024)
	m.set("process.gc_cpu_share", ratio(plain.proc[1].gcCPU-plain.proc[0].gcCPU, plain.proc[1].busyCPU-plain.proc[0].busyCPU))
	late, wait := plain.generatorStats()
	m.set("gen.lateness_p99_ms", late)
	m.set("gen.conn_wait_ms", wait)
	return o, m.out(), nil
}

// traceMetrics derives the per-layer metrics from the untraced and traced
// rounds, measures each shape on the idle reference engine, and writes the
// per-op tables, the spans and the stage reconciliation.
func traceMetrics(sp *spec, rc runConfig, fx *fixture, m *metricSet, plain, traced *round) error {
	tlat := traced.latenciesMs()
	m.set("trace.overhead_ms", quantile(tlat, 0.5)-quantile(plain.latenciesMs(), 0.5))
	replica, router := traced.replica, traced.router

	// Idle measurements, one per shape, weighted by the traced mix.
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		return err
	}
	mix := make([]float64, len(sp.shapes))
	for i, w := range traced.itemMix(len(fx.items)) {
		mix[fx.items[i].shape] += w
	}
	var decode, encode, alloc, engineMs, sessionMs float64
	for si, it := range fx.firstOfShape(len(sp.shapes)) {
		sh := sp.shapes[si]
		idle, err := measureIdle(sp, fx.ref, it)
		if err != nil {
			return fmt.Errorf("idle measurement %s: %w", sh.label, err)
		}
		decode += mix[si] * idle.decodeMs
		encode += mix[si] * idle.encodeMs
		alloc += mix[si] * idle.allocKB
		engineMs += mix[si] * idle.inferMs
		sessionMs += mix[si] * (idle.inferMs - idle.opsMs)
		suffix := ""
		if len(sp.shapes) > 1 {
			suffix = "." + sh.label
			m.set("engine.infer_ms"+suffix, idle.inferMs)
			m.set("session.overhead_ms"+suffix, idle.inferMs-idle.opsMs)
		}
		shapes, err := tensorShapes(fx.ref.Graph(), map[string][]int{sp.input: sh.input})
		if err != nil {
			return err
		}
		rows := opTable(fx.ref.Graph(), shapes, idle.opWallMs)
		if err := writeOpTable(filepath.Join(rc.outDir, "ops-"+sh.label+".tsv"), rows); err != nil {
			return err
		}
		wall, macs := classSums(rows)
		for class, v := range wall {
			if name := "kernels." + class + "_ms" + suffix; m.has(name) {
				m.set(name, v)
			}
		}
		var convMACs int64
		var convMs float64
		for _, c := range []string{"conv_pointwise", "conv_depthwise", "conv_dense"} {
			convMACs += macs[c]
			convMs += wall[c]
		}
		if len(sp.shapes) == 1 {
			m.set("kernels.conv_pointwise_gflops", ratio(2*float64(macs["conv_pointwise"]), wall["conv_pointwise"]*1e6))
			m.set("kernels.conv_gops", ratio(2*float64(convMACs), convMs*1e6))
		} else if sh.label == "L128" {
			m.set("kernels.matmul_gflops", ratio(2*float64(macs["matmul"]), wall["matmul"]*1e6))
		}
	}
	m.set("engine.infer_ms", engineMs)
	m.set("session.overhead_ms", sessionMs)
	m.set("protocol.decode_ms", decode)
	m.set("protocol.encode_ms", encode)
	m.set("protocol.decode_alloc_kb", alloc)

	stats := fx.ref.Stats()
	var arena, noReuse int
	for b, n := range stats.ArenaFloats {
		arena += n
		noReuse += stats.NoReuseFloats[b]
	}
	m.set("preinference.prepare_ms", ms(stats.PrepareTime))
	m.set("memory.arena_mb", float64(arena)*4/1e6)
	m.set("memory.reuse_ratio", ratio(float64(arena), float64(noReuse)))

	spans := traced.tr.stats()
	clientMs := mean(clientDurations(&traced.pass))
	rec := reconciliation{clientMs: clientMs, engineMs: engineMs, decodeMs: decode, encodeMs: encode}
	if sp.http {
		rec.http = true
		rec.linked = spans.requests
		rec.routerMs = spans.routerMs
		rec.replicaMs = spans.replicaMs
		rec.meshSelfMs = spans.meshSelf
		rec.waitMs = replica.meanMs("mnn_queue_wait_seconds")
		rec.inferMs = replica.meanMs("mnn_infer_duration_seconds")
		flushes := replica.count("mnn_batch_flushes_total")
		m.set("mesh.self_ms", spans.meshSelf)
		m.set("mesh.retries", router.count("mnn_mesh_retries_total"))
		m.set("serve.handler_ms", spans.replicaMs)
		m.set("serve.infer_ms", rec.inferMs)
		m.set("serve.stage_residual_ms", rec.stageResidual())
		m.set("admission.wait_ms", rec.waitMs)
		m.set("admission.shed", replica.count("mnn_shed_total"))
		m.set("batcher.flushes", flushes)
		m.set("batcher.batch_size_mean", ratio(replica.count("mnn_batched_requests_total"), flushes))
		m.set("batcher.overhead_ms", rec.inferMs-engineMs)
	}
	m.set("client.gap_ms", rec.clientGap())
	if err := os.WriteFile(filepath.Join(rc.outDir, "reconcile.txt"), []byte(rec.String()), 0o644); err != nil {
		return err
	}
	return traced.tr.writeSpans(filepath.Join(rc.outDir, "spans.jsonl"))
}

// clientDurations is each correct request's time on the wire and in the
// check, from send to checked (connection wait and lateness excluded).
func clientDurations(p *pass) []float64 {
	var out []float64
	for i := range p.records {
		if r := &p.records[i]; r.err == nil {
			out = append(out, ms(r.done-r.sent))
		}
	}
	return out
}

// idleShape is one shape measured with nothing else running.
type idleShape struct {
	decodeMs, encodeMs, allocKB float64 // protocol, on the real body
	inferMs                     float64 // InferInto median
	opsMs                       float64 // median of InferProfiled's per-op sums
	opWallMs                    map[string]float64
}

func measureIdle(sp *spec, eng *mnn.Engine, it *item) (*idleShape, error) {
	ctx := context.Background()
	reps := sp.idleReps
	r := &idleShape{opWallMs: map[string]float64{}}
	if sp.http {
		var ts []float64
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < reps; i++ {
			start := time.Now()
			var req serve.InferRequest
			if err := json.NewDecoder(bytes.NewReader(it.body)).Decode(&req); err != nil {
				return nil, err
			}
			if _, err := req.DecodeInputs(); err != nil {
				return nil, err
			}
			ts = append(ts, ms(time.Since(start)))
		}
		runtime.ReadMemStats(&m1)
		r.decodeMs = median(ts)
		r.allocKB = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(reps) / 1024
		ts = ts[:0]
		var req serve.InferRequest
		for i := 0; i < reps; i++ {
			start := time.Now()
			resp, err := req.EncodeOutputs(sp.model, eng.OutputNames(), it.want)
			if err != nil {
				return nil, err
			}
			if err := json.NewEncoder(io.Discard).Encode(resp); err != nil {
				return nil, err
			}
			ts = append(ts, ms(time.Since(start)))
		}
		r.encodeMs = median(ts)
	}
	outs := map[string]*mnn.Tensor{}
	for name, t := range it.want {
		outs[name] = mnn.NewTensor(t.Shape()...)
	}
	var infer, sums []float64
	perNode := map[string][]float64{}
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := eng.InferInto(ctx, it.inputs, outs); err != nil {
			return nil, err
		}
		infer = append(infer, ms(time.Since(start)))
		if err := checkTensors(outs, it.want); err != nil {
			return nil, err
		}
		_, prof, err := eng.InferProfiled(ctx, it.inputs)
		if err != nil {
			return nil, err
		}
		sum := 0.0
		for _, e := range prof.Entries {
			perNode[e.Node] = append(perNode[e.Node], ms(e.Wall))
			sum += ms(e.Wall)
		}
		sums = append(sums, sum)
	}
	r.inferMs = median(infer)
	r.opsMs = median(sums)
	for n, ts := range perNode {
		r.opWallMs[n] = median(ts)
	}
	return r, nil
}

// reconciliation lines the measured stages up against the client-observed
// mean and shows what they leave unexplained.
type reconciliation struct {
	http                         bool
	linked                       int     // requests with client, router and replica spans
	clientMs                     float64 // client span mean
	routerMs, replicaMs          float64 // span means
	meshSelfMs                   float64
	decodeMs, encodeMs, engineMs float64 // idle, mix-weighted
	waitMs, inferMs              float64 // /metrics deltas
}

// stageResidual is the replica span minus the stages inside it.
func (r reconciliation) stageResidual() float64 {
	return r.replicaMs - (r.decodeMs + r.waitMs + r.inferMs + r.encodeMs)
}

// clientGap is the client-observed mean minus the outermost measured stage.
func (r reconciliation) clientGap() float64 {
	if r.http {
		return r.clientMs - r.routerMs
	}
	return r.clientMs - r.engineMs
}

func (r reconciliation) String() string {
	var b bytes.Buffer
	row := func(depth int, name string, v float64) {
		fmt.Fprintf(&b, "%*s%-*s %10.3f ms\n", 2*depth, "", 44-2*depth, name, v)
	}
	row(0, "client-observed mean (send to checked)", r.clientMs)
	if !r.http {
		row(1, "engine InferInto, idle", r.engineMs)
		row(1, "gap (concurrency, copies, check)", r.clientGap())
		return b.String()
	}
	fmt.Fprintf(&b, "(span means over %d requests with all three spans)\n", r.linked)
	row(1, "router span (mesh.Router.Handler)", r.routerMs)
	row(2, "mesh self (router - replica)", r.meshSelfMs)
	row(2, "replica span (serve.Server.Handler)", r.replicaMs)
	row(3, "protocol decode, idle", r.decodeMs)
	row(3, "admission wait, /metrics", r.waitMs)
	row(3, "infer incl. batching, /metrics", r.inferMs)
	row(4, "engine InferInto, idle", r.engineMs)
	row(4, "batcher and dispatch overhead", r.inferMs-r.engineMs)
	row(3, "protocol encode, idle", r.encodeMs)
	row(3, "residual (replica - stages)", r.stageResidual())
	row(1, "gap (client - router)", r.clientGap())
	return b.String()
}
