package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"mnn"
	"mnn/serve"
	"mnn/serve/mesh"
)

// stack is one opened serving path: the target plus what a run reads from
// it and how to tear it down.
type stack interface {
	target
	residentBytes() int64
	close()
}

// httpStack is client → mesh.Router → serve.Server, each handler mounted on
// a benchmark-owned http.Server on a loopback port.
type httpStack struct {
	reg        *serve.Registry
	srv        *serve.Server
	replica    *http.Server
	replicaURL string
	router     *mesh.Router
	routerTr   *http.Transport
	front      *http.Server
	frontURL   string
	client     *http.Client
	inferURL   string
	serving    chan error // one value per http.Server when Serve returns
}

func openHTTPStack(sp *spec, tr *tracer, seed uint64) (*httpStack, time.Duration, error) {
	reg := serve.NewRegistry()
	start := time.Now()
	err := reg.Load(sp.model, serve.ModelConfig{
		Model:     sp.model,
		Options:   sp.opts(),
		Batch:     sp.batch,
		Admission: serve.AdmissionConfig{Queue: sp.queue},
	})
	load := time.Since(start)
	if err != nil {
		reg.Close()
		return nil, 0, fmt.Errorf("loading %s: %w", sp.model, err)
	}
	s := &httpStack{reg: reg, srv: serve.NewServer(reg), serving: make(chan error, 2)}
	var replicaHandler http.Handler = s.srv.Handler()
	if tr != nil {
		replicaHandler = tr.wrap(spanReplica, replicaHandler)
	}
	if s.replica, s.replicaURL, err = s.listen(replicaHandler); err != nil {
		s.close()
		return nil, 0, err
	}
	s.routerTr = &http.Transport{MaxIdleConnsPerHost: sp.workers(), DisableCompression: true}
	s.router, err = mesh.New(mesh.Config{Replicas: []string{s.replicaURL}, RetrySeed: seed, Transport: s.routerTr})
	if err != nil {
		s.close()
		return nil, 0, fmt.Errorf("starting router: %w", err)
	}
	var routerHandler http.Handler = s.router.Handler()
	if tr != nil {
		routerHandler = tr.wrap(spanRouter, routerHandler)
	}
	if s.front, s.frontURL, err = s.listen(routerHandler); err != nil {
		s.close()
		return nil, 0, err
	}
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     sp.workers(),
		MaxIdleConnsPerHost: sp.workers(),
		DisableCompression:  true,
	}}
	s.inferURL = s.frontURL + "/v2/models/" + sp.model + "/infer"
	return s, load, nil
}

func (s *httpStack) listen(h http.Handler) (*http.Server, string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("listening: %w", err)
	}
	hs := &http.Server{Handler: h}
	go func() { s.serving <- hs.Serve(l) }()
	return hs, "http://" + l.Addr().String(), nil
}

func (s *httpStack) do(_ int, it *item, id string) error {
	req, err := http.NewRequest(http.MethodPost, s.inferURL, bytes.NewReader(it.body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set(requestIDHeader, id)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("reading response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		if len(body) > 200 {
			body = body[:200]
		}
		return fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	var out serve.InferResponse
	if err := json.Unmarshal(body, &out); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	return checkResponse(&out, it.want)
}

func (s *httpStack) residentBytes() int64 { return s.reg.ResidentBytes() }

// scrape reads /metrics from the replica and from the router.
func (s *httpStack) scrape() (replica, router promSnapshot, err error) {
	if replica, err = scrape(s.client, s.replicaURL+"/metrics"); err != nil {
		return nil, nil, err
	}
	if router, err = scrape(s.client, s.frontURL+"/metrics"); err != nil {
		return nil, nil, err
	}
	return replica, router, nil
}

// close stops the servers, the router and the registry, and waits for
// every Serve goroutine to return.
func (s *httpStack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	running := 0
	for _, hs := range []*http.Server{s.front, s.replica} {
		if hs != nil {
			running++
			_ = hs.Shutdown(ctx) // a stuck connection is closed by the deadline
		}
	}
	if s.router != nil {
		s.router.Close()
	}
	if s.routerTr != nil {
		s.routerTr.CloseIdleConnections()
	}
	_ = s.srv.Shutdown(ctx) // closes the registry and its engines
	for ; running > 0; running-- {
		if err := <-s.serving; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: server stopped: %v\n", err)
		}
	}
}

// directStack is callers sharing one mnn.Engine in process, each with its
// own output tensors for InferInto.
type directStack struct {
	eng  *mnn.Engine
	outs []map[string]*mnn.Tensor
}

func openDirectStack(sp *spec, fx *fixture) (*directStack, time.Duration, error) {
	start := time.Now()
	eng, err := mnn.Open(sp.model, sp.opts()...)
	load := time.Since(start)
	if err != nil {
		return nil, 0, fmt.Errorf("opening %s: %w", sp.model, err)
	}
	d := &directStack{eng: eng}
	for w := 0; w < sp.workers(); w++ {
		out := map[string]*mnn.Tensor{}
		for name, t := range fx.items[0].want {
			out[name] = mnn.NewTensor(t.Shape()...)
		}
		d.outs = append(d.outs, out)
	}
	return d, load, nil
}

func (d *directStack) do(worker int, it *item, _ string) error {
	out := d.outs[worker]
	if err := d.eng.InferInto(context.Background(), it.inputs, out); err != nil {
		return err
	}
	return checkTensors(out, it.want)
}

func (d *directStack) residentBytes() int64 { return d.eng.MemoryBytes() }

func (d *directStack) close() { d.eng.Close() }
