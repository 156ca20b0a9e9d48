package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"
)

// requestIDHeader carries the client's request ID; the router forwards it
// to the replica with the rest of the end-to-end headers, which is what
// links the three spans of one request.
const requestIDHeader = "X-Request-Id"

// Span names, one per layer boundary the benchmark can see from outside.
const (
	spanClient  = "client"  // send → response decoded and checked
	spanRouter  = "router"  // mesh.Router.Handler
	spanReplica = "replica" // serve.Server.Handler
)

var spanParent = map[string]string{spanRouter: spanClient, spanReplica: spanRouter}

type span struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for the traced run; they are written out
// when the run ends. A nil *tracer records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

func (tr *tracer) record(id, name string, start, end time.Time) {
	if tr == nil || id == "" {
		return
	}
	s := span{ID: id, Name: name, Parent: spanParent[name],
		Start: int64(start.Sub(tr.t0)), End: int64(end.Sub(tr.t0))}
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// wrap is the span middleware mounted around a handler in traced runs.
// Requests without a request ID (health checks, scrapes) are not recorded.
func (tr *tracer) wrap(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		tr.record(r.Header.Get(requestIDHeader), name, start, time.Now())
	})
}

// spanStats is the per-layer breakdown the spans give, as means over the
// requests that have all three spans.
type spanStats struct {
	requests  int
	clientMs  float64 // client span
	routerMs  float64 // router span
	replicaMs float64 // replica span = serve.handler_ms
	meshSelf  float64 // router span minus replica span
}

func (tr *tracer) stats() spanStats {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	byID := map[string]map[string]span{}
	for _, s := range tr.spans {
		m := byID[s.ID]
		if m == nil {
			m = map[string]span{}
			byID[s.ID] = m
		}
		m[s.Name] = s
	}
	var client, router, replica, self []float64
	for _, m := range byID {
		c, ok1 := m[spanClient]
		ro, ok2 := m[spanRouter]
		re, ok3 := m[spanReplica]
		if !ok1 || !ok2 || !ok3 {
			continue
		}
		client = append(client, ms(c.dur()))
		router = append(router, ms(ro.dur()))
		replica = append(replica, ms(re.dur()))
		self = append(self, ms(ro.dur()-re.dur()))
	}
	return spanStats{
		requests:  len(client),
		clientMs:  mean(client),
		routerMs:  mean(router),
		replicaMs: mean(replica),
		meshSelf:  mean(self),
	}
}

// writeSpans writes one JSON span per line.
func (tr *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	tr.mu.Lock()
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			tr.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	tr.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
