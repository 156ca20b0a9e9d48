package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// The middleware links a request's spans by the client's request ID, so
// the router's self time is its span minus the replica span inside it.
func TestTracerSelfTimeFromNestedSpans(t *testing.T) {
	tr := newTracer()
	replica := tr.wrap(spanReplica, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(4 * time.Millisecond)
	}))
	router := tr.wrap(spanRouter, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
		replica.ServeHTTP(w, r)
	}))
	for _, id := range []string{"a", "b", ""} {
		req := httptest.NewRequest(http.MethodPost, "/v2/models/m/infer", nil)
		if id != "" {
			req.Header.Set(requestIDHeader, id)
		}
		start := time.Now()
		router.ServeHTTP(httptest.NewRecorder(), req)
		tr.record(id, spanClient, start, time.Now())
	}
	st := tr.stats()
	if st.requests != 2 {
		t.Fatalf("%d complete requests, want 2 (the one without an ID leaves no spans)", st.requests)
	}
	if st.replicaMs < 4 || st.meshSelf < 2 || st.meshSelf >= st.routerMs {
		t.Fatalf("replica %.2f ms, router %.2f ms, self %.2f ms", st.replicaMs, st.routerMs, st.meshSelf)
	}
	if st.clientMs < st.routerMs {
		t.Fatalf("client span %.2f ms shorter than the router span %.2f ms", st.clientMs, st.routerMs)
	}
}
