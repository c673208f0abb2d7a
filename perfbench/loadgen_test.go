package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"clustersoc/internal/simd"
)

// Refused batches fail every request in them; error lines and missing
// lines fail one each; successful lines reach onLine. A request counts as
// answered once, by the first line naming its index, so a server that
// repeats one index and drops another, or names an index outside the
// batch, fails the requests it left unanswered.
func TestPostCountsFailures(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Header.Get("X-Client") {
		case "429":
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
		case "413":
			w.WriteHeader(http.StatusRequestEntityTooLarge)
		case "503":
			w.WriteHeader(http.StatusServiceUnavailable)
		case "lines":
			fmt.Fprintln(w, `{"index":0,"fingerprint":"a","source":"memory","result":{}}`)
			fmt.Fprintln(w, `{"index":1,"fingerprint":"b","error":"boom"}`)
			fmt.Fprintln(w, `{"index":2,"fingerprint":"c","source":"store","result":{}}`)
		case "short":
			fmt.Fprintln(w, `{"index":0,"fingerprint":"a","source":"memory","result":{}}`)
		case "repeat":
			fmt.Fprintln(w, `{"index":0,"fingerprint":"a","source":"memory","result":{}}`)
			fmt.Fprintln(w, `{"index":0,"fingerprint":"a","source":"memory","result":{}}`)
			fmt.Fprintln(w, `{"index":1,"fingerprint":"b","source":"memory","result":{}}`)
			fmt.Fprintln(w, `{"index":1,"fingerprint":"b","source":"memory","result":{}}`)
		case "range":
			fmt.Fprintln(w, `{"index":0,"fingerprint":"a","source":"memory","result":{}}`)
			fmt.Fprintln(w, `{"index":4,"fingerprint":"e","source":"memory","result":{}}`)
			fmt.Fprintln(w, `{"index":-1,"fingerprint":"z","source":"memory","result":{}}`)
		}
	}))
	defer ts.Close()
	batch := make([]simd.Request, 4)
	cases := []struct {
		name         string
		failed, good int
	}{
		{"429", 4, 0},
		{"413", 4, 0},
		{"503", 4, 0},
		{"lines", 2, 2}, // one error line, one line never sent
		{"short", 3, 1},
		{"repeat", 2, 2}, // two indices answered twice, two never
		{"range", 3, 1},  // indices 4 and -1 answer nothing in a batch of 4
	}
	for _, c := range cases {
		cl := newClient(ts.URL, c.name, nil, 0)
		good := 0
		failed := cl.post(batch, func(*line, time.Time) { good++ })
		cl.close()
		if failed != c.failed || good != c.good {
			t.Errorf("%s: %d failed, %d good; want %d and %d", c.name, failed, good, c.failed, c.good)
		}
	}

	ts.Close()
	cl := newClient(ts.URL, "gone", nil, 0)
	if failed := cl.post(batch, func(*line, time.Time) { t.Error("line from a closed server") }); failed != len(batch) {
		t.Errorf("transport error failed %d requests, want %d", failed, len(batch))
	}
}

// The closed loop reports every request it sent as attempted and every
// refused one as failed, which is what fail_frac divides.
func TestClosedLoopFailFrac(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	deck := make([]simd.Request, 5)
	attempted, failed := closedLoop(ts.URL, 2, 3, deck, time.Now().Add(50*time.Millisecond), nil, 0,
		func(int, *line, time.Duration, time.Time) { t.Error("line from a refusing server") })
	if attempted == 0 || failed != attempted || attempted%3 != 0 {
		t.Errorf("attempted %d, failed %d; want every 3-request batch failed", attempted, failed)
	}
}

// A warm line is held to the request it answers: naming another deck
// entry's fingerprint, even with that entry's true bytes, fails.
func TestCheckWarmHoldsLineToItsRequest(t *testing.T) {
	env := &serveEnv{ref: map[string][]byte{"a": []byte(`{"x":1}`), "b": []byte(`{"x":2}`)}}
	if !env.checkWarm("a", &line{Fingerprint: "a", Result: []byte(`{"x":1}`)}) {
		t.Error("the right answer failed")
	}
	if env.checkWarm("a", &line{Fingerprint: "b", Result: []byte(`{"x":2}`)}) {
		t.Error("another request's answer passed")
	}
	if env.checkWarm("a", &line{Fingerprint: "a", Result: []byte(`{"x":2}`)}) {
		t.Error("wrong bytes under the right fingerprint passed")
	}
}
