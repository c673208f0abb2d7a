package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"clustersoc/internal/simd"
)

// line is the part of a simd NDJSON response line the client checks.
// Result stays raw so it can be compared byte for byte.
type line struct {
	Index       int             `json:"index"`
	Fingerprint string          `json:"fingerprint"`
	Result      json.RawMessage `json:"result"`
	Error       string          `json:"error"`
}

// requestIDHeader carries a traced batch's span ID from the client span
// to the server middleware span.
const requestIDHeader = "X-Request-ID"

// client posts batches over one keep-alive connection of its own.
type client struct {
	hc   *http.Client
	buf  []byte // line buffer, reused across posts
	url  string
	name string
	tr   *tracer
	// parent is the span client spans hang under (0 for none).
	parent uint64
}

func newClient(base, name string, tr *tracer, parent uint64) *client {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: t}, buf: make([]byte, 1<<20),
		url: base + "/simulate", name: name, tr: tr, parent: parent}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one batch and calls onLine, from this goroutine, for each
// response line as it arrives. It returns how many of the batch's
// requests failed: all of them when the batch is refused (429, 413, 503
// or any other non-200 status) or lost to a transport error, one for each
// error line, and one for each request whose line never arrived. Only the
// first line naming an index in the batch answers that request; a line
// naming an index out of range, or one already answered, is dropped.
func (c *client) post(batch []simd.Request, onLine func(l *line, at time.Time)) (failed int) {
	body, err := json.Marshal(simd.Batch{Requests: batch})
	if err != nil {
		return len(batch)
	}
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return len(batch)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client", c.name)
	id := c.tr.newID()
	reqID := strconv.FormatUint(id, 10)
	if id != 0 {
		req.Header.Set(requestIDHeader, reqID)
	}
	start := time.Now()
	defer func() { c.tr.recordReq(id, c.parent, "loadgen.post", reqID, start, time.Now()) }()
	resp, err := c.hc.Do(req)
	if err != nil {
		return len(batch)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return len(batch)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(c.buf, 16<<20)
	answered := make([]bool, len(batch))
	got := 0
	for sc.Scan() {
		at := time.Now()
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			break
		}
		if l.Index < 0 || l.Index >= len(batch) || answered[l.Index] {
			continue
		}
		answered[l.Index] = true
		got++
		if l.Error != "" {
			failed++
			continue
		}
		onLine(&l, at)
	}
	return failed + len(batch) - got
}

// closedLoop runs conns clients until the deadline. Each posts a batch of
// size requests, waits for every line, and only then posts its next
// batch; client c walks the deck from offset c·size in strides of
// conns·size, so the clients never send the same batch. onLine gets each
// line with the deck position of the request it answers, the time from
// its batch's POST to its arrival, and the arrival time; it is called from
// the client goroutines and must be safe for concurrent use.
func closedLoop(base string, conns, size int, deck []simd.Request, until time.Time, tr *tracer, parent uint64,
	onLine func(req int, l *line, lat time.Duration, at time.Time)) (attempted, failed int) {
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(base, fmt.Sprintf("perfbench-%d", c), tr, parent)
			defer cl.close()
			batch := make([]simd.Request, size)
			sent, lost := 0, 0
			for i := c * size; time.Now().Before(until); i += conns * size {
				for j := range batch {
					batch[j] = deck[(i+j)%len(deck)]
				}
				posted := time.Now()
				lost += cl.post(batch, func(l *line, at time.Time) {
					onLine((i+l.Index)%len(deck), l, at.Sub(posted), at)
				})
				sent += size
			}
			mu.Lock()
			attempted += sent
			failed += lost
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return attempted, failed
}
