package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"clustersoc/internal/runner"
	"clustersoc/internal/simd"
	"clustersoc/internal/store"
)

const (
	// warmBatch is the closed loop's requests per POST.
	warmBatch = 16
	// warmWindows is how many equal windows a serve_warm run is cut
	// into; each holds tens of thousands of lines.
	warmWindows = 8
)

// serveEnv is a serve workload's set-up: the seeded deck, the reference
// bytes of every warm fingerprint, and a store holding all of them.
type serveEnv struct {
	deck  []simd.Request
	scs   []runner.Scenario // deck, resolved
	fps   []string          // their fingerprints
	ref   map[string][]byte // fingerprint → marshalled runner.Execute result
	store string            // store directory
}

// setupServe resolves the deck and takes the reference bytes of every
// warm fingerprint from a direct runner.Execute, then builds the store
// setupReps times, keeping the last, and reports the median build time as
// setup_s.
func (b *bench) setupServe() (*serveEnv, error) {
	env := &serveEnv{deck: newDeck(b.seed), ref: map[string][]byte{}}
	for _, q := range env.deck {
		sc, err := q.Resolve()
		if err != nil {
			return nil, err
		}
		env.scs = append(env.scs, sc)
		env.fps = append(env.fps, sc.Fingerprint())
	}
	refs, err := executeAll(env.scs, b.nproc)
	if err != nil {
		return nil, err
	}
	for i, fp := range env.fps {
		env.ref[fp] = refs[i]
	}
	var times []float64
	for i := 0; i < setupReps; i++ {
		if env.store != "" {
			os.RemoveAll(env.store)
		}
		start := time.Now()
		if err := b.buildStore(env); err != nil {
			return nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	b.e2e["setup_s"] = summarize(times).P50
	return env, nil
}

// buildStore resolves the deck again, as a server would, and warms a
// fresh store with it through a run-plane.
func (b *bench) buildStore(env *serveEnv) error {
	scs := make([]runner.Scenario, len(env.deck))
	for i, q := range env.deck {
		sc, err := q.Resolve()
		if err != nil {
			return err
		}
		scs[i] = sc
	}
	var err error
	if env.store, err = os.MkdirTemp(b.scratch, "store-"); err != nil {
		return err
	}
	st, err := runner.OpenStore(env.store)
	if err != nil {
		return err
	}
	r := runner.New(b.nproc)
	r.SetStore(st)
	if _, err := r.RunAll(scs); err != nil {
		return fmt.Errorf("warming the store: %w", err)
	}
	if w := r.Stats().StoreWrites; w != len(scs) {
		return fmt.Errorf("warming the store wrote %d entries for %d fingerprints", w, len(scs))
	}
	return nil
}

// executeAll runs every scenario through runner.Execute, workers at a
// time, and returns the marshalled results in order.
func executeAll(scs []runner.Scenario, workers int) ([][]byte, error) {
	out := make([][]byte, len(scs))
	errs := make([]error, len(scs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				res, err := runner.Execute(scs[i])
				if err == nil {
					out[i], err = json.Marshal(res)
				}
				errs[i] = err
			}
		}()
	}
	for i := range scs {
		next <- i
	}
	close(next)
	wg.Wait()
	return out, errors.Join(errs...)
}

// server is a simd.Server on a loopback listener, over a fresh run-plane
// and a fresh handle on the store at dir.
type server struct {
	st   *store.Store
	r    *runner.Runner
	hs   *http.Server
	base string
	done chan error
}

func (b *bench) startServer(dir string, t *tracer) (*server, error) {
	st, err := runner.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	r := runner.New(b.nproc)
	r.SetStore(st)
	sim, err := simd.NewServer(simd.Config{Runner: r})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{st: st, r: r, hs: &http.Server{Handler: t.middleware(sim.Handler())},
		base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop reads /statusz, then shuts the server down and waits for it.
func (s *server) stop() (simd.Status, error) {
	var st simd.Status
	resp, err := http.Get(s.base + "/statusz")
	if err == nil {
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if serr := s.hs.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return st, err
}

// segment is one measured stretch of serving against one server.
type segment struct {
	warm     *series // line latencies, ms, by arrival time
	sent     int
	elapsed  time.Duration
	status   simd.Status
	stats    runner.Stats
	counters store.Counters
}

// finish records the segment's run-plane and store counters and its
// /statusz, and stops the server.
func (b *bench) finish(seg *segment, srv *server) error {
	seg.stats = srv.r.Stats()
	seg.counters = srv.st.Counters()
	st, err := srv.stop()
	if err != nil {
		return fmt.Errorf("stopping the server: %w", err)
	}
	seg.status = st
	return nil
}

// checkWarm holds a served line to the request it answers, whose
// fingerprint is fp: the line must name fp and carry fp's reference
// bytes.
func (env *serveEnv) checkWarm(fp string, l *line) bool {
	return l.Fingerprint == fp && bytes.Equal(l.Result, env.ref[fp])
}

// warmSegment runs serve_warm's closed loop for d.
func (b *bench) warmSegment(env *serveEnv, d time.Duration, t *tracer, parent uint64) (*segment, error) {
	srv, err := b.startServer(env.store, t)
	if err != nil {
		return nil, err
	}
	seg := &segment{warm: newSeries(d, warmWindows)}
	var mu sync.Mutex
	mismatched := 0
	start := time.Now()
	attempted, failed := closedLoop(srv.base, b.nproc, warmBatch, env.deck, start.Add(d), t, parent,
		func(req int, l *line, lat time.Duration, at time.Time) {
			ok := env.checkWarm(env.fps[req], l)
			mu.Lock()
			defer mu.Unlock()
			seg.warm.add(at.Sub(start), lat.Seconds()*1e3)
			if !ok {
				mismatched++
			}
		})
	seg.elapsed = time.Since(start)
	seg.sent = attempted
	b.attempted += attempted
	b.failed += failed
	if err := b.finish(seg, srv); err != nil {
		return nil, err
	}
	if mismatched > 0 {
		b.problem("%d warm lines differ from their direct runner.Execute bytes", mismatched)
	}
	if n := seg.status.Metrics.Value("simd.simulated"); n != 0 {
		b.problem("serve_warm simulated %g scenarios; every fingerprint was stored", n)
	}
	return seg, nil
}

func runServeWarm(b *bench) error {
	env, err := b.setupServe()
	if err != nil {
		return err
	}
	if b.tr == nil {
		seg, err := b.warmSegment(env, b.seconds, nil, 0)
		if err != nil {
			return err
		}
		w := seg.warm
		b.e2e["p50_ms"], b.e2e["tail_ms"], b.e2e["ops_per_s"] = w.p50(), w.tail(), w.rate()
		fmt.Fprintf(b.out, "serve_warm: %d fingerprints, %d clients x %d-request batches\n", len(env.scs), b.nproc, warmBatch)
		fmt.Fprintf(b.out, "serve_warm: warm lines over the whole run: %s ms, %.1f lines/s\n",
			w.all.dist(), float64(w.all.n)/seg.elapsed.Seconds())
		fmt.Fprintf(b.out, "serve_warm: medians over %d windows: p50 %.4g ms, %s %.4g ms, %.1f lines/s\n",
			len(w.windows()), w.p50(), w.tailName(), w.tail(), w.rate())
		return nil
	}
	// Traced: an untraced half, then a traced half, each on a fresh
	// server; the throughput gap is the tracing overhead.
	plain, err := b.warmSegment(env, b.seconds/2, nil, 0)
	if err != nil {
		return err
	}
	var seg *segment
	b.tr.phase(0, "serve", func(root uint64) { seg, err = b.warmSegment(env, b.seconds/2, b.tr, root) })
	if err != nil {
		return err
	}
	b.layers["trace.overhead_pct"] = 100 * (plain.warm.rate()/seg.warm.rate() - 1)
	if err := b.serveLayers(env, seg); err != nil {
		return err
	}
	return b.storeAndSimdPhases(env, env.fps)
}

// serveLayers fills the per-layer metrics a traced serve segment yields:
// run-plane, store and server counters, and the server-side batch time.
func (b *bench) serveLayers(env *serveEnv, seg *segment) error {
	l := b.layers
	st := seg.stats
	l["runner.simulated"] = float64(st.Simulated)
	l["runner.hits"] = float64(st.Hits)
	l["runner.sim_wall_s"] = st.WallSeconds
	l["runner.max_in_flight"] = float64(st.MaxInFlight)
	l["runner.store_share"] = 100 * float64(st.StoreHits) / float64(st.Submitted)
	l["store.hits"] = float64(seg.counters.Hits)
	l["store.misses"] = float64(seg.counters.Misses)
	l["store.writes"] = float64(seg.counters.Writes)
	l["store.corrupt"] = float64(seg.counters.Corrupt)
	m := seg.status.Metrics
	l["simd.served_memory"] = m.Value("simd.served_memory")
	l["simd.served_store"] = m.Value("simd.served_store")
	l["simd.simulated"] = m.Value("simd.simulated")
	l["simd.coalesced"] = m.Value("simd.coalesced")
	l["simd.rejected"] = m.Value("simd.rejected_queue") + m.Value("simd.rejected_rate") + m.Value("simd.rejected_batch")
	l["simd.pending_peak"] = m.Value("simd.pending_peak")
	l["simd.handler_ms"] = summarize(b.tr.durations("simd.handler")).P50
	l["loadgen.sent"] = float64(seg.sent)
	l["loadgen.conns"] = float64(b.nproc)
	var err error
	b.tr.phase(0, "phase.runner", func(uint64) { err = runnerHitPhase(l, env.store, env.scs) })
	return err
}

// storeAndSimdPhases times the store on the entries under fps and the
// simd request and line codecs on the warm deck.
func (b *bench) storeAndSimdPhases(env *serveEnv, fps []string) error {
	var err error
	scratch := filepath.Join(b.scratch, "store-scratch")
	b.tr.phase(0, "phase.store", func(uint64) { err = storePhase(b.layers, env.store, scratch, fps) })
	if err != nil {
		return err
	}
	var results [][]byte
	for _, fp := range env.fps {
		results = append(results, env.ref[fp])
	}
	b.tr.phase(0, "phase.simd", func(uint64) { err = simdPhase(b.layers, env.deck, results) })
	return err
}
