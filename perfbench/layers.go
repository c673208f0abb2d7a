package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"clustersoc/internal/dimemas"
	"clustersoc/internal/mpi"
	"clustersoc/internal/network"
	"clustersoc/internal/runner"
	"clustersoc/internal/sim"
	"clustersoc/internal/simd"
	"clustersoc/internal/trace"
)

// metricDef names one reported metric. The lists below are the ones
// BENCHMARK.json declares, in the same order (a test holds them equal).
// Moves, for a per-layer metric, names the end-to-end metric and workload
// a change to that layer should move; the traced run prints it beside
// the value.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Moves  string `json:"-"`
}

// endToEnd are the untraced metrics every workload reports. Each workload
// has one headline operation whose latency p50_ms and tail_ms summarize:
// a full regeneration (regen) or a warm response line (serve_warm).
// ops_per_s is the rate the workload can move: scenarios per worker-second
// of simulation (regen), or warm lines per second (serve_warm).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "p50_ms", Unit: "ms", Better: "lower"},
	{Name: "tail_ms", Unit: "ms", Better: "lower"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
}

// Where each layer should show end to end.
const (
	regenE2E   = "p50_ms on regen"
	warmE2E    = "p50_ms and ops_per_s on serve_warm"
	engineE2E  = "p50_ms and ops_per_s on regen; nothing on serve_warm"
	serverSide = "ops_per_s and p50_ms on serve_warm"
	countOnly  = "a count"
	loadProbe  = "the benchmark's own load generator"
)

// perLayer are the traced metrics, named by module. A workload that does
// not exercise a layer reports it as "not exercised" (0 in the JSON).
var perLayer = append(experimentLayers(), []metricDef{
	{"experiments.json_encode_ms", "ms", "lower", regenE2E},
	{"runner.simulated", "count", "lower", regenE2E},
	{"runner.hits", "count", "higher", regenE2E},
	{"runner.sim_wall_s", "s", "lower", regenE2E},
	{"runner.max_in_flight", "count", "higher", regenE2E},
	{"runner.memory_hit_us", "us", "lower", warmE2E},
	{"runner.store_hit_us", "us", "lower", warmE2E},
	{"runner.store_share", "%", "lower", "p50_ms on serve_warm; a bounded memory tier raises it"},
	{"store.get_us", "us", "lower", "tail_ms on serve_warm, where first touches read the store"},
	{"store.put_us", "us", "lower", "setup_s on serve_warm"},
	{"store.entry_bytes", "B", "lower", "store.get_us and store.put_us"},
	{"store.hits", "count", "higher", countOnly},
	{"store.misses", "count", "lower", countOnly},
	{"store.writes", "count", "lower", countOnly},
	{"store.corrupt", "count", "lower", countOnly},
	{"simd.resolve_us", "us", "lower", serverSide},
	{"simd.handler_ms", "ms", "lower", serverSide},
	{"simd.line_encode_us", "us", "lower", serverSide},
	{"simd.served_memory", "count", "higher", countOnly},
	{"simd.served_store", "count", "lower", countOnly},
	{"simd.simulated", "count", "lower", countOnly},
	{"simd.coalesced", "count", "higher", countOnly},
	{"simd.rejected", "count", "lower", countOnly},
	{"simd.pending_peak", "count", "lower", countOnly},
	{"cluster.scenario_ms", "ms", "lower", engineE2E},
	{"cluster.events_per_s", "1/s", "higher", engineE2E},
	{"cluster.allocs_per_event", "count", "lower", engineE2E},
	{"cluster.bytes_per_event", "B", "lower", engineE2E},
	{"sim.push_pop_ns", "ns", "lower", engineE2E},
	{"sim.wake_ns", "ns", "lower", engineE2E},
	{"sim.allocs_per_event", "count", "lower", engineE2E},
	{"mpi.sendrecv_ns", "ns", "lower", engineE2E},
	{"mpi.allreduce_us", "us", "lower", engineE2E},
	{"network.deliver_ns", "ns", "lower", engineE2E},
	{"dimemas.replay_ms", "ms", "lower", "experiments.fig5_s, experiments.fig6_s and p50_ms on regen only"},
	{"dimemas.replays", "count", "lower", "experiments.fig5_s, experiments.fig6_s and p50_ms on regen only"},
	{"loadgen.sent", "count", "higher", loadProbe},
	{"loadgen.conns", "count", "higher", loadProbe},
	{"trace.overhead_pct", "%", "lower", "traced against untraced runs of the same workload"},
}...)

func experimentLayers() []metricDef {
	var out []metricDef
	for _, g := range generators {
		out = append(out, metricDef{"experiments." + g.key + "_s", "s", "lower", regenE2E})
	}
	return out
}

// layerValues holds a traced run's per-layer metrics. A name absent from
// the map was not exercised by the workload.
type layerValues map[string]float64

// memDelta measures fn's heap allocations.
func memDelta(fn func()) (mallocs, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

func perOp(d time.Duration, n uint64, unit time.Duration) float64 {
	return float64(d) / float64(unit) / float64(n)
}

// simPhase times the engine alone: an event chain where each event
// schedules its successor (one calendar push and pop per event), and two
// processes sleeping in alternation, so every wake-up hands the baton to
// the other process's goroutine.
func simPhase(l layerValues) {
	const events, rounds = 400_000, 100_000
	var chain, wake time.Duration
	var chainEv, wakeEv uint64
	mallocs, _ := memDelta(func() {
		e := sim.NewEngine()
		n := 0
		var step func()
		step = func() {
			if n++; n < events {
				e.Schedule(1e-6, step)
			}
		}
		e.Schedule(1e-6, step)
		start := time.Now()
		e.Run()
		chain, chainEv = time.Since(start), e.Events()

		e = sim.NewEngine()
		start = time.Now()
		for k := 0; k < 2; k++ {
			offset := float64(k) * 0.5e-6
			e.Spawn(fmt.Sprintf("sleeper-%d", k), func(p *sim.Process) {
				p.Sleep(offset)
				for i := 0; i < rounds; i++ {
					p.Sleep(1e-6)
				}
			})
		}
		e.Run()
		wake, wakeEv = time.Since(start), e.Events()
	})
	l["sim.push_pop_ns"] = perOp(chain, chainEv, time.Nanosecond)
	l["sim.wake_ns"] = perOp(wake, wakeEv, time.Nanosecond)
	l["sim.allocs_per_event"] = float64(mallocs) / float64(chainEv+wakeEv)
}

// mpiPhase times a matched Send/Recv pair between two nodes and an
// 8-rank Allreduce, and networkPhase times one Network.Deliver booking.
func mpiPhase(l layerValues) {
	const pairs, rounds = 50_000, 1_000
	e := sim.NewEngine()
	c := mpi.NewComm(e, network.New(e, 2, network.TenGigE), []int{0, 1})
	e.Spawn("send", func(p *sim.Process) {
		for i := 0; i < pairs; i++ {
			c.Send(p, 0, 1, 0, 4096)
		}
	})
	e.Spawn("recv", func(p *sim.Process) {
		for i := 0; i < pairs; i++ {
			c.Recv(p, 1, 0, 0)
		}
	})
	start := time.Now()
	e.Run()
	l["mpi.sendrecv_ns"] = perOp(time.Since(start), pairs, time.Nanosecond)

	e = sim.NewEngine()
	ranks := []int{0, 1, 2, 3, 4, 5, 6, 7}
	c = mpi.NewComm(e, network.New(e, len(ranks), network.TenGigE), ranks)
	for r := range ranks {
		e.Spawn(fmt.Sprintf("rank-%d", r), func(p *sim.Process) {
			for i := 0; i < rounds; i++ {
				c.Allreduce(p, r, 8)
			}
		})
	}
	start = time.Now()
	e.Run()
	l["mpi.allreduce_us"] = perOp(time.Since(start), rounds, time.Microsecond)
}

func networkPhase(l layerValues) {
	const n = 1_000_000
	nw := network.New(sim.NewEngine(), 8, network.TenGigE)
	start := time.Now()
	for i := 0; i < n; i++ {
		nw.Deliver(i%8, (i+3)%8, 4096)
	}
	l["network.deliver_ns"] = perOp(time.Since(start), n, time.Nanosecond)
}

// enginePhases measures every layer below the run-plane: sim, mpi,
// network, and cluster over scs, a sample of the workload's own
// scenarios.
func enginePhases(t *tracer, parent uint64, l layerValues, scs []runner.Scenario) error {
	t.phase(parent, "phase.sim", func(uint64) { simPhase(l) })
	t.phase(parent, "phase.mpi", func(uint64) { mpiPhase(l) })
	t.phase(parent, "phase.network", func(uint64) { networkPhase(l) })
	var err error
	t.phase(parent, "phase.cluster", func(uint64) { err = clusterPhase(l, scs) })
	return err
}

// clusterPhase executes each scenario directly (no run-plane) and
// reports the median scenario time plus event rate and allocations per
// simulated event over the whole sample.
func clusterPhase(l layerValues, scs []runner.Scenario) error {
	var (
		walls          []float64
		wall           time.Duration
		events         uint64
		mallocs, bytes uint64
	)
	for _, sc := range scs {
		var (
			res runner.Result
			err error
			d   time.Duration
		)
		m, b := memDelta(func() {
			start := time.Now()
			res, err = runner.Execute(sc)
			d = time.Since(start)
		})
		if err != nil {
			return fmt.Errorf("cluster phase: %s: %w", sc.Fingerprint(), err)
		}
		walls = append(walls, d.Seconds()*1e3)
		wall += d
		events += res.Events
		mallocs += m
		bytes += b
	}
	l["cluster.scenario_ms"] = summarize(walls).P50
	l["cluster.events_per_s"] = float64(events) / wall.Seconds()
	l["cluster.allocs_per_event"] = float64(mallocs) / float64(events)
	l["cluster.bytes_per_event"] = float64(bytes) / float64(events)
	return nil
}

// dimemasPhase replays each trace the way the Fig. 5/6 generators do
// (ideal network, then ideal load balance on the 10 GbE model) and
// reports the median replay time and the number of replays.
func dimemasPhase(l layerValues, traces []*trace.Trace) {
	tenG := dimemas.NetworkModel{
		Name:           network.TenGigE.Name,
		Bandwidth:      network.TenGigE.Throughput,
		Latency:        network.TenGigE.Latency,
		IntraBandwidth: network.MemoryPathBandwidth,
		IntraLatency:   network.MemoryPathLatency,
	}
	var ms []float64
	for _, tr := range traces {
		for _, o := range []dimemas.Options{{Net: dimemas.IdealNetwork}, {Net: tenG, IdealLoadBalance: true}} {
			start := time.Now()
			dimemas.Replay(tr, o)
			ms = append(ms, time.Since(start).Seconds()*1e3)
		}
	}
	l["dimemas.replay_ms"] = summarize(ms).P50
	l["dimemas.replays"] = float64(len(ms))
}

// storePhase reads every entry under fps from the store at dir and
// writes the same payloads into a scratch store: the workload's own
// payloads through both halves of the store's API.
func storePhase(l layerValues, dir, scratch string, fps []string) error {
	st, err := runner.OpenStore(dir)
	if err != nil {
		return err
	}
	out, err := runner.OpenStore(scratch)
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	var gets, puts []float64
	total := 0
	for _, fp := range fps {
		start := time.Now()
		data, err := st.Get(fp)
		gets = append(gets, time.Since(start).Seconds()*1e6)
		if err != nil {
			return fmt.Errorf("store phase: %s: %w", fp, err)
		}
		total += len(data)
		start = time.Now()
		err = out.Put(fp, data)
		puts = append(puts, time.Since(start).Seconds()*1e6)
		if err != nil {
			return fmt.Errorf("store phase: %w", err)
		}
	}
	l["store.get_us"] = summarize(gets).P50
	l["store.put_us"] = summarize(puts).P50
	l["store.entry_bytes"] = float64(total) / float64(len(fps))
	return nil
}

// runnerHitPhase submits every scenario twice to a fresh Runner over the
// store at dir: the first submission decodes the store entry, the second
// is a memory hit. It reports the median time of each tier.
func runnerHitPhase(l layerValues, dir string, scs []runner.Scenario) error {
	st, err := runner.OpenStore(dir)
	if err != nil {
		return err
	}
	r := runner.New(1)
	r.SetStore(st)
	times := map[string][]float64{}
	for _, sc := range scs {
		for k := 0; k < 2; k++ {
			start := time.Now()
			_, out, err := r.RunTracked(sc)
			us := time.Since(start).Seconds() * 1e6
			if err != nil {
				return fmt.Errorf("runner phase: %w", err)
			}
			times[out.Source] = append(times[out.Source], us)
		}
	}
	if n := len(times[runner.SourceSimulated]); n > 0 {
		return fmt.Errorf("runner phase: %d stored scenarios were simulated again", n)
	}
	l["runner.store_hit_us"] = summarize(times[runner.SourceStore]).P50
	l["runner.memory_hit_us"] = summarize(times[runner.SourceMemory]).P50
	return nil
}

// simdPhase times Request.Resolve over the deck and the encoding of one
// NDJSON response line over the matching stored results.
func simdPhase(l layerValues, reqs []simd.Request, results [][]byte) error {
	var resolve, encode []float64
	enc := json.NewEncoder(io.Discard)
	for i, q := range reqs {
		start := time.Now()
		sc, err := q.Resolve()
		resolve = append(resolve, time.Since(start).Seconds()*1e6)
		if err != nil {
			return fmt.Errorf("simd phase: %w", err)
		}
		var res runner.Result
		if err := json.Unmarshal(results[i], &res); err != nil {
			return fmt.Errorf("simd phase: %w", err)
		}
		resp := simd.Response{Index: i, Fingerprint: sc.Fingerprint(), Source: runner.SourceMemory, Result: &res}
		start = time.Now()
		err = enc.Encode(resp)
		encode = append(encode, time.Since(start).Seconds()*1e6)
		if err != nil {
			return fmt.Errorf("simd phase: %w", err)
		}
	}
	l["simd.resolve_us"] = summarize(resolve).P50
	l["simd.line_encode_us"] = summarize(encode).P50
	return nil
}
