package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"clustersoc/internal/experiments"
	"clustersoc/internal/network"
	"clustersoc/internal/runner"
	"clustersoc/internal/trace"
	"clustersoc/internal/workloads"
)

const (
	// regenScale is the measured regeneration's problem scale. At the CLI
	// default of 0.08 fixed costs dominate and run-to-run noise is large;
	// at 0.25 simulation outweighs them.
	regenScale = 0.25
	// regenArtifactsSHA256 is the SHA-256 of experiments.WriteArtifactsJSON
	// over a regeneration at regenScale. Any change to a simulated result
	// changes it. It equals sha256sum of "experiments -scale 0.25 -json".
	regenArtifactsSHA256 = "a606fc3842e5e8a93728c763d2ebabb3e7f76654bcc2e29fa3d78783ff304bf8"
)

// generators are the experiments generators in cmd/experiments order.
// key names the span and the per-layer metric; artifact is the
// generator's key in the artifact JSON.
var generators = []struct {
	key, artifact string
	run           func(experiments.Options) any
}{
	{"fig1", "fig1_fig2", func(o experiments.Options) any { return experiments.Fig1(o) }},
	{"fig3", "fig3", func(o experiments.Options) any { return experiments.Fig3(o) }},
	{"tab2", "table2_fig4", func(o experiments.Options) any { return experiments.Table2(o) }},
	{"fig5", "fig5", func(o experiments.Options) any { return experiments.Fig5(o) }},
	{"fig6", "fig6", func(o experiments.Options) any { return experiments.Fig6(o) }},
	{"tab3", "table3", func(o experiments.Options) any { return experiments.Table3(o) }},
	{"fig7", "fig7", func(o experiments.Options) any { return experiments.Fig7(o) }},
	{"tab4", "table4", func(o experiments.Options) any { return experiments.Table4(o) }},
	{"tab6", "table6_fig8", func(o experiments.Options) any { return experiments.Table6(o) }},
	{"fig9", "fig9", func(o experiments.Options) any { return experiments.Fig9(o) }},
	{"fig10", "fig10", func(o experiments.Options) any { return experiments.Fig10(o) }},
	{"related", "related", func(o experiments.Options) any { return experiments.RelatedWorkCompare(o) }},
	{"weak", "weak", func(o experiments.Options) any { return experiments.WeakScaling(o) }},
}

// regenRun is one full regeneration.
type regenRun struct {
	opts  experiments.Options
	wall  time.Duration
	stats runner.Stats
	sum   string // hex SHA-256 of the artifact JSON
	err   error  // a generator failed
}

// regenerate runs every generator once, in order, on a fresh run-plane
// with workers workers and no store, then encodes the artifact JSON.
// Under a tracer each generator and the encoding get a span below parent,
// with the run-plane's Stats delta over each generator printed beside it.
func (b *bench) regenerate(scale float64, t *tracer, parent uint64) (rr regenRun) {
	rr.opts = experiments.DefaultOptions()
	rr.opts.Scale = scale
	rr.opts.Runner = runner.New(b.nproc)
	start := time.Now()
	defer func() {
		rr.wall = time.Since(start)
		rr.stats = rr.opts.Runner.Stats()
		if p := recover(); p != nil {
			rr.err = fmt.Errorf("regeneration failed: %v", p)
		}
	}()
	artifacts := map[string]any{}
	for _, g := range generators {
		before := rr.opts.Runner.Stats()
		d := t.phase(parent, "experiments."+g.key, func(uint64) { artifacts[g.artifact] = g.run(rr.opts) })
		if t != nil {
			after := rr.opts.Runner.Stats()
			fmt.Fprintf(b.out, "generator %-8s %8.3f s  +%d simulated  +%d hits  %.3f s simulation wall\n",
				g.key, d.Seconds(), after.Simulated-before.Simulated, after.Hits-before.Hits,
				after.WallSeconds-before.WallSeconds)
		}
	}
	var buf bytes.Buffer
	var err error
	t.phase(parent, "experiments.json_encode", func(uint64) { err = experiments.WriteArtifactsJSON(&buf, artifacts) })
	if err != nil {
		panic(err)
	}
	h := sha256.Sum256(buf.Bytes())
	rr.sum = hex.EncodeToString(h[:])
	return rr
}

// tally counts a regeneration's submissions and checks its output.
func (b *bench) tally(rr regenRun, want string) {
	b.attempted += rr.stats.Submitted
	if rr.err != nil {
		b.failed++
		b.problem("%v", rr.err)
		return
	}
	if rr.sum != want {
		b.problem("artifact JSON sha256 %s, want %s", rr.sum, want)
	}
}

// runRegen is the regen workload: cold, full paper regenerations in
// process, on a fresh run-plane each time, for the run's duration.
func runRegen(b *bench) error {
	// Set-up: full regenerations before timing starts, so lazy runtime
	// set-up and heap growth are paid, and checked, first. The first one
	// is what a fresh "experiments -scale 0.25" process pays.
	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		rr := b.regenerate(regenScale, nil, 0)
		b.tally(rr, regenArtifactsSHA256)
		if rr.err != nil {
			return rr.err
		}
		setups = append(setups, rr.wall.Seconds())
	}
	b.e2e["setup_s"] = summarize(setups).P50
	fmt.Fprintf(b.out, "regen: set-up regenerations took %.3f s\n", setups)

	var walls, rates, traced []float64
	submitted := 0
	var last regenRun
	begin := time.Now()
	for len(walls) == 0 || time.Since(begin) < b.seconds {
		runtime.GC()
		rr := b.regenerate(regenScale, nil, 0)
		b.tally(rr, regenArtifactsSHA256)
		walls = append(walls, rr.wall.Seconds()*1e3)
		rates = append(rates, float64(rr.stats.Simulated)/rr.stats.WallSeconds)
		submitted += rr.stats.Submitted
		if b.tr != nil {
			runtime.GC()
			root := b.tr.newID()
			start := time.Now()
			last = b.regenerate(regenScale, b.tr, root)
			b.tr.record(root, 0, "regen", start, time.Now())
			b.tally(last, regenArtifactsSHA256)
			traced = append(traced, last.wall.Seconds()*1e3)
		}
	}
	d := summarize(walls)
	b.e2e["p50_ms"] = d.P50
	b.e2e["tail_ms"] = d.Tail
	b.e2e["ops_per_s"] = summarize(rates).P50
	fmt.Fprintf(b.out, "regen: full regeneration at scale %g, %d workers: %s ms; %d scenarios submitted per regeneration\n",
		regenScale, b.nproc, d, submitted/len(walls))
	fmt.Fprintf(b.out, "regen: simulation throughput %s scenarios per worker-second of simulation\n", summarize(rates))
	if b.tr == nil {
		return nil
	}
	return b.regenLayers(last, summarize(traced).P50, d.P50)
}

// regenLayers fills the per-layer metrics of a traced regen run from the
// last traced regeneration.
func (b *bench) regenLayers(last regenRun, tracedMS, untracedMS float64) error {
	l := b.layers
	for _, g := range generators {
		l["experiments."+g.key+"_s"] = summarize(b.tr.durations("experiments."+g.key)).P50 / 1e3
	}
	l["experiments.json_encode_ms"] = summarize(b.tr.durations("experiments.json_encode")).P50
	l["runner.simulated"] = float64(last.stats.Simulated)
	l["runner.hits"] = float64(last.stats.Hits)
	l["runner.sim_wall_s"] = last.stats.WallSeconds
	l["runner.max_in_flight"] = float64(last.stats.MaxInFlight)
	l["trace.overhead_pct"] = 100 * (tracedMS - untracedMS) / untracedMS

	// The traced Fig. 5/6 scenarios are still in the last regeneration's
	// memory tier: look them up (timing the memory hits) and replay their
	// traces as the generators do.
	var traces []*trace.Trace
	var hits []float64
	scaled := []string{"hpl", "jacobi", "cloverleaf", "tealeaf2d", "tealeaf3d"} // Fig. 5
	for _, w := range workloads.NPBWorkloads() {                                // Fig. 6
		scaled = append(scaled, w.Name())
	}
	for _, w := range scaled {
		for _, n := range append([]int{1}, last.opts.Sizes...) {
			sc, err := experiments.TracedScenario(last.opts, w, n, network.TenGigE)
			if err != nil {
				return err
			}
			start := time.Now()
			res, out, err := last.opts.Runner.RunTracked(sc)
			hits = append(hits, time.Since(start).Seconds()*1e6)
			if err != nil {
				return err
			}
			if out.Source != runner.SourceMemory {
				return fmt.Errorf("traced %s@%d was not in the memory tier (%s)", w, n, out.Source)
			}
			traces = append(traces, res.Trace)
		}
	}
	l["runner.memory_hit_us"] = summarize(hits).P50
	b.tr.phase(0, "phase.dimemas", func(uint64) { dimemasPhase(l, traces) })

	// The cluster sample is the Fig. 1 8-node 10 GbE column.
	var sample []runner.Scenario
	for _, w := range append(workloads.GPUWorkloads(), workloads.NPBWorkloads()...) {
		sc, err := experiments.StandardScenario(w.Name(), 8, network.TenGigE, regenScale)
		if err != nil {
			return err
		}
		sample = append(sample, sc)
	}
	return enginePhases(b.tr, 0, l, sample)
}
