// Package simd is simulation-as-a-service: an HTTP/JSON front end over
// the memoized run-plane. Clients POST batches of serializable scenario
// requests (registry workloads on named system presets or fully
// specified cluster configs); the server resolves each request to the
// run-plane's canonical fingerprint and serves it through the two cache
// tiers — the in-memory fingerprint map, then the persistent
// content-addressed store, then simulation. Results are deterministic,
// so every scenario anyone has ever simulated against a shared store is
// a pure-decode answer for every later client.
//
// The serving properties the server layers on top of the run-plane:
//
//   - Cross-client coalescing. Duplicate in-flight requests for one
//     fingerprint — from any number of connections — join the same
//     execution via the run-plane's singleflight; a batch of N clients
//     asking the same cold question costs one simulation.
//
//   - Admission control. A bounded pending queue: batches that would
//     push the server past its bound are refused with 429 and a
//     Retry-After hint instead of queueing unboundedly.
//
//   - Per-client rate limits. A token bucket per client identity
//     (X-Client header, else the remote host) bounds sustained request
//     rate independently of queue pressure.
//
//   - Streaming. Results return as NDJSON, one line per scenario as it
//     completes, so a mixed warm/cold batch streams its cache hits
//     immediately instead of waiting on the slowest simulation.
//
//   - Graceful drain. On shutdown the server stops admitting new work
//     and lets in-flight batches stream to completion.
package simd

import (
	"fmt"

	"clustersoc/internal/cluster"
	"clustersoc/internal/core"
	"clustersoc/internal/experiments"
	"clustersoc/internal/faults"
	"clustersoc/internal/network"
	"clustersoc/internal/runner"
	"clustersoc/internal/workloads"
)

// Request is one serializable scenario ask. The zero knobs mean the
// paper's defaults (8-node TX1 cluster, 10 GbE, full problem scale), so
// {"workload":"cg"} is a complete request.
type Request struct {
	// ID is an opaque client correlation tag echoed on the response line.
	ID string `json:"id,omitempty"`
	// Workload names a registry workload (hpl, jacobi, cloverleaf,
	// tealeaf2d/3d, alexnet, googlenet, and the NPB suite).
	Workload string `json:"workload"`
	// System picks a named preset: "tx1" (default), "cavium" (the
	// ThunderX server; Nodes is the MPI process count there), or
	// "gtx980" (the discrete-GPU baseline). Ignored when Cluster is set.
	System string `json:"system,omitempty"`
	// Nodes is the cluster size (default 8); for "cavium" it is the MPI
	// rank count (default 32, the Table VI configuration).
	Nodes int `json:"nodes,omitempty"`
	// Network picks the NIC for "tx1": "10GbE" (default), "1GbE", or
	// "ideal".
	Network string `json:"network,omitempty"`
	// Scale, GPUWorkRatio, HalfPrecision, and WeakScaling are the
	// workload knobs (see workloads.Config); zero values mean defaults.
	Scale         float64 `json:"scale,omitempty"`
	GPUWorkRatio  float64 `json:"gpu_work_ratio,omitempty"`
	HalfPrecision bool    `json:"half_precision,omitempty"`
	WeakScaling   bool    `json:"weak_scaling,omitempty"`
	// Traced enables Extrae-style trace recording (a distinct
	// fingerprint: traced and untraced runs never collide).
	Traced bool `json:"traced,omitempty"`
	// Faults attaches a seeded fault plan; it participates in the
	// fingerprint, so faulted variants are distinct cache entries.
	Faults *faults.Plan `json:"faults,omitempty"`
	// Cluster, when set, bypasses the presets and simulates the workload
	// on this fully specified system (normalized by core.NewScenario, so
	// fingerprints match the library face). An explicit RanksPerNode is
	// kept; 0 takes the workload's rank density, clamped to the node's
	// cores. GPU workloads get the file server attached.
	Cluster *cluster.Config `json:"cluster,omitempty"`
}

// config assembles the workload knobs.
func (q Request) config() workloads.Config {
	return workloads.Config{
		Scale:         q.Scale,
		GPUWorkRatio:  q.GPUWorkRatio,
		HalfPrecision: q.HalfPrecision,
		WeakScaling:   q.WeakScaling,
	}
}

// netProfile resolves the NIC name.
func netProfile(name string) (network.Profile, error) {
	switch name {
	case "", "10GbE":
		return network.TenGigE, nil
	case "1GbE":
		return network.GigE, nil
	case "ideal":
		return network.Ideal, nil
	}
	return network.Profile{}, fmt.Errorf("simd: unknown network %q (want 1GbE, 10GbE, or ideal)", name)
}

// Resolve turns the request into the run-plane's canonical Scenario.
// Preset requests resolve through the same constructors the experiment
// generators use, so a store warmed by cmd/experiments serves them as
// pure decodes; custom-cluster requests normalize through
// core.NewScenario, matching the library face.
func (q Request) Resolve() (runner.Scenario, error) {
	if q.Workload == "" {
		return runner.Scenario{}, fmt.Errorf("simd: request missing workload")
	}
	if q.Nodes < 0 {
		return runner.Scenario{}, fmt.Errorf("simd: negative node count %d", q.Nodes)
	}
	var sc runner.Scenario
	switch {
	case q.Cluster != nil:
		var err error
		sc, err = core.NewScenario(*q.Cluster, q.Workload, q.config())
		if err != nil {
			return runner.Scenario{}, err
		}
	case q.System == "" || q.System == "tx1":
		prof, err := netProfile(q.Network)
		if err != nil {
			return runner.Scenario{}, err
		}
		nodes := q.Nodes
		if nodes == 0 {
			nodes = 8
		}
		sc, err = experiments.StandardScenario(q.Workload, nodes, prof, q.Scale)
		if err != nil {
			return runner.Scenario{}, err
		}
		sc.Config = q.config()
	case q.System == "cavium":
		w, err := workloads.ByName(q.Workload)
		if err != nil {
			return runner.Scenario{}, err
		}
		if w.GPUAccelerated() {
			return runner.Scenario{}, fmt.Errorf("simd: workload %s needs a GPU; the Cavium server has none", q.Workload)
		}
		ranks := q.Nodes
		if ranks == 0 {
			ranks = 32 // the Table VI configuration
		}
		sc = runner.Scenario{Cluster: cluster.CaviumServer(ranks), Workload: q.Workload, Config: q.config()}
	case q.System == "gtx980":
		if _, err := workloads.ByName(q.Workload); err != nil {
			return runner.Scenario{}, err
		}
		nodes := q.Nodes
		if nodes == 0 {
			nodes = 2 // the Fig. 9 baseline
		}
		// Mirrors the Fig. 9 generator: file server attached, one rank
		// per Xeon host — same fingerprints as the discrete study.
		cfg := cluster.GTX980Cluster(nodes)
		cfg.FileServer = true
		sc = runner.Scenario{Cluster: cfg, Workload: q.Workload, Config: q.config()}
	default:
		return runner.Scenario{}, fmt.Errorf("simd: unknown system %q (want tx1, cavium, or gtx980)", q.System)
	}
	if q.Traced {
		sc.Cluster.Traced = true
	}
	if q.Faults != nil {
		sc.Cluster.Faults = q.Faults
	}
	if err := sc.Validate(); err != nil {
		return runner.Scenario{}, err
	}
	return sc, nil
}

// Batch is the request body of POST /simulate.
type Batch struct {
	Requests []Request `json:"requests"`
}

// Response is one NDJSON line of the result stream: the request's echo
// tags, the canonical fingerprint it resolved to, how it was served, and
// the full run-plane Result (or the scenario's error). Lines stream in
// completion order; Index ties each back to its request.
type Response struct {
	ID          string `json:"id,omitempty"`
	Index       int    `json:"index"`
	Fingerprint string `json:"fingerprint"`
	// Source is which tier served this submission: "memory", "store", or
	// "simulated". Coalesced marks a join on another request's run.
	Source    string `json:"source,omitempty"`
	Coalesced bool   `json:"coalesced,omitempty"`
	// Result is byte-identical to marshalling the run-plane's Result
	// directly — the serving layer adds nothing and strips nothing.
	Result *runner.Result `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`
}
