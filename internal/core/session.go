package core

import (
	"fmt"
	"strconv"
	"strings"

	"clustersoc/internal/cluster"
	"clustersoc/internal/dimemas"
	"clustersoc/internal/runner"
	"clustersoc/internal/stats"
	"clustersoc/internal/workloads"
)

// Session is the library face of the run-plane: a memoizing, optionally
// parallel scenario executor shared across an analysis session. Repeated
// Run calls with identical (system, workload, config) tuples simulate
// once; independent runs execute concurrently up to the session's worker
// bound. The package-level Run/Scalability helpers remain as sequential
// conveniences.
type Session struct {
	r *runner.Runner
}

// NewSession returns a session executing at most parallel simulations
// concurrently (<= 0 means GOMAXPROCS, 1 is fully sequential).
func NewSession(parallel int) *Session {
	return &Session{r: runner.New(parallel)}
}

// Runner exposes the underlying run-plane: its observer Mode, persistent
// store, accounting, and collected profiles and critical-path reports.
func (s *Session) Runner() *runner.Runner { return s.r }

// NewScenario validates and normalizes a run request into the canonical
// runner.Scenario exactly the way Session.Run does: the workload must be
// registered, GPU workloads require a GPU and get the NFS file server
// attached (as the experiment generators do), RanksPerNode 0 is derived
// from the workload (clamped by the node's core count) while an explicit
// value is kept, and the result must pass runner.Scenario.Validate.
// Front ends that accept serialized requests (cmd/simd) resolve through
// this so their fingerprints land on the same cache entries the library
// face warms.
func NewScenario(cfg cluster.Config, workload string, wcfg workloads.Config) (runner.Scenario, error) {
	return scenario(cfg, workload, wcfg)
}

// scenario validates and normalizes a run request the way core.Run does.
func scenario(cfg cluster.Config, workload string, wcfg workloads.Config) (runner.Scenario, error) {
	w, err := workloads.ByName(workload)
	if err != nil {
		return runner.Scenario{}, err
	}
	if w.GPUAccelerated() && cfg.NodeType.GPU == nil {
		return runner.Scenario{}, fmt.Errorf("core: workload %s needs a GPU; %s has none", workload, cfg.Name)
	}
	if w.GPUAccelerated() {
		cfg.FileServer = true
	}
	if cfg.RanksPerNode == 0 {
		cfg.RanksPerNode = min(w.RanksPerNode(), cfg.NodeType.CPU.Cores)
	}
	sc := runner.Scenario{Cluster: cfg, Workload: workload, Config: wcfg}
	if err := sc.Validate(); err != nil {
		return runner.Scenario{}, err
	}
	return sc, nil
}

// Run executes a workload by name on the system at the given problem
// scale, memoized by the session.
func (s *Session) Run(cfg cluster.Config, workload string, scale float64) (cluster.Result, error) {
	return s.RunWithConfig(cfg, workload, workloads.Config{Scale: scale})
}

// RunWithConfig is Run with a full workload configuration.
func (s *Session) RunWithConfig(cfg cluster.Config, workload string, wcfg workloads.Config) (cluster.Result, error) {
	sc, err := scenario(cfg, workload, wcfg)
	if err != nil {
		return cluster.Result{}, err
	}
	res, err := s.r.Run(sc)
	return res.Result, err
}

// scalabilityScenario builds the traced scenario Scalability simulates
// at one cluster size, so callers wanting the raw run-plane Result (the
// Trace for exporters, the CritPath report) hit the same cache entries.
// The point is normalized like any run and labeled with its own size (a
// name that starts with cfg's node count, as every preset's does, gets
// the point's count instead), so it shares the entries of the Fig. 5/6
// generators' traced runs.
func scalabilityScenario(cfg cluster.Config, workload string, nodes int, scale float64) (runner.Scenario, error) {
	if rest, ok := strings.CutPrefix(cfg.Name, strconv.Itoa(cfg.Nodes)); ok {
		cfg.Name = strconv.Itoa(nodes) + rest
	}
	cfg.Nodes = nodes
	cfg.Traced = true
	return scenario(cfg, workload, workloads.Config{Scale: scale})
}

// ScalabilityPoint runs (or joins from the session cache) the traced
// scenario Scalability simulates at one cluster size and returns the
// full run-plane Result: the Trace for the exporters, and the CritPath
// report when recording is enabled. After a Scalability call covering
// the same size it is a guaranteed cache hit.
func (s *Session) ScalabilityPoint(cfg cluster.Config, workload string, nodes int, scale float64) (runner.Result, error) {
	sc, err := scalabilityScenario(cfg, workload, nodes, scale)
	if err != nil {
		return runner.Result{}, err
	}
	return s.r.Run(sc)
}

// Scalability traces a workload across cluster sizes on the system type
// of cfg (the node/network choice; Nodes is overridden per point) and
// runs the replay decomposition. The per-size runs are independent, so
// they execute concurrently under a parallel session.
func (s *Session) Scalability(cfg cluster.Config, workload string, sizes []int, scale float64) (*ScalabilityResult, error) {
	var scenarios []runner.Scenario
	for _, n := range sizes {
		sc, err := scalabilityScenario(cfg, workload, n, scale)
		if err != nil {
			return nil, err
		}
		scenarios = append(scenarios, sc)
	}
	results, err := s.r.RunAll(scenarios)
	if err != nil {
		return nil, err
	}
	out := &ScalabilityResult{Workload: workload, Nodes: sizes}
	for i, n := range sizes {
		res := results[i]
		out.Runtimes = append(out.Runtimes, res.Runtime)
		if n == sizes[len(sizes)-1] {
			wi := dimemas.Study(res.Trace, cfg.Network)
			out.Efficiency = wi.Eff
			if wi.Eff.TIdeal > 0 {
				out.IdealNetworkGain = res.Runtime / wi.Eff.TIdeal
			}
			if wi.IdealLB > 0 {
				out.IdealLoadBalanceGain = res.Runtime / wi.IdealLB
			}
		}
	}
	for _, rt := range out.Runtimes {
		out.Speedups = append(out.Speedups, out.Runtimes[0]/rt)
	}
	if len(sizes) >= 3 {
		out.Fit, _ = stats.FitScaling(sizes, out.Runtimes)
	}
	return out, nil
}
