package cluster

import (
	"math"
	"testing"

	"clustersoc/internal/cuda"
	"clustersoc/internal/network"
	"clustersoc/internal/soc"
	"clustersoc/internal/units"
)

func TestTX1ClusterAssembly(t *testing.T) {
	cfg := TX1Cluster(4, network.TenGigE)
	cfg.RanksPerNode = 1
	cl := New(cfg)
	if len(cl.Nodes) != 4 || cl.Ranks() != 4 {
		t.Fatalf("nodes %d ranks %d", len(cl.Nodes), cl.Ranks())
	}
	for _, n := range cl.Nodes {
		if n.GPU == nil {
			t.Fatal("TX1 nodes must have a GPU")
		}
		if n.GPU.Config.DedicatedMemory {
			t.Fatal("the TX1 GPU shares DRAM")
		}
	}
}

func TestConfigValidate(t *testing.T) {
	ok := TX1Cluster(2, network.GigE)
	if err := ok.Validate(); err != nil {
		t.Fatalf("TX1 preset rejected: %v", err)
	}
	noNodes, noCores, noRanks := ok, ok, ok
	noNodes.Nodes = 0
	noCores.NodeType.CPU.Cores = 0
	noRanks.RanksPerNode = 0
	hugeNodes, hugeRanks, overflow := ok, CaviumServer(1<<30), ok
	hugeNodes.Nodes = 1 << 30
	overflow.Nodes, overflow.RanksPerNode = 1<<62, 1<<62
	for name, cfg := range map[string]Config{"nodes": noNodes, "cores": noCores, "ranks": noRanks, "zero": {},
		"huge nodes": hugeNodes, "huge ranks": hugeRanks, "overflowing product": overflow} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, cfg)
		}
	}
	atBound := CaviumServer(1)
	atBound.Nodes, atBound.RanksPerNode = 64, MaxRanks/64
	if err := atBound.Validate(); err != nil {
		t.Fatalf("a config with exactly MaxRanks ranks was rejected: %v", err)
	}
}

func TestComputeAccounting(t *testing.T) {
	cfg := TX1Cluster(1, network.GigE)
	cfg.RanksPerNode = 1
	cl := New(cfg)
	w := soc.CPUWork{Instr: 1e9, Flops: 2e8, MemAccesses: 2e8, L1MissRate: 0.02,
		WorkingSet: 100e3, Bytes: 1e8}
	res := cl.Run(func(ctx *Context) { ctx.Compute(w) })
	if res.Runtime <= 0 {
		t.Fatal("no time elapsed")
	}
	if res.FLOPs != w.Flops {
		t.Fatalf("flops %v, want %v", res.FLOPs, w.Flops)
	}
	if res.PMU.InstRetired != w.Instr {
		t.Fatal("PMU not accumulated")
	}
	if math.Abs(res.CPUBusySeconds-res.Runtime) > 1e-9 {
		t.Fatalf("one busy core: busy %v vs runtime %v", res.CPUBusySeconds, res.Runtime)
	}
	if res.EnergyJoules <= 0 || res.AvgPowerWatts <= 0 {
		t.Fatal("power accounting missing")
	}
}

func TestComputeParallelDividesWallTime(t *testing.T) {
	w := soc.CPUWork{Instr: 4e9, MemAccesses: 1e8, L1MissRate: 0.01, WorkingSet: 1e5}
	run := func(cores int) Result {
		cfg := TX1Cluster(1, network.GigE)
		cfg.RanksPerNode = 1
		return New(cfg).Run(func(ctx *Context) { ctx.ComputeParallel(w, cores) })
	}
	one, four := run(1), run(4)
	// Spreading over 4 cores is ~4x faster in wall time with slightly
	// more total contention (sharers) — busy time stays the total.
	if four.Runtime > one.Runtime/3 {
		t.Fatalf("4-core run %v not ~4x faster than %v", four.Runtime, one.Runtime)
	}
	if four.CPUBusySeconds < one.CPUBusySeconds {
		t.Fatal("parallel run lost busy time")
	}
}

func TestGPUKernelSharesDRAMWithCPU(t *testing.T) {
	k := cuda.Kernel{Name: "stream", FLOPs: 1e6, Bytes: 2 * units.GB, L2HitRatio: 0}
	run := func(withCPU bool) float64 {
		cfg := TX1Cluster(1, network.GigE)
		cfg.RanksPerNode = 1
		cl := New(cfg)
		var kernelTime float64
		cl.Spawn(func(ctx *Context) {
			start := ctx.Now()
			ctx.Kernel(k)
			kernelTime = ctx.Now() - start
		})
		if withCPU {
			cl.SpawnWith(1, func(ctx *Context) {
				// A memory-hungry CPU job on the same node.
				ctx.Compute(soc.CPUWork{Instr: 1e9, MemAccesses: 5e8, L1MissRate: 0.5,
					WorkingSet: 64 * units.MiB, Bytes: 4 * units.GB})
			})
		}
		cl.Finish()
		return kernelTime
	}
	alone, contended := run(false), run(true)
	if contended <= alone*1.05 {
		t.Fatalf("CPU DRAM traffic should slow the integrated GPU: %v vs %v", contended, alone)
	}
}

func TestEnergyScalesWithIdleTime(t *testing.T) {
	cfg := TX1Cluster(2, network.GigE)
	cfg.RanksPerNode = 1
	short := New(cfg).Run(func(ctx *Context) { ctx.P.Sleep(1) })
	cfg2 := TX1Cluster(2, network.GigE)
	cfg2.RanksPerNode = 1
	long := New(cfg2).Run(func(ctx *Context) { ctx.P.Sleep(10) })
	ratio := long.EnergyJoules / short.EnergyJoules
	if math.Abs(ratio-10) > 0.01 {
		t.Fatalf("idle energy ratio %v, want 10", ratio)
	}
}

func TestNICPowerAdder(t *testing.T) {
	run := func(prof network.Profile) Result {
		cfg := TX1Cluster(4, prof)
		cfg.RanksPerNode = 1
		return New(cfg).Run(func(ctx *Context) { ctx.P.Sleep(1) })
	}
	g1, g10 := run(network.GigE), run(network.TenGigE)
	delta := g10.AvgPowerWatts - g1.AvgPowerWatts
	want := 4 * network.TenGigE.PowerWatts
	if math.Abs(delta-want) > 0.5 {
		t.Fatalf("10GbE power adder = %v W, want ~%v", delta, want)
	}
}

func TestTracedRunProducesTrace(t *testing.T) {
	cfg := TX1Cluster(2, network.TenGigE)
	cfg.RanksPerNode = 1
	cfg.Traced = true
	res := New(cfg).Run(func(ctx *Context) {
		ctx.Compute(soc.CPUWork{Instr: 1e8})
		if ctx.Rank == 0 {
			ctx.Send(1, 5, 1000)
		} else {
			ctx.Recv(0, 5)
		}
		ctx.Phase()
	})
	if res.Trace == nil {
		t.Fatal("no trace")
	}
	if res.Trace.Runtime != res.Runtime {
		t.Fatal("trace runtime not stamped")
	}
	comp := res.Trace.ComputeSeconds()
	if comp[0] <= 0 || comp[1] <= 0 {
		t.Fatal("compute not recorded")
	}
	if res.Trace.MessageBytes() != 1000 {
		t.Fatalf("message bytes %v", res.Trace.MessageBytes())
	}
}

func TestFetchCountsAsNetworkTraffic(t *testing.T) {
	cfg := TX1Cluster(2, network.TenGigE)
	cfg.RanksPerNode = 1
	cfg.FileServer = true
	res := New(cfg).Run(func(ctx *Context) { ctx.Fetch(5 * units.MB) })
	if math.Abs(res.NetBytes-10*units.MB) > 1 {
		t.Fatalf("fetch traffic %v, want 10MB", res.NetBytes)
	}
}

func TestJobTracksOwnThroughput(t *testing.T) {
	cfg := TX1Cluster(1, network.GigE)
	cfg.RanksPerNode = 1
	cl := New(cfg)
	fast := cl.Spawn(func(ctx *Context) {
		ctx.Compute(soc.CPUWork{Instr: 1e8, Flops: 1e8})
	})
	slow := cl.SpawnWith(1, func(ctx *Context) {
		ctx.P.Sleep(2)
		ctx.Compute(soc.CPUWork{Instr: 1e8, Flops: 1e8})
	})
	cl.Finish()
	if fast.Finish >= slow.Finish {
		t.Fatal("job finish times not tracked")
	}
	if fast.FLOPs != 1e8 || slow.FLOPs != 1e8 {
		t.Fatal("job flops not tracked")
	}
	if fast.Throughput() <= slow.Throughput() {
		t.Fatal("the earlier-finishing job must show higher throughput")
	}
}

func TestCaviumAssembly(t *testing.T) {
	cfg := CaviumServer(32)
	cl := New(cfg)
	if cl.Ranks() != 32 || len(cl.Nodes) != 1 {
		t.Fatalf("cavium ranks %d nodes %d", cl.Ranks(), len(cl.Nodes))
	}
	if cl.Nodes[0].GPU != nil {
		t.Fatal("the ThunderX has no GPU")
	}
	// All-rank barrier must work through the intra-node path.
	res := cl.Run(func(ctx *Context) { ctx.Barrier() })
	if res.NetBytes != 0 {
		t.Fatalf("single-node run produced wire traffic: %v", res.NetBytes)
	}
}

func TestGTX980UsesPCIe(t *testing.T) {
	cfg := GTX980Cluster(1)
	cl := New(cfg)
	var dur float64
	res := cl.Run(func(ctx *Context) {
		start := ctx.Now()
		ctx.CopyIn(1 * units.GB)
		dur = ctx.Now() - start
	})
	want := 1 * units.GB / cfg.NodeType.GPU.PCIeBandwidth
	if math.Abs(dur-want)/want > 0.05 {
		t.Fatalf("discrete copy %v, want PCIe-bound ~%v", dur, want)
	}
	_ = res
}

// Per-node stats decompose the cluster totals exactly.
func TestPerNodeStatsSumToTotals(t *testing.T) {
	cfg := TX1Cluster(4, network.TenGigE)
	cfg.RanksPerNode = 1
	res := New(cfg).Run(func(ctx *Context) {
		ctx.Compute(soc.CPUWork{Instr: 1e8 * float64(ctx.Rank+1), Flops: 1e7})
		if ctx.Rank > 0 {
			ctx.Send(0, 1, 1e6)
		} else {
			for s := 1; s < 4; s++ {
				ctx.Recv(s, 1)
			}
		}
	})
	if len(res.PerNode) != 4 {
		t.Fatalf("%d node entries", len(res.PerNode))
	}
	var cpu, energy, rx float64
	for _, n := range res.PerNode {
		cpu += n.CPUBusySeconds
		energy += n.EnergyJoules
		rx += n.NetRxBytes
	}
	if math.Abs(cpu-res.CPUBusySeconds) > 1e-9 {
		t.Fatal("CPU busy does not decompose")
	}
	if math.Abs(energy-res.EnergyJoules) > 1e-9 {
		t.Fatal("energy does not decompose")
	}
	if math.Abs(rx-res.NetBytes) > 1 {
		t.Fatal("traffic does not decompose")
	}
	// The imbalance is visible per node: node 3 did 4x node 0's work.
	if res.PerNode[3].CPUBusySeconds < 3*res.PerNode[0].CPUBusySeconds {
		t.Fatal("imbalance invisible in per-node stats")
	}
}

// Exercise the whole per-rank Context surface directly (the workloads
// package covers it indirectly; this keeps the contract pinned here).
func TestContextSurface(t *testing.T) {
	cfg := TX1Cluster(2, network.TenGigE)
	cfg.RanksPerNode = 2
	cfg.FileServer = true
	cl := New(cfg)
	res := cl.Run(func(ctx *Context) {
		if ctx.Size() != 4 || ctx.RanksPerNode() != 2 {
			t.Errorf("size %d rpn %d", ctx.Size(), ctx.RanksPerNode())
		}
		if ctx.NodeIndex() != ctx.Rank/2 {
			t.Errorf("rank %d on node %d", ctx.Rank, ctx.NodeIndex())
		}
		if ctx.Node().GPU == nil || ctx.GPU() == nil {
			t.Error("missing GPU on a TX1 node")
		}
		ctx.ReadLocal(1e6)
		g := ctx.KernelAsync(cuda.Kernel{Name: "k", FLOPs: 1e6})
		ctx.WaitKernel(g)
		ctx.CopyOut(1e5)
		ctx.StageOut(1e5)
		ctx.StageIn(1e5)
		ctx.Allreduce(64)
		ctx.Bcast(0, 1e4)
		ctx.Reduce(0, 1e4)
		ctx.Allgather(1e3)
		ctx.Alltoall(1e3)
		ctx.Sendrecv((ctx.Rank+1)%4, (ctx.Rank+3)%4, 9, 100, 100)
		ctx.Barrier()
		ctx.CreditFlops(5)
	})
	if res.Runtime <= 0 {
		t.Fatal("no time passed")
	}
	if res.FLOPs != 4*(1e6+5) {
		t.Fatalf("flops %v", res.FLOPs)
	}
	if res.MFLOPSPerWatt() <= 0 {
		t.Error("efficiency helper broken")
	}
	if res.NetTrafficRate() <= 0 || res.DRAMTrafficRate() <= 0 {
		t.Error("traffic-rate helpers broken")
	}
	// Zero-runtime result helpers are total.
	var zero Result
	if zero.NetTrafficRate() != 0 || zero.DRAMTrafficRate() != 0 {
		t.Error("zero-runtime rates should be zero")
	}
}

func TestConfigFingerprint(t *testing.T) {
	a := TX1Cluster(8, network.TenGigE)
	if a.Fingerprint() != TX1Cluster(8, network.TenGigE).Fingerprint() {
		t.Fatal("identical configs must share a fingerprint")
	}
	variants := []Config{
		TX1Cluster(4, network.TenGigE),
		TX1Cluster(8, network.GigE),
		CaviumServer(32),
		GTX980Cluster(8),
	}
	traced := a
	traced.Traced = true
	fs := a
	fs.FileServer = true
	gd := a
	gd.GPUDirect = true
	variants = append(variants, traced, fs, gd)
	seen := map[string]bool{a.Fingerprint(): true}
	for i, v := range variants {
		fp := v.Fingerprint()
		if seen[fp] {
			t.Errorf("variant %d collides with an earlier fingerprint", i)
		}
		seen[fp] = true
	}
}
