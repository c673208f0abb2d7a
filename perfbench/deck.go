package main

import (
	"math/rand"

	"clustersoc/internal/simd"
	"clustersoc/internal/workloads"
)

// serveScale is the problem scale of every serve_warm request: the scale
// of the repository's serving recipe (EXPERIMENTS.md and the CI job warm
// a store at 0.05 and drive simd with cmd/simload at 0.05). Storing the
// deck costs about the same at 0.01 and at 0.05, and a stored result is
// about 1.8 KB at either.
const serveScale = 0.05

// newDeck returns serve_warm's requests: every preset fingerprint the
// set-up stores — workloads × sizes × networks × systems — once each, in
// an order set by the seed. The set is the same for every seed, so
// set-up cost does not depend on it; the program under test only ever
// sees the generated requests.
func newDeck(seed int64) []simd.Request {
	var warm []simd.Request
	paper := append(workloads.GPUWorkloads(), workloads.NPBWorkloads()...)
	for _, w := range paper {
		for n := 1; n <= 8; n++ {
			for _, net := range []string{"1GbE", "10GbE", "ideal"} {
				warm = append(warm, simd.Request{Workload: w.Name(), Nodes: n, Network: net, Scale: serveScale})
			}
		}
		for _, n := range []int{1, 2} {
			warm = append(warm, simd.Request{Workload: w.Name(), System: "gtx980", Nodes: n, Scale: serveScale})
		}
	}
	for _, w := range workloads.NPBWorkloads() {
		for _, ranks := range []int{8, 16, 32} {
			warm = append(warm, simd.Request{Workload: w.Name(), System: "cavium", Nodes: ranks, Scale: serveScale})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(warm), func(i, j int) { warm[i], warm[j] = warm[j], warm[i] })
	return warm
}
