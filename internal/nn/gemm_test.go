package nn

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

func randTensor(r *rand.Rand, s Shape) *Tensor {
	t := NewTensor(s)
	for i := range t.Data {
		t.Data[i] = r.NormFloat64()
	}
	return t
}

// closeEnough compares within a relative-or-absolute tolerance
// (reassociation-only differences between the GEMM and direct paths).
func closeEnough(a, b, tol float64) bool {
	d := math.Abs(a - b)
	return d <= tol || d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// Forward routes Conv through im2col+GEMM while forwardDirect runs the
// direct loop nest; outputs must agree within reassociation tolerance.
// The table covers the AlexNet conv layers — conv2/conv4/conv5 are the
// grouped ones — at reduced spatial size, large enough to engage the
// tiled GEMM and the parallel im2col.
func TestConvForwardBackendsAgree(t *testing.T) {
	cases := []struct {
		name                      string
		inC, outC, k, stride, pad int
		groups                    int
		h, w                      int
	}{
		{"conv1-style", 3, 24, 11, 4, 0, 1, 51, 51},
		{"conv2-grouped", 96, 64, 5, 1, 2, 2, 13, 13},
		{"conv3-plain", 64, 48, 3, 1, 1, 1, 13, 13},
		{"conv5-grouped", 48, 32, 3, 1, 1, 2, 13, 13},
		{"pointwise", 32, 16, 1, 1, 0, 1, 9, 9},
	}
	r := rand.New(rand.NewSource(23))
	for _, tc := range cases {
		conv := NewConv(tc.name, tc.outC, tc.k, tc.stride, tc.pad, tc.groups, 7)
		in := randTensor(r, Shape{C: tc.inC, H: tc.h, W: tc.w})

		ref := conv.forwardDirect(in)
		blk := conv.Forward(in)

		if ref.Shape != blk.Shape {
			t.Fatalf("%s: shape %v vs %v", tc.name, ref.Shape, blk.Shape)
		}
		for i := range ref.Data {
			if !closeEnough(ref.Data[i], blk.Data[i], 1e-9) {
				t.Fatalf("%s: out[%d] = %v (GEMM) vs %v (direct)",
					tc.name, i, blk.Data[i], ref.Data[i])
			}
		}
	}
}

// The two conv paths — im2col+GEMM on the compute engine (what Forward
// runs) and the direct loops — must agree over a full small network:
// conv (grouped), ReLU, pool, FC, softmax give the same classification
// scores either way.
func TestNetworkForwardBackendsAgree(t *testing.T) {
	net := &Network{
		Name:  "micronet",
		Input: Shape{C: 6, H: 25, W: 25},
		Layers: []Layer{
			NewConv("c1", 16, 5, 2, 1, 2, 3),
			&ReLU{"r1"},
			&Pool{Label: "p1", K: 3, Stride: 2},
			NewConv("c2", 24, 3, 1, 1, 1, 4),
			&ReLU{"r2"},
			NewFC("fc", 10, 5),
			&Softmax{"prob"},
		},
	}
	in := randTensor(rand.New(rand.NewSource(29)), net.Input)

	got, err := net.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	want := in
	for _, l := range net.Layers {
		if c, ok := l.(*Conv); ok {
			want = c.forwardDirect(want)
			continue
		}
		want = l.Forward(want)
	}

	for i := range want.Data {
		if !closeEnough(got.Data[i], want.Data[i], 1e-7) {
			t.Fatalf("score[%d] = %v (GEMM) vs %v (direct)", i, got.Data[i], want.Data[i])
		}
	}
}

// A fixed-seed forward pass must produce identical bytes across repeated
// runs and across GOMAXPROCS settings: the parallel GEMM partitions work
// deterministically.
func TestBlockedForwardDeterministic(t *testing.T) {
	conv := NewConv("det", 32, 3, 1, 1, 2, 9) // grouped, im2col+GEMM path
	in := randTensor(rand.New(rand.NewSource(31)), Shape{C: 16, H: 21, W: 21})

	run := func() []uint64 {
		out := conv.Forward(in)
		bits := make([]uint64, len(out.Data))
		for i, v := range out.Data {
			bits[i] = math.Float64bits(v)
		}
		return bits
	}

	first := run()
	for trial := 0; trial < 3; trial++ {
		if got := run(); !sameBits(first, got) {
			t.Fatalf("rerun %d changed bytes", trial)
		}
	}
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	for _, procs := range []int{1, 2, 3, orig} {
		runtime.GOMAXPROCS(procs)
		if got := run(); !sameBits(first, got) {
			t.Fatalf("GOMAXPROCS=%d changed bytes", procs)
		}
	}
}

func sameBits(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
