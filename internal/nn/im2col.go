package nn

import (
	"fmt"

	"clustersoc/internal/compute"
	"clustersoc/internal/kernels"
)

// im2col + GEMM convolution — the algorithm Caffe actually executes on
// the GPU (and the reason conv layers inherit GEMM's high operational
// intensity in Table II): the input patches are unrolled into a matrix
// and the convolution becomes one big multiply against the unrolled
// weights. Both the unroll and the GEMM run on the compute engine
// (internal/compute), which accelerates exactly the operations cuDNN
// would.

// Im2col unrolls the input into a (C*K*K) x (outH*outW) matrix for the
// given convolution geometry. Out-of-bounds taps contribute zeros. The
// geometry is validated: the kernel must be positive and fit inside the
// zero-padded input, the stride positive, and the padding non-negative —
// the degenerate cases that would otherwise produce an empty or
// negatively-shaped patch matrix.
func Im2col(in *Tensor, k, stride, pad int) (*kernels.Matrix, error) {
	if in.Shape.C < 1 || in.Shape.H < 1 || in.Shape.W < 1 {
		return nil, fmt.Errorf("nn: im2col on empty input %v", in.Shape)
	}
	if k < 1 {
		return nil, fmt.Errorf("nn: im2col kernel %d must be positive", k)
	}
	if stride < 1 {
		return nil, fmt.Errorf("nn: im2col stride %d must be positive", stride)
	}
	if pad < 0 {
		return nil, fmt.Errorf("nn: im2col padding %d must be non-negative", pad)
	}
	if k > in.Shape.H+2*pad || k > in.Shape.W+2*pad {
		return nil, fmt.Errorf("nn: im2col kernel %d exceeds padded input %dx%d (pad %d)",
			k, in.Shape.H, in.Shape.W, pad)
	}
	outH := (in.Shape.H+2*pad-k)/stride + 1
	outW := (in.Shape.W+2*pad-k)/stride + 1
	m := kernels.NewMatrix(in.Shape.C*k*k, outH*outW)
	compute.Blocked{}.Im2col(m.Data, in.Data, in.Shape.C, in.Shape.H, in.Shape.W, k, stride, pad)
	return m, nil
}

// forwardGEMM runs the convolution as weights x im2col(input) + bias,
// per group. It matches the direct loops up to floating-point summation
// order within a row, and is exercised against them in the tests.
func (c *Conv) forwardGEMM(in *Tensor) (*Tensor, error) {
	out := NewTensor(c.OutShape(in.Shape))
	inCPerG := in.Shape.C / c.Groups
	outCPerG := c.OutC / c.Groups
	spatial := out.Shape.H * out.Shape.W

	for g := 0; g < c.Groups; g++ {
		// Slice the group's input channels into a view tensor.
		gin := NewTensor(Shape{C: inCPerG, H: in.Shape.H, W: in.Shape.W})
		copy(gin.Data, in.Data[g*inCPerG*in.Shape.H*in.Shape.W:(g+1)*inCPerG*in.Shape.H*in.Shape.W])
		cols, err := Im2col(gin, c.K, c.Stride, c.Pad)
		if err != nil {
			return nil, err
		}

		// Weight matrix for the group: outCPerG x (inCPerG*K*K).
		wm := kernels.NewMatrix(outCPerG, inCPerG*c.K*c.K)
		copy(wm.Data, c.weights[g*outCPerG*inCPerG*c.K*c.K:(g+1)*outCPerG*inCPerG*c.K*c.K])

		prod, err := kernels.MatMul(wm, cols)
		if err != nil {
			return nil, err
		}
		for oc := 0; oc < outCPerG; oc++ {
			ocAbs := g*outCPerG + oc
			base := ocAbs * spatial
			bias := c.bias[ocAbs]
			for s := 0; s < spatial; s++ {
				out.Data[base+s] = prod.Data[oc*spatial+s] + bias
			}
		}
	}
	return out, nil
}
