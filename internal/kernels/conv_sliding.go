package kernels

import (
	"mnn/internal/graph"
	"mnn/internal/sched"
	"mnn/internal/tensor"
)

// SlidingConv is the prepared state of the sliding-window convolution on
// NC4HW4 tensors: weights are re-packed at pre-inference time into
// [oc/4][ic/4][kh][kw][4ic][4oc] order so that the innermost loop is a dense
// 4×4 multiply-accumulate block — the structure NEON kernels use, expressed
// in scalar Go because the module has no assembly or cgo.
type SlidingConv struct {
	attrs  graph.Conv2DAttrs
	ic, oc int
	packed []float32 // [oc4][ic4][kh][kw][4][4]
	bias   []float32 // length oc4*4

	// rs is the bound per-run geometry. Prepared kernels are owned by one
	// session and sessions run exclusively, so a single slot suffices; it
	// lets RunChunk execute on pool workers without any per-run closure.
	rs slidingRun
}

type slidingRun struct {
	s, d                   []float32
	H, W, OH, OW           int
	ic4, oc4               int
	kh, kw, sh, sw, dh, dw int
	ph, pw                 int
	relu, relu6            bool
}

// PrepareSliding packs weights for the sliding-window kernel.
// weight is [oc, ic, kh, kw] (group must be 1; use PrepareDepthwise or the
// im2col path for grouped convolution). bias may be nil.
func PrepareSliding(weight, bias *tensor.Tensor, a *graph.Conv2DAttrs) *SlidingConv {
	oc, ic := weight.Dim(0), weight.Dim(1)
	kh, kw := a.KernelH, a.KernelW
	oc4 := tensor.UpDiv(oc, 4)
	ic4 := tensor.UpDiv(ic, 4)
	sc := &SlidingConv{attrs: *a, ic: ic, oc: oc}
	sc.packed = make([]float32, oc4*ic4*kh*kw*16)
	w := weight.Data()
	for o := 0; o < oc; o++ {
		for i := 0; i < ic; i++ {
			for ky := 0; ky < kh; ky++ {
				for kx := 0; kx < kw; kx++ {
					v := w[((o*ic+i)*kh+ky)*kw+kx]
					oz, ol := o/4, o%4
					cz, cl := i/4, i%4
					idx := ((((oz*ic4+cz)*kh+ky)*kw+kx)*4+cl)*4 + ol
					sc.packed[idx] = v
				}
			}
		}
	}
	sc.bias = make([]float32, oc4*4)
	if bias != nil {
		copy(sc.bias, bias.Data())
	}
	return sc
}

// Run executes the convolution on the pool. src and dst must be NC4HW4.
// Steady-state calls are allocation-free.
func (sc *SlidingConv) Run(dst, src *tensor.Tensor, p *sched.Pool) {
	a := &sc.attrs
	N, H, W := src.Batch(), src.Height(), src.Width()
	ph, pw := graph.ConvPadding(H, W, a)
	sc.rs = slidingRun{
		s: src.Data(), d: dst.Data(),
		H: H, W: W, OH: dst.Height(), OW: dst.Width(),
		ic4: tensor.UpDiv(sc.ic, 4), oc4: tensor.UpDiv(sc.oc, 4),
		kh: a.KernelH, kw: a.KernelW,
		sh: strideOr1(a.StrideH), sw: strideOr1(a.StrideW),
		dh: dilOr1(a.DilationH), dw: dilOr1(a.DilationW),
		ph: ph, pw: pw, relu: a.ReLU, relu6: a.ReLU6,
	}
	total := N * sc.rs.oc4
	p.Run(total, sched.Chunk(total, p.Lanes(), elemChunksPerLane), sc)
}

// RunChunk implements sched.Task: one (batch, output-channel-block) pair
// per work item.
func (sc *SlidingConv) RunChunk(_, start, end int) {
	r := &sc.rs
	s, d := r.s, r.d
	for item := start; item < end; item++ {
		n, oz := item/r.oc4, item%r.oc4
		bias0, bias1, bias2, bias3 := sc.bias[oz*4], sc.bias[oz*4+1], sc.bias[oz*4+2], sc.bias[oz*4+3]
		dstBase := ((n*r.oc4 + oz) * r.OH) * r.OW * 4
		for oy := 0; oy < r.OH; oy++ {
			for ox := 0; ox < r.OW; ox++ {
				acc0, acc1, acc2, acc3 := bias0, bias1, bias2, bias3
				for cz := 0; cz < r.ic4; cz++ {
					srcCZ := ((n*r.ic4 + cz) * r.H) * r.W * 4
					wCZ := ((oz*r.ic4 + cz) * r.kh) * r.kw * 16
					for ky := 0; ky < r.kh; ky++ {
						iy := oy*r.sh - r.ph + ky*r.dh
						if iy < 0 || iy >= r.H {
							continue
						}
						rowOff := srcCZ + iy*r.W*4
						wKY := wCZ + ky*r.kw*16
						for kx := 0; kx < r.kw; kx++ {
							ix := ox*r.sw - r.pw + kx*r.dw
							if ix < 0 || ix >= r.W {
								continue
							}
							so := rowOff + ix*4
							s0, s1, s2, s3 := s[so], s[so+1], s[so+2], s[so+3]
							wb := sc.packed[wKY+kx*16 : wKY+kx*16+16]
							acc0 += s0*wb[0] + s1*wb[4] + s2*wb[8] + s3*wb[12]
							acc1 += s0*wb[1] + s1*wb[5] + s2*wb[9] + s3*wb[13]
							acc2 += s0*wb[2] + s1*wb[6] + s2*wb[10] + s3*wb[14]
							acc3 += s0*wb[3] + s1*wb[7] + s2*wb[11] + s3*wb[15]
						}
					}
				}
				if r.relu6 {
					acc0, acc1, acc2, acc3 = relu6(acc0), relu6(acc1), relu6(acc2), relu6(acc3)
				} else if r.relu {
					acc0, acc1, acc2, acc3 = relu(acc0), relu(acc1), relu(acc2), relu(acc3)
				}
				do := dstBase + (oy*r.OW+ox)*4
				d[do] = acc0
				d[do+1] = acc1
				d[do+2] = acc2
				d[do+3] = acc3
			}
		}
	}
}

func relu(v float32) float32 {
	if v < 0 {
		return 0
	}
	return v
}

func relu6(v float32) float32 {
	if v < 0 {
		return 0
	}
	if v > 6 {
		return 6
	}
	return v
}

func strideOr1(s int) int {
	if s <= 0 {
		return 1
	}
	return s
}

func dilOr1(d int) int {
	if d <= 0 {
		return 1
	}
	return d
}
