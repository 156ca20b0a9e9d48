package matmul

// MinSplitDim is the minimum dimension below which Strassen never splits,
// applied on top of the paper's Equation 9 condition.
//
// Equation 9 counts a matrix addition as costing exactly one multiplication,
// which holds for the hand-scheduled NEON kernels the paper measures. Our
// pure-Go substitute has a fused multiply-add GEMM whose per-element cost is
// lower than a memory-bound standalone addition, so recursing all the way to
// the Eq. 9 bound (31³) loses to the base kernel. A one-time calibration of
// the pure-Go kernels on an x86 development host found 128 to be the
// knee: with it, 256³ breaks roughly even and 512³/1024³ win by 15–25%,
// matching the shape of the paper's Table 3.
//
// It is a variable so the ablation benchmarks can sweep it.
var MinSplitDim = 128
