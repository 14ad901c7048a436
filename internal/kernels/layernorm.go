package kernels

import (
	"fmt"
	"math"
	"sync"
)

// LayerNormForward normalizes each row of the rows×n matrix x to zero mean
// and unit variance, then applies the learned affine transform gamma/beta:
//
//	y = gamma * (x - mean) / sqrt(var + eps) + beta
//
// It stores per-row mean and inverse standard deviation into mean and
// invStd (each of length rows) for reuse by the backward pass, matching
// how DNN frameworks implement LN (Ba et al., the paper's [13]).
func LayerNormForward(y, x, gamma, beta []float32, mean, invStd []float32, rows, n int, eps float32) {
	if len(x) != rows*n || len(y) != rows*n || len(gamma) != n || len(beta) != n || len(mean) != rows || len(invStd) != rows {
		panic(fmt.Sprintf("kernels: LayerNormForward dims rows=%d n=%d", rows, n))
	}
	parallelFor(rows, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			xr := x[r*n : (r+1)*n]
			yr := y[r*n : (r+1)*n]
			mu, istd := layerNormRowStats(xr, eps)
			mean[r] = mu
			invStd[r] = istd
			layerNormRowApply(yr, xr, gamma, beta, mu, istd)
		}
	})
}

// layerNormRowStats computes the mean and inverse standard deviation of
// one row. Shared by LayerNormForward and the fused GEMM epilogue
// (gemm_epilogue.go) so the two paths are bitwise-identical.
func layerNormRowStats(xr []float32, eps float32) (mu, istd float32) {
	n := len(xr)
	var sum float32
	for _, v := range xr {
		sum += v
	}
	mu = sum / float32(n)
	var sq float32
	for _, v := range xr {
		d := v - mu
		sq += d * d
	}
	istd = 1 / float32(math.Sqrt(float64(sq/float32(n)+eps)))
	return mu, istd
}

// layerNormRowApply writes the normalized affine transform of xr into yr.
// yr and xr may alias: each element is read before it is written.
func layerNormRowApply(yr, xr, gamma, beta []float32, mu, istd float32) {
	for i, v := range xr {
		yr[i] = gamma[i]*(v-mu)*istd + beta[i]
	}
}

// LayerNormBackward computes the three layer-norm gradients given the
// saved forward statistics:
//
//	dGamma[j] += sum_r dY[r,j] * xhat[r,j]
//	dBeta[j]  += sum_r dY[r,j]
//	dX[r,i]    = invStd[r]/n * (n*g[i] - sum(g) - xhat[r,i]*sum(g*xhat))
//
// where g = dY*gamma and xhat is the normalized input. dGamma/dBeta are
// accumulated (+=) so multiple calls sum gradients, like every other
// weight-gradient kernel in the engine.
func LayerNormBackward(dX, dGamma, dBeta, dY, x, gamma []float32, mean, invStd []float32, rows, n int) {
	if len(dX) != rows*n || len(dY) != rows*n || len(x) != rows*n ||
		len(gamma) != n || len(dGamma) != n || len(dBeta) != n ||
		len(mean) != rows || len(invStd) != rows {
		panic(fmt.Sprintf("kernels: LayerNormBackward dims rows=%d n=%d", rows, n))
	}

	// dX: independent per row, parallel over rows.
	parallelFor(rows, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			xr := x[r*n : (r+1)*n]
			dyr := dY[r*n : (r+1)*n]
			dxr := dX[r*n : (r+1)*n]
			mu, istd := mean[r], invStd[r]

			var sumG, sumGX float32
			for i := range xr {
				xhat := (xr[i] - mu) * istd
				g := dyr[i] * gamma[i]
				sumG += g
				sumGX += g * xhat
			}
			invN := 1 / float32(n)
			for i := range xr {
				xhat := (xr[i] - mu) * istd
				g := dyr[i] * gamma[i]
				dxr[i] = istd * (g - invN*sumG - xhat*invN*sumGX)
			}
		}
	})

	// dGamma/dBeta: column reductions over disjoint column bands.
	s := lnParamGradPool.Get().(*lnParamGradState)
	s.dGamma, s.dBeta, s.dY, s.x, s.mean, s.invStd, s.rows, s.n = dGamma, dBeta, dY, x, mean, invStd, rows, n
	parallelRun(n, biasGradChunk, s)
	*s = lnParamGradState{}
	lnParamGradPool.Put(s)
}

// lnParamGradState is the pooled dispatch body of LayerNormBackward's
// dGamma/dBeta pass, laid out like BiasGrad's: work items are disjoint
// column bands, and each band walks the rows in order over contiguous
// row segments instead of striding down single columns. Every column
// still folds r = 0..rows-1 in order from the existing gradient, so the
// result is bitwise-equal to a column-at-a-time loop, and splitting the
// rows across calls (gradient accumulation) matches one call bitwise.
type lnParamGradState struct {
	dGamma, dBeta, dY, x, mean, invStd []float32
	rows, n                            int
}

var lnParamGradPool = sync.Pool{New: func() any { return new(lnParamGradState) }}

func (s *lnParamGradState) runRange(lo, hi int) {
	var dgAcc, dbAcc [biasGradChunk]float32
	n := s.n
	for j0 := lo; j0 < hi; j0 += biasGradChunk {
		w := min(biasGradChunk, hi-j0)
		dg, db := dgAcc[:w], dbAcc[:w]
		copy(dg, s.dGamma[j0:j0+w])
		copy(db, s.dBeta[j0:j0+w])
		for r := 0; r < s.rows; r++ {
			mu, istd := s.mean[r], s.invStd[r]
			xr := s.x[r*n+j0 : r*n+j0+w]
			dyr := s.dY[r*n+j0 : r*n+j0+w]
			for k, v := range xr {
				xhat := (v - mu) * istd
				dy := dyr[k]
				dg[k] += dy * xhat
				db[k] += dy
			}
		}
		copy(s.dGamma[j0:j0+w], dg)
		copy(s.dBeta[j0:j0+w], db)
	}
}

// LayerNormUnfusedKernelCount is the number of separate GPU kernels an
// unfused layer-norm forward launches in the paper's fusion study
// (Fig. 12a): mean reduction, centering, square, variance reduction,
// rsqrt-normalize, gamma multiply, beta add.
const LayerNormUnfusedKernelCount = 7
