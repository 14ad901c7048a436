package kernels

import "sync"

// Blocked batched GEMM. The per-matrix path (BatchedGEMMPerMatrix) has two
// structural problems for BERT's attention products: parallelism stops at
// the batch dimension, so B·h smaller than the worker count leaves cores
// idle, and each sub-smallGEMMFlops per-head n×n×dHead product falls back
// to the scalar naive loops because packing can't pay for itself inside
// one tiny matrix. This engine fixes both by treating the whole batch as
// one kernel, the way attention GEMMs launch on the paper's GPU
// (Section 3.2.2):
//
//	phase 1: pack op(A_i) and op(B_i) of every matrix into micro-panels
//	         (parallel over the batch; alpha folded into the A pack)
//	phase 2: flatten (matrix × MC row block × column segment) into one
//	         worker-pool region; each item beta-scales its C region and
//	         sweeps the SIMD micro-kernel over its panels per depth block
//
// Packing is amortized across the batch in phase 1, so even 16×16×8
// matrices run through the register-tiled micro-kernel in phase 2 — the
// "small-GEMM" path is microTileSweep with no blocked-state machinery
// around it. Every C element is written by exactly one item with a fixed
// loop order, so results are bitwise deterministic regardless of
// scheduling.
const (
	// batchedPackCapFloats bounds the phase-1 scratch (packed copies of
	// all A and B matrices). Attention-scale batches stay far below it;
	// batches of very large matrices fall back to the per-matrix path,
	// whose scratch is bounded by the single-GEMM cache blocking.
	batchedPackCapFloats = 1 << 23 // 32 MiB

	// batchedGrainFlops merges tiny work items into one dispatch chunk so
	// a batch of small matrices doesn't pay per-item handout overhead.
	batchedGrainFlops = 1 << 16
)

// batchedBlocked runs the flattened two-phase schedule. The caller has
// validated arguments and handled batch<2, empty dims, and the quick
// alpha/k returns.
func batchedBlocked(batch int, transA, transB bool, m, n, k int, alpha float32, a []float32, sA int, b []float32, sB int, beta float32, c []float32, sC int) {
	kb := activeBackend.forWidth(n)
	mr, nr := kb.mr, kb.nr
	mRound := (m + mr - 1) / mr * mr
	nRound := (n + nr - 1) / nr * nr
	apb := getScratch(batch * mRound * k)
	bpb := getScratch(batch * nRound * k)

	p := batchedPackPool.Get().(*batchedPackState)
	p.a, p.b, p.ap, p.bp = a, b, *apb, *bpb
	p.transA, p.transB = transA, transB
	p.m, p.n, p.k = m, n, k
	p.sA, p.sB = sA, sB
	p.mr, p.nr = mr, nr
	p.mRound, p.nRound = mRound, nRound
	p.alpha = alpha
	parallelRun(batch, 1, p)
	p.a, p.b, p.ap, p.bp = nil, nil, nil, nil
	batchedPackPool.Put(p)

	// One flattened region over (matrix, row block, column segment).
	// Column segmentation mirrors gemmState.run: only when the item count
	// is small relative to the workers, and never narrower than two
	// micro-panels so packed-panel reuse stays intact.
	icBlocks := (m + gemmMC - 1) / gemmMC
	segs, segCols := 1, n
	if w := MaxWorkers(); w > 1 && batch*icBlocks < 3*w {
		target := (3*w + batch*icBlocks - 1) / (batch * icBlocks)
		if maxSegs := max(n/(2*nr), 1); target > maxSegs {
			target = maxSegs
		}
		segCols = max((((n+target-1)/target+nr-1)/nr)*nr, nr)
		segs = (n + segCols - 1) / segCols
	}
	t := batchedTilePool.Get().(*batchedTileState)
	t.kb, t.c, t.ap, t.bp = kb, c, *apb, *bpb
	t.m, t.n, t.k = m, n, k
	t.sC = sC
	t.mRound, t.nRound = mRound, nRound
	t.icBlocks, t.segs, t.segCols = icBlocks, segs, segCols
	t.beta = beta
	items := batch * icBlocks * segs
	grain := 1
	if per := 2 * m * n * k / (icBlocks * segs); per < batchedGrainFlops {
		grain = batchedGrainFlops / max(per, 1)
	}
	parallelRun(items, grain, t)
	t.kb, t.c, t.ap, t.bp = nil, nil, nil, nil
	batchedTilePool.Put(t)

	putScratch(apb)
	putScratch(bpb)
}

// batchedPackState is the pooled phase-1 body: item i packs matrix i's A
// and B operands into their slots of the shared panel buffers.
type batchedPackState struct {
	a, b, ap, bp   []float32
	transA, transB bool
	m, n, k        int
	sA, sB         int
	mr, nr         int
	mRound, nRound int
	alpha          float32
}

var batchedPackPool = sync.Pool{New: func() any { return new(batchedPackState) }}

func (s *batchedPackState) runRange(lo, hi int) {
	mr, nr := s.mr, s.nr
	for i := lo; i < hi; i++ {
		ai := s.a[i*s.sA : i*s.sA+s.m*s.k]
		bi := s.b[i*s.sB : i*s.sB+s.k*s.n]
		aDst := s.ap[i*s.mRound*s.k:]
		bDst := s.bp[i*s.nRound*s.k:]
		for pc := 0; pc < s.k; pc += gemmKC {
			kcb := min(gemmKC, s.k-pc)
			packA(s.transA, aDst[s.mRound*pc:s.mRound*pc+s.mRound*kcb], ai, 0, s.m, pc, kcb, s.m, s.k, s.alpha, mr, false)
			packB(s.transB, bDst[s.nRound*pc:s.nRound*pc+s.nRound*kcb], bi, 0, s.n, pc, kcb, s.n, s.k, nr, false)
		}
	}
}

// batchedTileState is the pooled phase-2 body: item t is one
// (matrix, row block, column segment) piece of the batch.
type batchedTileState struct {
	kb             *kernelBackend
	c, ap, bp      []float32
	m, n, k        int
	sC             int
	mRound, nRound int
	icBlocks       int
	segs, segCols  int
	beta           float32
}

var batchedTilePool = sync.Pool{New: func() any { return new(batchedTileState) }}

func (s *batchedTileState) runRange(lo, hi int) {
	for t := lo; t < hi; t++ {
		perMat := s.icBlocks * s.segs
		mat := t / perMat
		rem := t % perMat
		i0 := (rem / s.segs) * gemmMC
		iEnd := min(i0+gemmMC, s.m)
		j0 := (rem % s.segs) * s.segCols
		jEnd := min(j0+s.segCols, s.n)
		cm := s.c[mat*s.sC : mat*s.sC+s.m*s.n]
		if s.beta != 1 {
			for r := i0; r < iEnd; r++ {
				scaleC(cm[r*s.n+j0:r*s.n+jEnd], s.beta)
			}
		}
		aMat := s.ap[mat*s.mRound*s.k:]
		bMat := s.bp[mat*s.nRound*s.k:]
		for pc := 0; pc < s.k; pc += gemmKC {
			kcb := min(gemmKC, s.k-pc)
			microTileSweep(s.kb, cm, s.n, aMat[s.mRound*pc:], bMat[s.nRound*pc:], kcb, i0, iEnd, j0, jEnd, s.m, s.n)
		}
	}
}
