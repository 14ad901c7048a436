package kernels

import (
	"flag"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

var geluExhaustive = flag.Bool("gelu-exhaustive", false,
	"sweep all 2^32 float32 bit patterns through every vector GeLU backend")

// vectorGeLUBackends returns the host backends whose GeLU row kernels are
// not the scalar loops.
func vectorGeLUBackends(t *testing.T) []*kernelBackend {
	t.Helper()
	var out []*kernelBackend
	scalar := reflect.ValueOf(geluRowGo).Pointer()
	for _, b := range hostBackends {
		if reflect.ValueOf(b.gelu).Pointer() != scalar {
			out = append(out, b)
		}
	}
	if len(out) == 0 {
		t.Skip("no vector GeLU backend on this host")
	}
	return out
}

// geluDYs are the upstream gradients the backward parity checks cycle
// through: finite, signed and of mixed magnitude, so a lane's dY never
// hides a derivative bit.
var geluDYs = [...]float32{1, -1, 0.37, -2.5e3, 3e-5, 7}

// geluRowMismatch runs xs through b's forward and backward row kernels
// and describes the first lane whose bits differ from geluScalar or from
// dY·geluGradScalar ("" when every lane matches).
func geluRowMismatch(b *kernelBackend, xs, y, dy, dx []float32) string {
	y, dy, dx = y[:len(xs)], dy[:len(xs)], dx[:len(xs)]
	for i := range dy {
		dy[i] = geluDYs[i%len(geluDYs)]
	}
	b.gelu(y, xs)
	b.geluBwd(dx, dy, xs)
	for i, x := range xs {
		if want := geluScalar(x); math.Float32bits(y[i]) != math.Float32bits(want) {
			return fmt.Sprintf("%s GeLU(%v = %#08x) = %#08x, scalar %#08x", b.name, x, math.Float32bits(x), math.Float32bits(y[i]), math.Float32bits(want))
		}
		if want := dy[i] * geluGradScalar(x); math.Float32bits(dx[i]) != math.Float32bits(want) {
			return fmt.Sprintf("%s GeLU'(%v = %#08x)·%v = %#08x, scalar %#08x", b.name, x, math.Float32bits(x), dy[i], math.Float32bits(dx[i]), math.Float32bits(want))
		}
	}
	return ""
}

// geluParitySample is the dense tier-1 sample: every stride-th float32
// bit pattern, the 4096 patterns on either side of each of the erf clamp (±4
// and its input-side image ±4√2), the exp32 edges (±exp32Max, exp32Min and
// the inputs ±√(-2·exp32Min) whose backward exp argument reaches it) and
// zero, plus ±Inf and NaNs.
func geluParitySample(stride uint64) []float32 {
	xs := make([]float32, 0, (1<<32)/stride+1<<17)
	for u := uint64(0); u < 1<<32; u += stride {
		xs = append(xs, math.Float32frombits(uint32(u)))
	}
	c := float32(4 * math.Sqrt2)
	e := float32(math.Sqrt(-2 * exp32Min))
	for _, edge := range []float32{4, -4, c, -c, exp32Max, -exp32Max, exp32Min, e, -e, 0, float32(math.Copysign(0, -1))} {
		lo, hi := edge, edge
		for i := 0; i < 4096; i++ {
			xs = append(xs, lo, hi)
			lo = math.Nextafter32(lo, float32(math.Inf(-1)))
			hi = math.Nextafter32(hi, float32(math.Inf(1)))
		}
	}
	inf := float32(math.Inf(1))
	return append(xs, inf, -inf, float32(math.NaN()), math.Float32frombits(0xffc00001), math.Float32frombits(0x7f800001))
}

// geluParityParallel has GOMAXPROCS workers check the inputs next hands
// them (filled into, or in place of, the chunk-sized xs it gets) through
// every backend in bs until next returns nil, and
// returns the first mismatch ("" when every lane matches). The scalar
// oracle dominates the cost, so the sweep uses every core.
func geluParityParallel(bs []*kernelBackend, next func(xs []float32) []float32, chunk int) string {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr string
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]float32, 4*chunk)
			for {
				xs := next(buf[:chunk])
				if xs == nil {
					return
				}
				for _, b := range bs {
					if msg := geluRowMismatch(b, xs, buf[chunk:], buf[2*chunk:], buf[3*chunk:]); msg != "" {
						mu.Lock()
						if firstErr == "" {
							firstErr = msg
						}
						mu.Unlock()
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// TestGeLUVectorMatchesScalar pins every vector GeLU lane bit-for-bit to
// the scalar forward and backward over the dense sample (every 64th bit
// pattern; every 1024th under the race detector, whose instrumentation
// slows the scalar oracle about tenfold).
func TestGeLUVectorMatchesScalar(t *testing.T) {
	bs := vectorGeLUBackends(t)
	stride := uint64(64)
	if raceEnabled {
		stride = 1024
	}
	xs := geluParitySample(stride)
	const chunk = 1 << 16
	var pos atomic.Int64
	msg := geluParityParallel(bs, func([]float32) []float32 {
		lo := int(pos.Add(chunk)) - chunk
		if lo >= len(xs) {
			return nil
		}
		return xs[lo:min(lo+chunk, len(xs))]
	}, chunk)
	if msg != "" {
		t.Fatal(msg)
	}
}

// TestGeLUVectorRaggedRows runs every row length 1-47 at every offset of
// a 16-lane vector, so each element lands in a full vector body and in
// every position of the masked tail, and checks that nothing past the row
// is written.
func TestGeLUVectorRaggedRows(t *testing.T) {
	all := geluParitySample(1 << 16)
	src := all[len(all)-(1<<16)-40:] // normals, edges and the specials
	const guard = float32(-12345)
	for _, b := range vectorGeLUBackends(t) {
		for n := 1; n <= 47; n++ {
			for off := 0; off < 16; off++ {
				xs := src[off : off+n]
				buf := make([]float32, 3*(n+1))
				y, dy, dx := buf[:n+1], buf[n+1:2*n+2], buf[2*n+2:]
				y[n], dx[n] = guard, guard
				if msg := geluRowMismatch(b, xs, y, dy, dx); msg != "" {
					t.Fatalf("n=%d off=%d: %s", n, off, msg)
				}
				if y[n] != guard || dx[n] != guard {
					t.Fatalf("%s n=%d: row kernel wrote past the row end", b.name, n)
				}
			}
		}
	}
}

// TestGeLUVectorExhaustive sweeps all 2^32 input patterns, forward and
// backward, through every vector backend. Opt-in, about 7.5 minutes on a
// 2-core Xeon, most of it the scalar oracle on tiny and subnormal inputs:
// go test -run TestGeLUVectorExhaustive ./internal/kernels/ -args -gelu-exhaustive
func TestGeLUVectorExhaustive(t *testing.T) {
	if !*geluExhaustive {
		t.Skip("enable with -gelu-exhaustive")
	}
	bs := vectorGeLUBackends(t)
	const chunk = 1 << 20
	var base atomic.Uint64
	msg := geluParityParallel(bs, func(xs []float32) []float32 {
		lo := base.Add(chunk) - chunk
		if lo >= 1<<32 {
			return nil
		}
		for i := range xs {
			xs[i] = math.Float32frombits(uint32(lo + uint64(i)))
		}
		return xs
	}, chunk)
	if msg != "" {
		t.Fatal(msg)
	}
}
