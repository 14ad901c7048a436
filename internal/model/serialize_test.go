package model

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"demystbert/internal/data"
	"demystbert/internal/kernels"
	"demystbert/internal/nn"
	"demystbert/internal/optim"
)

func TestCheckpointRoundTrip(t *testing.T) {
	cfg := Tiny()
	cfg.DropProb = 0
	m, _ := New(cfg, 7)

	// Train a step so weights differ from any fresh initialization.
	b := tinyBatch(cfg, 2, 16, 1)
	ctx := nn.NewCtx(1)
	m.Step(ctx, b)
	for _, p := range m.Params() {
		v, g := p.Value.Data(), p.Grad.Data()
		for i := range v {
			v[i] -= 0.01 * g[i]
		}
		p.BumpGen() // manual in-place update: invalidate cached GEMM packs
		p.ZeroGrad()
	}

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if loaded.Config != cfg {
		t.Fatalf("config mismatch: %+v vs %+v", loaded.Config, cfg)
	}
	orig := m.Params()
	got := loaded.Params()
	if len(orig) != len(got) {
		t.Fatalf("param count %d vs %d", len(got), len(orig))
	}
	for i := range orig {
		od, gd := orig[i].Value.Data(), got[i].Value.Data()
		for j := range od {
			if od[j] != gd[j] {
				t.Fatalf("param %s elem %d: %v vs %v", orig[i].Name, j, gd[j], od[j])
			}
		}
	}

	// Behavioural equality: identical eval loss on the same batch.
	evalA := nn.NewCtx(9)
	evalA.Train = false
	evalB := nn.NewCtx(9)
	evalB.Train = false
	if la, lb := m.Forward(evalA, b), loaded.Forward(evalB, b); la != lb {
		t.Fatalf("loaded model loss %v differs from original %v", lb, la)
	}
}

// TestLoadParamsResumeMatchesContinuousRun is the resume-parity
// regression for the restore-into-existing-model path: a model that has
// trained past a checkpoint (leaving warm GEMM pack caches built from the
// newer weights) and then restores the checkpoint with LoadParams must
// step bitwise-identically to a run that never left the checkpoint. This
// fails if LoadParams forgets to bump the pack-cache generation — the
// packed GEMM path would silently keep multiplying by pre-restore panels.
func TestLoadParamsResumeMatchesContinuousRun(t *testing.T) {
	cfg := Tiny()
	cfg.DropProb = 0
	const seed = 7
	gen := data.NewGenerator(cfg.Vocab, 0.15, 1)
	batch1, batch2 := gen.Next(2, 16), gen.Next(2, 16)

	// Pack caches only matter on the packed path.
	old := kernels.SetGEMMPath(kernels.GEMMPathPacked)
	defer kernels.SetGEMMPath(old)

	step := func(m *BERT, opt *optim.LAMB, b *data.Batch) float64 {
		ctx := nn.NewCtx(9)
		loss := m.Step(ctx, b)
		if opt != nil {
			opt.Step(ctx, m.Params())
			m.ZeroGrads()
		}
		return loss
	}

	// Continuous run: step, checkpoint, step again (grads kept).
	cont, err := New(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	optC := optim.NewLAMB(0.01)
	step(cont, optC, batch1)
	var ckpt bytes.Buffer
	if err := cont.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	lossCont := step(cont, nil, batch2)

	// Resumed run: same first step, then train PAST the checkpoint so the
	// weights move and the pack caches rebuild from the newer values, then
	// restore and replay.
	res, err := New(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	optR := optim.NewLAMB(0.01)
	step(res, optR, batch1)
	step(res, optR, batch2) // divergence: stale weights + warm stale packs
	if err := res.LoadParams(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	lossRes := step(res, nil, batch2)

	if math.Float64bits(lossCont) != math.Float64bits(lossRes) {
		t.Fatalf("resumed loss %v != continuous loss %v", lossRes, lossCont)
	}
	cp, rp := cont.Params(), res.Params()
	for i := range cp {
		cg, rg := cp[i].Grad.Data(), rp[i].Grad.Data()
		for j := range cg {
			if math.Float32bits(cg[j]) != math.Float32bits(rg[j]) {
				t.Fatalf("grad %s[%d]: resumed %v != continuous %v", cp[i].Name, j, rg[j], cg[j])
			}
		}
	}
}

func TestLoadParamsRejectsConfigMismatch(t *testing.T) {
	var buf bytes.Buffer
	m, _ := New(Tiny(), 1)
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other := Tiny()
	other.NumLayers++
	m2, _ := New(other, 1)
	if err := m2.LoadParams(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("LoadParams must reject a checkpoint with a different config")
	}
}

func TestCheckpointPreservesWeightTying(t *testing.T) {
	var buf bytes.Buffer
	m, _ := New(Tiny(), 1)
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.MLMDecoder.W != loaded.Embed.Tok {
		t.Fatal("loaded model lost MLM decoder weight tying")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("this is not a checkpoint, honest")); err == nil {
		t.Fatal("garbage input must error")
	}
	if _, err := Load(strings.NewReader("")); err == nil {
		t.Fatal("empty input must error")
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	var buf bytes.Buffer
	m, _ := New(Tiny(), 1)
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if _, err := Load(bytes.NewReader(full[:len(full)/2])); err == nil {
		t.Fatal("truncated checkpoint must error")
	}
}

func TestLoadRejectsCorruptHeader(t *testing.T) {
	var buf bytes.Buffer
	m, _ := New(Tiny(), 1)
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[0] ^= 0xFF // break the magic
	if _, err := Load(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupt magic must error")
	}
}

// TestLoadRejectsOversizedHeader: a bare 40-byte header whose dimensions
// imply an impossible model (vocab 2^28 at d_model 4096 is 4.4 TB of
// weights) is rejected with an error before anything is allocated, as are
// non-positive dimensions, too many layers and parameter counts above the
// bound; a header at the bound's largest preset still passes the check.
func TestLoadRejectsOversizedHeader(t *testing.T) {
	header := func(cfg Config) []byte {
		var buf bytes.Buffer
		if err := writeHeader(&buf, cfg); err != nil {
			t.Fatal(err)
		}
		if buf.Len() != checkpointHeaderBytes {
			t.Fatalf("header is %d bytes, want %d", buf.Len(), checkpointHeaderBytes)
		}
		return buf.Bytes()
	}
	huge := BERTLarge()
	huge.Vocab, huge.DModel, huge.Heads = 1<<28, 4096, 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Load(bytes.NewReader(header(huge)))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Load accepted a header implying 2^28×4096 embeddings")
	}
	if a := after.TotalAlloc - before.TotalAlloc; a > 64<<10 {
		t.Errorf("rejecting the header allocated %d bytes, want ≤ 64 KiB", a)
	}

	bad := map[string]func(c *Config){
		"zero d_model":     func(c *Config) { c.DModel = 0 },
		"negative vocab":   func(c *Config) { c.Vocab = -5 },
		"negative d_ff":    func(c *Config) { c.DFF = -1 },
		"dim above bound":  func(c *Config) { c.DFF = maxCheckpointDim + 1 },
		"too many layers":  func(c *Config) { c.NumLayers = maxCheckpointLayers + 1 },
		"params over 2^31": func(c *Config) { c.DModel, c.Heads, c.DFF = 8192, 64, 32768 },
	}
	for name, mut := range bad {
		cfg := BERTLarge()
		mut(&cfg)
		if _, err := readHeader(bytes.NewReader(header(cfg))); err == nil {
			t.Errorf("%s: header accepted (%+v)", name, cfg)
		}
	}
	for _, cfg := range []Config{Tiny(), BERTLarge(), MegatronBERT(), GPTMedium()} {
		if got, err := readHeader(bytes.NewReader(header(cfg))); err != nil || got != cfg {
			t.Errorf("preset %+v: readHeader = %+v, %v", cfg, got, err)
		}
	}
}

func TestSaveLoadFineTuneHandoff(t *testing.T) {
	// The pre-train -> save -> load -> fine-tune workflow of Fig. 1.
	cfg := Tiny()
	cfg.DropProb = 0
	pre, _ := New(cfg, 3)
	var buf bytes.Buffer
	if err := pre.Save(&buf); err != nil {
		t.Fatal(err)
	}
	base, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFineTuner(base, 4)
	ctx := nn.NewCtx(5)
	qa := data.NewGenerator(cfg.Vocab, 0.15, 6).NextQA(2, 16)
	if loss := f.Step(ctx, qa); loss <= 0 {
		t.Fatalf("fine-tune step on loaded model produced loss %v", loss)
	}
}

// saveRef is the per-float reference encoder of the v1 stream: one
// binary.Write per header field, shape dimension and float. Save's bulk
// codec must produce exactly these bytes.
func saveRef(m *BERT, w io.Writer) error {
	le := binary.LittleEndian
	var flags int32
	if m.Config.Causal {
		flags |= 1
	}
	if m.Config.FusedAttention {
		flags |= 2
	}
	c := m.Config
	for _, f := range []int32{checkpointMagic, checkpointVersion, int32(c.Vocab), int32(c.MaxPos),
		int32(c.NumLayers), int32(c.DModel), int32(c.Heads), int32(c.DFF), flags} {
		if err := binary.Write(w, le, f); err != nil {
			return err
		}
	}
	if err := binary.Write(w, le, math.Float32bits(c.DropProb)); err != nil {
		return err
	}
	for _, p := range m.Params() {
		if err := binary.Write(w, le, int32(len(p.Name))); err != nil {
			return err
		}
		if _, err := w.Write([]byte(p.Name)); err != nil {
			return err
		}
		shape := p.Value.Shape()
		if err := binary.Write(w, le, int32(len(shape))); err != nil {
			return err
		}
		for _, d := range shape {
			if err := binary.Write(w, le, int32(d)); err != nil {
				return err
			}
		}
		for _, v := range p.Value.Data() {
			if err := binary.Write(w, le, math.Float32bits(v)); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestSaveBytesMatchPerFloatEncoder pins the v1 byte stream: the bulk
// chunked encoder writes the same bytes as the per-float reference, for a
// model whose embedding (1000×64 floats) spans several 64 KiB chunks.
func TestSaveBytesMatchPerFloatEncoder(t *testing.T) {
	cfg := Tiny()
	cfg.Causal, cfg.FusedAttention = true, true
	m, _ := New(cfg, 11)
	var got, want bytes.Buffer
	if err := m.Save(&got); err != nil {
		t.Fatal(err)
	}
	if err := saveRef(m, &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("Save wrote %d bytes that differ from the per-float reference (%d bytes)", got.Len(), want.Len())
	}
	loaded, err := Load(&want)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Config != cfg {
		t.Fatalf("config %+v, want %+v", loaded.Config, cfg)
	}
}

// TestFloatCodecChunkBoundaries round-trips lengths on both sides of the
// chunk size, so the partial last chunk and exact multiples are covered.
func TestFloatCodecChunkBoundaries(t *testing.T) {
	per := ioChunkBytes / 4
	chunk := make([]byte, ioChunkBytes)
	for _, n := range []int{0, 1, per - 1, per, per + 1, 2*per + 3} {
		src := make([]float32, n)
		for i := range src {
			src[i] = float32(i)*0.37 - 11
		}
		var buf bytes.Buffer
		if err := writeFloats(&buf, src, chunk); err != nil {
			t.Fatal(err)
		}
		if buf.Len() != 4*n {
			t.Fatalf("n=%d: wrote %d bytes, want %d", n, buf.Len(), 4*n)
		}
		dst := make([]float32, n)
		if err := readFloats(&buf, dst, chunk); err != nil {
			t.Fatal(err)
		}
		for i := range src {
			if math.Float32bits(dst[i]) != math.Float32bits(src[i]) {
				t.Fatalf("n=%d: elem %d read back %v, want %v", n, i, dst[i], src[i])
			}
		}
		if n > 0 {
			short := make([]float32, n+1)
			if err := readFloats(bytes.NewReader(make([]byte, 4*n)), short, chunk); err == nil {
				t.Fatalf("n=%d: reading past the data must error", n)
			}
		}
	}
}

// TestCheckpointIOMemoryBounded: Save and LoadParams allocate a fixed
// amount however large the checkpoint is, because parameter data streams
// through one 64 KiB chunk instead of a tensor-sized buffer.
func TestCheckpointIOMemoryBounded(t *testing.T) {
	cfg := Tiny()
	cfg.Vocab = 8000 // ~2 MB of embedding, far above the chunk
	m, _ := New(cfg, 3)
	var ckpt bytes.Buffer
	if err := m.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	allocated := func(f func()) uint64 {
		best := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	const bound = 256 << 10
	if a := allocated(func() { _ = m.Save(io.Discard) }); a > bound {
		t.Errorf("Save of a %d-byte checkpoint allocated %d bytes, want ≤ %d", ckpt.Len(), a, bound)
	}
	if a := allocated(func() { _ = m.LoadParams(bytes.NewReader(ckpt.Bytes())) }); a > bound {
		t.Errorf("LoadParams of a %d-byte checkpoint allocated %d bytes, want ≤ %d", ckpt.Len(), a, bound)
	}
}
