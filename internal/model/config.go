// Package model assembles the full BERT pre-training network of Fig. 2:
// the embedding layer, N Transformer encoder layers, and the output heads
// for the two unsupervised tasks (masked-word prediction and next-sentence
// prediction), with a complete hand-written backward pass and optional
// activation checkpointing.
package model

import "fmt"

// Config holds BERT's hyperparameters using the paper's symbols
// (Table 2a): N Transformer layers of hidden size d_model with h attention
// heads and intermediate dimension d_ff.
type Config struct {
	Vocab     int
	MaxPos    int
	NumLayers int // N
	DModel    int // d_model
	Heads     int // h
	DFF       int // d_ff, usually 4·d_model
	DropProb  float32

	// Causal turns every layer's attention into decoder-style masked
	// attention (GPT-family networks, Section 2.3). It zeros certain
	// matrix elements but changes no kernel shapes, which is why the
	// paper's training characterization covers decoders too.
	Causal bool

	// FusedAttention replaces the scale/mask/softmax kernel sequence with
	// one fused kernel (the Section 6.1.1 software optimization).
	FusedAttention bool
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.Vocab < 8:
		return fmt.Errorf("model: vocab %d too small", c.Vocab)
	case c.MaxPos < 4:
		return fmt.Errorf("model: max position %d too small", c.MaxPos)
	case c.NumLayers < 1:
		return fmt.Errorf("model: layer count %d < 1", c.NumLayers)
	case c.DModel < 1 || c.Heads < 1 || c.DModel%c.Heads != 0:
		return fmt.Errorf("model: d_model %d not divisible by %d heads", c.DModel, c.Heads)
	case c.DFF < 1:
		return fmt.Errorf("model: d_ff %d < 1", c.DFF)
	case c.DropProb < 0 || c.DropProb >= 1:
		return fmt.Errorf("model: dropout %v outside [0,1)", c.DropProb)
	}
	return nil
}

// BERTLarge is the configuration the paper studies (Section 3.1.3):
// 24 layers, d_model 1024, 16 heads, d_ff 4096, ~340M parameters.
func BERTLarge() Config {
	return Config{Vocab: 30522, MaxPos: 512, NumLayers: 24, DModel: 1024, Heads: 16, DFF: 4096, DropProb: 0.1}
}

// BERTBase is the smaller published configuration: 12 layers, d_model 768,
// 12 heads (~110M parameters).
func BERTBase() Config {
	return Config{Vocab: 30522, MaxPos: 512, NumLayers: 12, DModel: 768, Heads: 12, DFF: 3072, DropProb: 0.1}
}

// MegatronBERT approximates the paper's C3 configuration (Fig. 9): a
// Megatron-LM-like model with 2× BERT-Large's hidden dimension.
func MegatronBERT() Config {
	return Config{Vocab: 30522, MaxPos: 512, NumLayers: 24, DModel: 2048, Heads: 32, DFF: 8192, DropProb: 0.1}
}

// GPTMedium approximates a GPT-2-Medium-class decoder: the same
// Transformer geometry as BERT-Large with causal attention and a larger
// vocabulary. Training cost structure matches the encoder, as Section 2.3
// observes.
func GPTMedium() Config {
	return Config{Vocab: 50260, MaxPos: 1024, NumLayers: 24, DModel: 1024, Heads: 16, DFF: 4096, DropProb: 0.1, Causal: true}
}

// Tiny returns a reduced-scale configuration the pure-Go engine can train
// quickly; used by tests, examples, and benches.
func Tiny() Config {
	return Config{Vocab: 1000, MaxPos: 64, NumLayers: 2, DModel: 64, Heads: 4, DFF: 256, DropProb: 0.1}
}

// ParamCount returns the exact trainable-parameter count of the
// configuration, matching Params() of a constructed model.
func (c Config) ParamCount() int { return int(c.paramCount64()) }

// paramCount64 is ParamCount in int64, exact for any dimensions up to
// 2^24 (the checkpoint header bound) on every platform.
func (c Config) paramCount64() int64 {
	d, ff, vocab := int64(c.DModel), int64(c.DFF), int64(c.Vocab)
	// Embeddings: token + position + segment tables and LN.
	emb := (vocab+int64(c.MaxPos)+2)*d + 2*d
	// Per encoder layer: 4 projections (d·d+d), FC1 (d·ff+ff),
	// FC2 (ff·d+d), 2 LayerNorms (2d each).
	layer := 4*(d*d+d) + (d*ff + ff) + (ff*d + d) + 4*d
	// Heads: MLM dense (d·d+d) + LN (2d) + decoder bias (vocab; the
	// decoder weight is tied to the token embedding) + pooler (d·d+d) +
	// NSP classifier (2d+2).
	heads := (d*d + d) + 2*d + vocab + (d*d + d) + (2*d + 2)
	return emb + int64(c.NumLayers)*layer + heads
}
