package model

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Checkpoint format: a little-endian binary stream with a magic header,
// the model configuration, and every parameter tensor (name, shape,
// float32 data) in Params() order. The tied MLM decoder weight is stored
// once, under the embedding.
const (
	checkpointMagic   = 0x42455254 // "BERT"
	checkpointVersion = 1
)

// ioChunkBytes is the size of the staging buffer through which parameter
// data is encoded and decoded. It is fixed, not sized to the tensor, so
// checkpoint I/O adds the same bounded 64 KiB to memory for every model.
const ioChunkBytes = 64 << 10

// Save writes the model's configuration and parameters to w.
func (m *BERT) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, m.Config); err != nil {
		return err
	}
	chunk := make([]byte, ioChunkBytes)
	for _, p := range m.Params() {
		if err := writeString(bw, p.Name); err != nil {
			return err
		}
		shape := p.Value.Shape()
		if err := binary.Write(bw, binary.LittleEndian, int32(len(shape))); err != nil {
			return err
		}
		for _, d := range shape {
			if err := binary.Write(bw, binary.LittleEndian, int32(d)); err != nil {
				return err
			}
		}
		if err := writeFloats(bw, p.Value.Data(), chunk); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load constructs a model from a checkpoint written by Save. The
// checkpoint's configuration takes precedence; parameter names and shapes
// are verified against the freshly built model.
func Load(r io.Reader) (*BERT, error) {
	br := bufio.NewReader(r)
	cfg, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	m, err := New(cfg, 0)
	if err != nil {
		return nil, fmt.Errorf("model: checkpoint config invalid: %w", err)
	}
	if err := m.readParams(br); err != nil {
		return nil, err
	}
	return m, nil
}

// LoadParams restores a checkpoint written by Save into the receiver —
// the resume path for a model that has already trained. The checkpoint's
// configuration must equal the model's. Every parameter's pack-cache
// generation is bumped, so pre-packed GEMM panels built from the
// pre-restore weights are invalidated and the next step repacks from the
// restored values instead of silently reusing stale weights.
func (m *BERT) LoadParams(r io.Reader) error {
	br := bufio.NewReader(r)
	cfg, err := readHeader(br)
	if err != nil {
		return err
	}
	if cfg != m.Config {
		return fmt.Errorf("model: checkpoint config %+v does not match model config %+v", cfg, m.Config)
	}
	return m.readParams(br)
}

// readParams reads the parameter stream of a checkpoint into the model's
// existing tensors, verifying names and shapes in Params() order.
func (m *BERT) readParams(br *bufio.Reader) error {
	chunk := make([]byte, ioChunkBytes)
	for _, p := range m.Params() {
		name, err := readString(br)
		if err != nil {
			return fmt.Errorf("model: reading parameter name: %w", err)
		}
		if name != p.Name {
			return fmt.Errorf("model: checkpoint parameter %q, want %q (order mismatch)", name, p.Name)
		}
		var rank int32
		if err := binary.Read(br, binary.LittleEndian, &rank); err != nil {
			return err
		}
		if int(rank) != p.Value.Rank() {
			return fmt.Errorf("model: %s rank %d, want %d", name, rank, p.Value.Rank())
		}
		for i := 0; i < int(rank); i++ {
			var d int32
			if err := binary.Read(br, binary.LittleEndian, &d); err != nil {
				return err
			}
			if int(d) != p.Value.Dim(i) {
				return fmt.Errorf("model: %s dim %d is %d, want %d", name, i, d, p.Value.Dim(i))
			}
		}
		if err := readFloats(br, p.Value.Data(), chunk); err != nil {
			return fmt.Errorf("model: reading %s data: %w", name, err)
		}
		// Invalidate any packed-weight panels built from the pre-restore
		// values — a resumed run must repack from the loaded weights.
		p.BumpGen()
	}
	return nil
}

// checkpointHeaderBytes is the v1 header: nine int32 fields (magic,
// version, Vocab, MaxPos, NumLayers, DModel, Heads, DFF, flags) and the
// float32 DropProb, all little-endian.
const checkpointHeaderBytes = 40

func writeHeader(w io.Writer, cfg Config) error {
	var flags int32
	if cfg.Causal {
		flags |= 1
	}
	if cfg.FusedAttention {
		flags |= 2
	}
	fields := [9]int32{
		checkpointMagic, checkpointVersion,
		int32(cfg.Vocab), int32(cfg.MaxPos), int32(cfg.NumLayers),
		int32(cfg.DModel), int32(cfg.Heads), int32(cfg.DFF), flags,
	}
	var hdr [checkpointHeaderBytes]byte
	for i, f := range fields {
		binary.LittleEndian.PutUint32(hdr[4*i:], uint32(f))
	}
	binary.LittleEndian.PutUint32(hdr[36:], math.Float32bits(cfg.DropProb))
	_, err := w.Write(hdr[:])
	return err
}

func readHeader(r io.Reader) (Config, error) {
	var hdr [checkpointHeaderBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Config{}, fmt.Errorf("model: reading checkpoint header: %w", err)
	}
	var fields [9]int32
	for i := range fields {
		fields[i] = int32(binary.LittleEndian.Uint32(hdr[4*i:]))
	}
	if fields[0] != checkpointMagic {
		return Config{}, fmt.Errorf("model: not a checkpoint (magic %#x)", fields[0])
	}
	if fields[1] != checkpointVersion {
		return Config{}, fmt.Errorf("model: unsupported checkpoint version %d", fields[1])
	}
	cfg := Config{
		Vocab:          int(fields[2]),
		MaxPos:         int(fields[3]),
		NumLayers:      int(fields[4]),
		DModel:         int(fields[5]),
		Heads:          int(fields[6]),
		DFF:            int(fields[7]),
		Causal:         fields[8]&1 != 0,
		FusedAttention: fields[8]&2 != 0,
		DropProb:       math.Float32frombits(binary.LittleEndian.Uint32(hdr[36:])),
	}
	if err := checkHeaderBounds(cfg); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Bounds a checkpoint header must meet before Load allocates the model it
// describes. Every dimension is at most maxCheckpointDim, so the
// parameter count cannot overflow; the layer count is at most
// maxCheckpointLayers, since each layer carries fixed per-object overhead
// the count does not show; and the model has at most maxCheckpointParams
// parameters, 2^31: over six times BERT-Large's 3.4e8 and above every
// preset in config.go.
const (
	maxCheckpointDim    = 1 << 24
	maxCheckpointLayers = 1 << 10
	maxCheckpointParams = 1 << 31
)

func checkHeaderBounds(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("model: checkpoint config invalid: %w", err)
	}
	for _, d := range []int{cfg.Vocab, cfg.MaxPos, cfg.DModel, cfg.Heads, cfg.DFF} {
		if d > maxCheckpointDim {
			return fmt.Errorf("model: checkpoint dimension %d above the %d bound (%+v)", d, maxCheckpointDim, cfg)
		}
	}
	if cfg.NumLayers > maxCheckpointLayers {
		return fmt.Errorf("model: checkpoint has %d layers, above the %d bound", cfg.NumLayers, maxCheckpointLayers)
	}
	if n := cfg.paramCount64(); n > maxCheckpointParams {
		return fmt.Errorf("model: checkpoint implies %d parameters, above the %d bound (%+v)", n, int64(maxCheckpointParams), cfg)
	}
	return nil
}

// writeFloats encodes data as little-endian float32 bits, staging at most
// len(chunk) bytes at a time.
func writeFloats(w io.Writer, data []float32, chunk []byte) error {
	for len(data) > 0 {
		n := min(len(data), len(chunk)/4)
		for i, v := range data[:n] {
			binary.LittleEndian.PutUint32(chunk[4*i:], math.Float32bits(v))
		}
		if _, err := w.Write(chunk[:4*n]); err != nil {
			return err
		}
		data = data[n:]
	}
	return nil
}

// readFloats fills data from little-endian float32 bits, staging at most
// len(chunk) bytes at a time.
func readFloats(r io.Reader, data []float32, chunk []byte) error {
	for len(data) > 0 {
		n := min(len(data), len(chunk)/4)
		if _, err := io.ReadFull(r, chunk[:4*n]); err != nil {
			return err
		}
		for i := range data[:n] {
			data[i] = math.Float32frombits(binary.LittleEndian.Uint32(chunk[4*i:]))
		}
		data = data[n:]
	}
	return nil
}

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, int32(len(s))); err != nil {
		return err
	}
	_, err := w.Write([]byte(s))
	return err
}

func readString(r io.Reader) (string, error) {
	var n int32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n < 0 || n > 1<<16 {
		return "", fmt.Errorf("model: implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
