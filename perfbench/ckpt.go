package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"demystbert/internal/model"
)

// Each run times at least ckptMinReps save/load round trips, and more
// for small models, until ckptMinBytes have been written; the medians are
// the reported checkpoint times. Many round trips spread the
// measurement over seconds, so a moment of contention on a shared host
// moves one sample rather than the median.
const (
	ckptMinReps  = 7
	ckptMinBytes = 64 << 20
)

// ckptTrace starts the trace ids of checkpoint round trips, clear of the
// step and request ids that count up from 1.
const ckptTrace = 1 << 40

// checkpointRoundTrips saves m with model.Save and loads it back with
// model.Load. The checkpoint goes through memory, so the time is the
// library's encoding and decoding, not the filesystem's writeback. Every
// round trip is an attempted operation; one whose loaded parameters are
// not bitwise equal to m's fails. It reports the median save and load
// times and returns the last loaded model.
func checkpointRoundTrips(o *opts, m *model.BERT) (loaded *model.BERT, err error) {
	var (
		buf          bytes.Buffer
		saves, loads []float64
		failed       int
		written      int64
		firstErr     error
	)
	debug.FreeOSMemory()
	// Round trip 0 is a warm-up: it faults in the heap pages that
	// FreeOSMemory returned, and is checked but not timed.
	for i := 0; i <= ckptMinReps || written < ckptMinBytes; i++ {
		// Each timed call starts from a collected heap, so garbage left
		// by earlier work does not land in one call's time.
		runtime.GC()
		sp := o.spans.start(ckptTrace+uint64(i), 0, "model.Save")
		t0 := time.Now()
		buf.Reset()
		if err := m.Save(&buf); err != nil {
			return nil, fmt.Errorf("saving checkpoint: %w", err)
		}
		dSave := time.Since(t0).Seconds()
		sp.end()

		runtime.GC()
		sp = o.spans.start(ckptTrace+uint64(i), 0, "model.Load")
		t0 = time.Now()
		loaded, err = model.Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return nil, fmt.Errorf("loading checkpoint: %w", err)
		}
		dLoad := time.Since(t0).Seconds()
		sp.end()
		if i > 0 {
			saves, loads = append(saves, dSave), append(loads, dLoad)
			written += int64(buf.Len())
		}
		if err := paramsEqual(m.Params(), loaded.Params()); err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("round trip %d: %w", i, err)
			}
		}
	}
	o.rep.check("ckpt.roundtrips_bitwise_equal", errIf(firstErr != nil, "%d of %d differ; first: %v", failed, len(saves)+1, firstErr))
	o.rep.info("ckpt_bytes", float64(written/int64(len(saves))), "B")
	o.rep.info("ckpt_round_trips", float64(len(saves)), "count")
	o.rep.ops(len(saves)+1, failed)
	o.rep.layerMetric("ckpt_save_s", median(saves), "s")
	o.rep.layerMetric("ckpt_load_s", median(loads), "s")
	return loaded, nil
}
