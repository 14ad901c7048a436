package main

import (
	"fmt"
	"math"
	"slices"

	"demystbert/internal/nn"
	"demystbert/internal/serve"
)

// countNonFinite returns how many losses are NaN or infinite.
func countNonFinite(losses []float64) int {
	n := 0
	for _, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			n++
		}
	}
	return n
}

// paramsEqual reports the first difference between two parameter lists:
// names, shapes, or any value's bit pattern.
func paramsEqual(a, b []*nn.Param) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d params vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			return fmt.Errorf("param %d named %q vs %q", i, a[i].Name, b[i].Name)
		}
		da, db := a[i].Value.Data(), b[i].Value.Data()
		if !slices.Equal(a[i].Value.Shape(), b[i].Value.Shape()) {
			return fmt.Errorf("param %s shape %v vs %v", a[i].Name, a[i].Value.Shape(), b[i].Value.Shape())
		}
		for j := range da {
			if math.Float32bits(da[j]) != math.Float32bits(db[j]) {
				return fmt.Errorf("param %s element %d: %g vs %g", a[i].Name, j, da[j], db[j])
			}
		}
	}
	return nil
}

// predictionsMatch compares a served response with the tokens a serial
// PredictMaskedAt chose at the request's mask positions.
func predictionsMatch(got []serve.Prediction, positions, want []int) error {
	if len(got) != len(positions) || len(want) != len(positions) {
		return fmt.Errorf("%d predictions served, %d serial, for %d masks", len(got), len(want), len(positions))
	}
	for i, p := range got {
		if p.Pos != positions[i] {
			return fmt.Errorf("prediction %d at position %d, mask is at %d", i, p.Pos, positions[i])
		}
		if p.Token != want[i] {
			return fmt.Errorf("position %d: served token %d, serial token %d", p.Pos, p.Token, want[i])
		}
	}
	return nil
}

// accountingHolds checks that every request sent had exactly one outcome.
func accountingHolds(sent, ok, rejected, failed int) error {
	if sent != ok+rejected+failed {
		return fmt.Errorf("sent %d != ok %d + rejected %d + failed %d", sent, ok, rejected, failed)
	}
	return nil
}

// errIf returns a formatted error when cond holds.
func errIf(cond bool, format string, args ...any) error {
	if cond {
		return fmt.Errorf(format, args...)
	}
	return nil
}
