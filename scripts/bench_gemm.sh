#!/bin/sh
# bench_gemm.sh — run the GEMM benchmarks and emit BENCH_gemm.json with
# per-shape ns/op, GFLOP/s, and allocs/op for the blocked, pre-packed
# (GEMMPacked), naive, and batched (blocked vs per-matrix, Table 2b
# attention shapes n x n x dHead and n x dHead x n at n in {128, 512})
# paths, plus the fused-epilogue FFN tail (unfused kernel chain vs
# bias+GeLU / bias+residual+LayerNorm tile write-back) and the int8
# quantized path against f32 pre-packed on the paper's weight-stationary
# shapes, and the train workload's GeLU forward/backward and LayerNorm
# backward. Uses only the go toolchain and awk (no external deps).
#
# Usage: scripts/bench_gemm.sh [benchtime]   (default 2x per benchmark)
set -eu
cd "$(dirname "$0")/.."

BENCHTIME="${1:-2x}"
OUT=BENCH_gemm.json
RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

go test -run 'xxx' -bench 'GEMMPaperSizes|GEMMInt8PaperSizes|RealGEMM|RealAttentionBGEMM|RealFFN|RealAddBias|RealBiasGrad|RealGeLU|RealLayerNormBackward|Fig6GEMMIntensity' \
	-benchtime "$BENCHTIME" -benchmem . | tee "$RAW"

awk '
BEGIN { n = 0 }
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	ns = ""; gflops = ""; allocs = ""
	for (i = 2; i <= NF; i++) {
		if ($i == "ns/op")     ns = $(i-1)
		if ($i == "GFLOP/s")   gflops = $(i-1)
		if ($i == "allocs/op") allocs = $(i-1)
	}
	if (ns == "") next
	rec = sprintf("    {\"name\": \"%s\", \"ns_per_op\": %s", name, ns)
	if (gflops != "") rec = rec sprintf(", \"gflops\": %s", gflops)
	if (allocs != "") rec = rec sprintf(", \"allocs_per_op\": %s", allocs)
	rec = rec "}"
	recs[n++] = rec
}
END {
	print "{"
	printf "  \"bench\": \"gemm\",\n"
	printf "  \"benchtime\": \"'"$BENCHTIME"'\",\n"
	print "  \"results\": ["
	for (i = 0; i < n; i++) printf "%s%s\n", recs[i], (i < n-1 ? "," : "")
	print "  ]"
	print "}"
}' "$RAW" >"$OUT"

echo "wrote $OUT"
