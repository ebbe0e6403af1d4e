# Convenience targets; `make check` is the pre-commit gate.

.PHONY: all check test bench-smoke clean

all:
	dune build

check:
	dune build && dune runtest

test:
	dune runtest

# Three same-process speed ratios, each with its own threshold: fused
# cofactor sweep vs two subset queries (p50/p99 <= 1.5x), telemetry on vs
# off (<= 1.5x), ppsfp W=1 vs W=8 on the no-drop multiplier (> 1.25x).
bench-smoke:
	dune exec bench/smoke.exe

clean:
	dune clean
