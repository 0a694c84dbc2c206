#!/usr/bin/env bash
# Usage: no_weak_kernels_test.sh <nm> <libdpjl_linalg.a>
#
# Fails if kernels_avx2.cc.o or kernels_avx512.cc.o defines a weak symbol
# (nm type W or V). Both objects compile the same lane-generic bodies from
# src/linalg/kernels_simd.h, each for its own ISA; a weak definition is a
# COMDAT the linker may fold across the two, handing one ISA's code to both
# kernel tables.
set -euo pipefail

nm_tool=$1
lib=$2

symbols=$("$nm_tool" -A -C --defined-only "$lib")
kernel_symbols=$(grep -E 'kernels_avx(2|512)\.cc\.o:' <<<"$symbols" || true)
if [[ -z "$kernel_symbols" ]]; then
  echo "FAIL: no kernels_avx2.cc.o / kernels_avx512.cc.o symbols in $lib"
  exit 1
fi
# nm -A prints "<archive>:<member>:<address> <type> <name>". DW.ref.* is
# the compiler's pointer to the C++ personality routine, emitted weak in
# any object with unwind cleanups (sanitizer instrumentation adds them); it
# holds the same address everywhere, so folding it is harmless.
weak=$(awk '($2 == "W" || $2 == "V") && $3 !~ /^DW\.ref\./' \
  <<<"$kernel_symbols")
if [[ -n "$weak" ]]; then
  echo "FAIL: weak symbols in the per-ISA kernel objects:"
  echo "$weak"
  exit 1
fi
echo "OK: $(wc -l <<<"$kernel_symbols") kernel-object symbols, none weak"
