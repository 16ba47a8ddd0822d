// Runtime kernel dispatch for the SIMD hot paths (GBT histogram scan,
// packed tree traversal, MLP GEMM, and MLP training's weight gradient,
// input gradient and Adam step).
//
// Two tiers exist per kernel: a portable scalar implementation and an
// AVX2 one. Selection is three-layered:
//
//   1. compile time — AVX2 variants are built only when the toolchain
//      targets x86-64 and CMake's IOTAX_ENABLE_AVX2 is ON (the
//      `test-release-nosimd` CI leg turns it off); each variant lives in
//      its own *_avx2.cpp TU compiled with -mavx2 so the rest of the
//      library never emits AVX encodings;
//   2. run time — a CPUID probe (__builtin_cpu_supports) confirms the
//      machine actually executes AVX2 before the tier becomes eligible;
//   3. policy — the IOTAX_KERNELS env var picks scalar|avx2|auto
//      (default auto = fastest eligible tier). Requesting avx2 on a
//      machine or build without it falls back to scalar rather than
//      faulting.
//
// Every AVX2 kernel is bit-identical to its scalar twin by construction:
// lanes only ever carry *independent* accumulators (different rows,
// different bins, different outputs, different weights), so no
// floating-point sum is ever reassociated. The same holds for what a
// sum skips: the training kernels drop a zero delta in both tiers (the
// AVX2 tier by compacting the nonzero ones first), never multiply it
// in. The opt-in IOTAX_FAST_MATH=1 tier relaxes exactly that —
// reassociated reductions and FMA contraction — and is validated by
// tolerance tests instead of byte comparison.
//
// The resolved tier is cached in an atomic after the first query (one
// relaxed load on the hot path). Tests and benches that flip the env
// vars at runtime call refresh() afterwards.
#pragma once

#include <string>

namespace iotax::ml::kernels {

enum class Tier { kScalar = 0, kAvx2 = 1 };

/// The tier kernels dispatch on, per the policy above.
Tier active_tier();

/// True when the opt-in fast-math tier is on (IOTAX_FAST_MATH=1):
/// kernels may reassociate reductions and contract mul+add into FMA.
/// Off (the default) every kernel is bit-identical to scalar.
bool fast_math();

/// True when AVX2 variants were compiled into this binary.
bool avx2_compiled();

/// True when the running CPU reports AVX2 (always false on non-x86).
bool avx2_supported();

/// Re-read IOTAX_KERNELS / IOTAX_FAST_MATH from the environment. Needed
/// only by tests/benches that setenv() mid-process.
void refresh();

/// "scalar" or "avx2".
const char* tier_name(Tier tier);

/// Human-readable dispatch summary for `iotax --version` and logs, e.g.
/// "avx2 (compiled=yes cpu=yes policy=auto fast_math=off)".
std::string describe();

}  // namespace iotax::ml::kernels
