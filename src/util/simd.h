// simd.h — runtime SIMD instruction-set dispatch.
//
// The hot loops — the brush-overlap query kernel and the CPU
// rasterizer's kernels (span fill/blend/blit, thick-line pixel walk) —
// ship scalar, SSE2 and AVX2 implementations; the thick-line walk has no
// SSE2 one and runs scalar there (render/kernels.h). The shard checksum
// (io::crc32c, util/io.h) runs SSE4.2's crc32 instruction when the
// active ISA is not scalar and the CPU has SSE4.2, else its byte-wise
// table. This module picks one instruction set ONCE at startup so the
// kernels branch on a cached enum, never on cpuid, inside the loop.
//
// Contract: every SIMD variant is bit-identical to its scalar fallback
// (for the checksum: the same CRC for every input and running value).
// The determinism gates (1/4/8-thread, delta-on/off, TSan, content-hash
// golden tests) rely on this — a vectorized kernel is an optimization,
// never an observable behaviour change. The kernel fuzz tests
// (tests/simd_kernel_test.cpp) enforce it on random spans.
//
// Override: set SVQ_FORCE_SCALAR=1 in the environment to pin every kernel,
// the checksum included, to the scalar path regardless of hardware (used
// by the forced-scalar CI leg and for A/B ratio benchmarks).
#pragma once

namespace svq::util {

/// Instruction sets the kernels are compiled for, in preference order.
enum class Isa {
  kScalar = 0,
  kSse2,
  kAvx2,
};

/// Best instruction set the running CPU supports (ignores the override).
Isa detectIsa();

/// Instruction set the kernels actually use: detectIsa() unless
/// SVQ_FORCE_SCALAR is set to anything but "" or "0". Detected once,
/// cached, thread-safe.
Isa activeIsa();

const char* toString(Isa isa);

}  // namespace svq::util
