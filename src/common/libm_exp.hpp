// exp(x) over a batch, bit-equal to this process's std::exp and cheaper.
//
// The robust offset filter (paper §5.3) weighs every window entry by
// exp(−z²) on every packet, so one std::exp per entry is a large share of
// the on-line update. On an x86-64 glibc (≥ 2.28) host with FMA and AVX2,
// std::exp resolves through an ifunc to glibc's `__exp_fma`, which is the
// ARM optimized-routines algorithm: a 128-entry table of 2^(k/128), a degree-5
// polynomial and a fixed set of fused multiply-adds. exp_batch evaluates
// that same main path inline — the same table words, the same constants and
// the same fma operations in the same order — so each result is the same
// double, not merely a close one.
//
// Selection is made once per process: the kernel is used only on a glibc
// build, on a CPU with FMA and AVX2 (the condition of glibc's own ifunc),
// and only if std::exp gives exactly the kernel's results on a list of
// embedded probe inputs and on one input at the centre of each table slot.
// The probes include inputs where an unfused evaluation rounds differently
// and the slot centres read every scale word, so a libm that runs another
// variant (no FMA, a tunable that masks it, another algorithm or table) is
// caught and every call falls back to std::exp.
//
// The kernel runs four lanes at a time (AVX2 gathers from the same table,
// the same fused operations per lane, so each lane is the scalar kernel's
// double) and one at a time for the last n % 4 inputs. Lanes outside
// glibc's main path (|x| < 2^-54, |x| ≥ 512, ±∞, NaN) are fixed up one by
// one, so the kernel itself carries no special cases:
//   * a finite x ≤ −1024, or −∞, is +0.0. That is what glibc returns there
//     (__math_uflow(0) for finite x), except that glibc also sets errno to
//     ERANGE and exp_batch leaves errno alone. The smoother's windows hold
//     many such inputs, so they cost a mask, not a call;
//   * everything else, (−1024, −512], tiny inputs, +∞, NaN and x ≥ 512,
//     goes to std::exp.
// A fixed-up lane reads its input before its block is stored, so `out` may
// alias `x`.
//
// The runtime check cannot see everything: a tail word differs from
// another libm's only far below a result's last bit, and for some of the
// fused operations (kd·lo, C4 + r·C5, the r⁴ term) no input is known where
// an unfused evaluation rounds differently. So bit-equality on a given host
// is established by tests/test_libm_exp.cpp run against that host's libm:
// it compares all 256 table words and the constants with the loaded
// libm's, and millions of inputs with std::exp.
#pragma once

#include <cstdint>
#include <span>

namespace tscclock {

/// out[i] = std::exp(x[i]) for every i, bit for bit (errno aside: see
/// above). `out` must be as long as `x`; it may be the same array.
void exp_batch(std::span<const double> x, std::span<double> out);

/// Whether exp_batch runs the in-repo kernel; false means every element is a
/// std::exp call.
[[nodiscard]] bool exp_kernel_selected();

namespace exp_detail {

/// The 2·128 table words (tail, scale bits per slot) the kernel reads.
[[nodiscard]] std::span<const std::uint64_t> table();

/// The kernel's other constants: N/ln2, −ln2/N (high, low), the rounding
/// shift and the polynomial coefficients C2..C5.
[[nodiscard]] std::span<const double> constants();

/// The inputs whose std::exp results must match before the kernel is used.
[[nodiscard]] std::span<const double> probes();

}  // namespace exp_detail

}  // namespace tscclock
