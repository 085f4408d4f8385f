#include "common/libm_exp.hpp"

#include <bit>
#include <cmath>

#if defined(__x86_64__) && defined(__GLIBC__)
#include <immintrin.h>
#endif

#include "common/contracts.hpp"

namespace tscclock {

namespace {

// 2^(k/128) for k = 0..127 as {tail, scale bits} word pairs: exp_data.c of
// ARM optimized-routines, the `__exp_data.tab` shared by glibc (≥ 2.28) and
// musl. The words were read from this layout in glibc 2.36's libm.so.6, not
// regenerated: a fresh evaluation in another multiprecision library gets
// some tail words 1 ulp off, and then the results are no longer libm's.
constexpr std::uint64_t kTable[256] = {
    0x0000000000000000, 0x3ff0000000000000,
    0x3c9b3b4f1a88bf6e, 0x3feff63da9fb3335,
    0xbc7160139cd8dc5d, 0x3fefec9a3e778061,
    0xbc905e7a108766d1, 0x3fefe315e86e7f85,
    0x3c8cd2523567f613, 0x3fefd9b0d3158574,
    0xbc8bce8023f98efa, 0x3fefd06b29ddf6de,
    0x3c60f74e61e6c861, 0x3fefc74518759bc8,
    0x3c90a3e45b33d399, 0x3fefbe3ecac6f383,
    0x3c979aa65d837b6d, 0x3fefb5586cf9890f,
    0x3c8eb51a92fdeffc, 0x3fefac922b7247f7,
    0x3c3ebe3d702f9cd1, 0x3fefa3ec32d3d1a2,
    0xbc6a033489906e0b, 0x3fef9b66affed31b,
    0xbc9556522a2fbd0e, 0x3fef9301d0125b51,
    0xbc5080ef8c4eea55, 0x3fef8abdc06c31cc,
    0xbc91c923b9d5f416, 0x3fef829aaea92de0,
    0x3c80d3e3e95c55af, 0x3fef7a98c8a58e51,
    0xbc801b15eaa59348, 0x3fef72b83c7d517b,
    0xbc8f1ff055de323d, 0x3fef6af9388c8dea,
    0x3c8b898c3f1353bf, 0x3fef635beb6fcb75,
    0xbc96d99c7611eb26, 0x3fef5be084045cd4,
    0x3c9aecf73e3a2f60, 0x3fef54873168b9aa,
    0xbc8fe782cb86389d, 0x3fef4d5022fcd91d,
    0x3c8a6f4144a6c38d, 0x3fef463b88628cd6,
    0x3c807a05b0e4047d, 0x3fef3f49917ddc96,
    0x3c968efde3a8a894, 0x3fef387a6e756238,
    0x3c875e18f274487d, 0x3fef31ce4fb2a63f,
    0x3c80472b981fe7f2, 0x3fef2b4565e27cdd,
    0xbc96b87b3f71085e, 0x3fef24dfe1f56381,
    0x3c82f7e16d09ab31, 0x3fef1e9df51fdee1,
    0xbc3d219b1a6fbffa, 0x3fef187fd0dad990,
    0x3c8b3782720c0ab4, 0x3fef1285a6e4030b,
    0x3c6e149289cecb8f, 0x3fef0cafa93e2f56,
    0x3c834d754db0abb6, 0x3fef06fe0a31b715,
    0x3c864201e2ac744c, 0x3fef0170fc4cd831,
    0x3c8fdd395dd3f84a, 0x3feefc08b26416ff,
    0xbc86a3803b8e5b04, 0x3feef6c55f929ff1,
    0xbc924aedcc4b5068, 0x3feef1a7373aa9cb,
    0xbc9907f81b512d8e, 0x3feeecae6d05d866,
    0xbc71d1e83e9436d2, 0x3feee7db34e59ff7,
    0xbc991919b3ce1b15, 0x3feee32dc313a8e5,
    0x3c859f48a72a4c6d, 0x3feedea64c123422,
    0xbc9312607a28698a, 0x3feeda4504ac801c,
    0xbc58a78f4817895b, 0x3feed60a21f72e2a,
    0xbc7c2c9b67499a1b, 0x3feed1f5d950a897,
    0x3c4363ed60c2ac11, 0x3feece086061892d,
    0x3c9666093b0664ef, 0x3feeca41ed1d0057,
    0x3c6ecce1daa10379, 0x3feec6a2b5c13cd0,
    0x3c93ff8e3f0f1230, 0x3feec32af0d7d3de,
    0x3c7690cebb7aafb0, 0x3feebfdad5362a27,
    0x3c931dbdeb54e077, 0x3feebcb299fddd0d,
    0xbc8f94340071a38e, 0x3feeb9b2769d2ca7,
    0xbc87deccdc93a349, 0x3feeb6daa2cf6642,
    0xbc78dec6bd0f385f, 0x3feeb42b569d4f82,
    0xbc861246ec7b5cf6, 0x3feeb1a4ca5d920f,
    0x3c93350518fdd78e, 0x3feeaf4736b527da,
    0x3c7b98b72f8a9b05, 0x3feead12d497c7fd,
    0x3c9063e1e21c5409, 0x3feeab07dd485429,
    0x3c34c7855019c6ea, 0x3feea9268a5946b7,
    0x3c9432e62b64c035, 0x3feea76f15ad2148,
    0xbc8ce44a6199769f, 0x3feea5e1b976dc09,
    0xbc8c33c53bef4da8, 0x3feea47eb03a5585,
    0xbc845378892be9ae, 0x3feea34634ccc320,
    0xbc93cedd78565858, 0x3feea23882552225,
    0x3c5710aa807e1964, 0x3feea155d44ca973,
    0xbc93b3efbf5e2228, 0x3feea09e667f3bcd,
    0xbc6a12ad8734b982, 0x3feea012750bdabf,
    0xbc6367efb86da9ee, 0x3fee9fb23c651a2f,
    0xbc80dc3d54e08851, 0x3fee9f7df9519484,
    0xbc781f647e5a3ecf, 0x3fee9f75e8ec5f74,
    0xbc86ee4ac08b7db0, 0x3fee9f9a48a58174,
    0xbc8619321e55e68a, 0x3fee9feb564267c9,
    0x3c909ccb5e09d4d3, 0x3feea0694fde5d3f,
    0xbc7b32dcb94da51d, 0x3feea11473eb0187,
    0x3c94ecfd5467c06b, 0x3feea1ed0130c132,
    0x3c65ebe1abd66c55, 0x3feea2f336cf4e62,
    0xbc88a1c52fb3cf42, 0x3feea427543e1a12,
    0xbc9369b6f13b3734, 0x3feea589994cce13,
    0xbc805e843a19ff1e, 0x3feea71a4623c7ad,
    0xbc94d450d872576e, 0x3feea8d99b4492ed,
    0x3c90ad675b0e8a00, 0x3feeaac7d98a6699,
    0x3c8db72fc1f0eab4, 0x3feeace5422aa0db,
    0xbc65b6609cc5e7ff, 0x3feeaf3216b5448c,
    0x3c7bf68359f35f44, 0x3feeb1ae99157736,
    0xbc93091fa71e3d83, 0x3feeb45b0b91ffc6,
    0xbc5da9b88b6c1e29, 0x3feeb737b0cdc5e5,
    0xbc6c23f97c90b959, 0x3feeba44cbc8520f,
    0xbc92434322f4f9aa, 0x3feebd829fde4e50,
    0xbc85ca6cd7668e4b, 0x3feec0f170ca07ba,
    0x3c71affc2b91ce27, 0x3feec49182a3f090,
    0x3c6dd235e10a73bb, 0x3feec86319e32323,
    0xbc87c50422622263, 0x3feecc667b5de565,
    0x3c8b1c86e3e231d5, 0x3feed09bec4a2d33,
    0xbc91bbd1d3bcbb15, 0x3feed503b23e255d,
    0x3c90cc319cee31d2, 0x3feed99e1330b358,
    0x3c8469846e735ab3, 0x3feede6b5579fdbf,
    0xbc82dfcd978e9db4, 0x3feee36bbfd3f37a,
    0x3c8c1a7792cb3387, 0x3feee89f995ad3ad,
    0xbc907b8f4ad1d9fa, 0x3feeee07298db666,
    0xbc55c3d956dcaeba, 0x3feef3a2b84f15fb,
    0xbc90a40e3da6f640, 0x3feef9728de5593a,
    0xbc68d6f438ad9334, 0x3feeff76f2fb5e47,
    0xbc91eee26b588a35, 0x3fef05b030a1064a,
    0x3c74ffd70a5fddcd, 0x3fef0c1e904bc1d2,
    0xbc91bdfbfa9298ac, 0x3fef12c25bd71e09,
    0x3c736eae30af0cb3, 0x3fef199bdd85529c,
    0x3c8ee3325c9ffd94, 0x3fef20ab5fffd07a,
    0x3c84e08fd10959ac, 0x3fef27f12e57d14b,
    0x3c63cdaf384e1a67, 0x3fef2f6d9406e7b5,
    0x3c676b2c6c921968, 0x3fef3720dcef9069,
    0xbc808a1883ccb5d2, 0x3fef3f0b555dc3fa,
    0xbc8fad5d3ffffa6f, 0x3fef472d4a07897c,
    0xbc900dae3875a949, 0x3fef4f87080d89f2,
    0x3c74a385a63d07a7, 0x3fef5818dcfba487,
    0xbc82919e2040220f, 0x3fef60e316c98398,
    0x3c8e5a50d5c192ac, 0x3fef69e603db3285,
    0x3c843a59ac016b4b, 0x3fef7321f301b460,
    0xbc82d52107b43e1f, 0x3fef7c97337b9b5f,
    0xbc892ab93b470dc9, 0x3fef864614f5a129,
    0x3c74b604603a88d3, 0x3fef902ee78b3ff6,
    0x3c83c5ec519d7271, 0x3fef9a51fbc74c83,
    0xbc8ff7128fd391f0, 0x3fefa4afa2a490da,
    0xbc8dae98e223747d, 0x3fefaf482d8e67f1,
    0x3c8ec3bc41aa2008, 0x3fefba1bee615a27,
    0x3c842b94c3a9eb32, 0x3fefc52b376bba97,
    0x3c8a64a931d185ee, 0x3fefd0765b6e4540,
    0xbc8e37bae43be3ed, 0x3fefdbfdad9cbe14,
    0x3c77893b4d91cd9d, 0x3fefe7c1819e90d8,
    0x3c5305c14160cc89, 0x3feff3c22b8f71f1,
};

// The __exp_data constants (N = 128): N/ln2, −ln2/N split in a high part
// with trailing zero bits and a low part, the round-to-int shift 1.5·2^52,
// and the polynomial coefficients C2..C5 of exp(r) − 1 − r.
constexpr double kInvLn2N = 0x1.71547652b82fep7;
constexpr double kNegLn2HiN = -0x1.62e42fefa0000p-8;
constexpr double kNegLn2LoN = -0x1.cf79abc9e3b3ap-47;
constexpr double kShift = 0x1.8p52;
constexpr double kC2 = 0x1.ffffffffffdbdp-2;
constexpr double kC3 = 0x1.555555555543cp-3;
constexpr double kC4 = 0x1.55555cf172b91p-5;
constexpr double kC5 = 0x1.1111167a4d017p-7;

// Probe inputs: the first 20 are inputs where evaluating the kernel without
// fused operations rounds differently from glibc's __exp_fma (found by a
// seeded search over [−30, 0], [−1, 1] and [−512, 512]); the rest are the
// edges of the main path and exact powers of two.
constexpr double kProbes[] = {
    -0x1.60b2f4eaed06cp+4, -0x1.20e71c7365946p+4, -0x1.cbb3ff6721649p+4,
    -0x1.075646f9be563p+4, -0x1.2c155ad67fa24p+4, -0x1.945b6a8a789p-4,
    -0x1.5818df55d8d9ap+4, -0x1.4320d5f0e6b25p+4, -0x1.593a7d694a3d6p+3,
    -0x1.3835495b4fc36p+3, -0x1.c7b9b177fb18dp+4, -0x1.907300c2deef8p+4,
    0x1.bcaf3626b05d6p-1,  0x1.a1d979c89abap-3,   -0x1.73e05c3813accp-3,
    0x1.72bcc4e6d098p-3,   -0x1.d809ded5d0381p-1, -0x1.d06cefad14dep+7,
    0x1.9bef1fec8a4d8p+6,  -0x1.56b64558debe6p+7, 0x1p-54,
    -0x1p-1,               0x1p+0,                -0x1.fffffffffffffp+8,
};

/// True when glibc's __exp takes its main path for x: 2^-54 ≤ |x| < 512.
/// Compares the biased exponent like glibc does (top12(0x1p-54) = 0x3c9,
/// top12(512) = 0x408), so NaN, ±∞ and ±0 are outside.
inline bool on_main_path(double x) {
  const auto abstop =
      static_cast<std::uint32_t>(std::bit_cast<std::uint64_t>(x) >> 52) &
      0x7ffu;
  return abstop - 0x3c9u < 0x408u - 0x3c9u;
}

#if defined(__x86_64__) && defined(__GLIBC__)

/// glibc's __exp main path as its __exp_fma build computes it. The compiler
/// contracts each product that feeds a single sum into an fma there; the
/// same operations are spelled out here, and this file is compiled with
/// -ffp-contract=off so that nothing else is fused.
__attribute__((target("fma"))) inline double exp_kernel(double x) {
  // x = k·ln2/N + r with |r| ≤ ln2/2N; kd + shift rounds k to an integer.
  double kd = __builtin_fma(kInvLn2N, x, kShift);
  const std::uint64_t ki = std::bit_cast<std::uint64_t>(kd);
  kd -= kShift;
  double r = __builtin_fma(kd, kNegLn2HiN, x);
  r = __builtin_fma(kd, kNegLn2LoN, r);
  // 2^(k/N) ≈ scale·(1 + tail).
  const std::uint64_t idx = 2 * (ki % 128);
  const std::uint64_t top = ki << 45;
  const double tail = std::bit_cast<double>(kTable[idx]);
  const double scale = std::bit_cast<double>(kTable[idx + 1] + top);
  // exp(x) ≈ scale + scale·(tail + exp(r) − 1).
  const double r2 = r * r;
  double tmp = __builtin_fma(r2, __builtin_fma(r, kC3, kC2), tail + r);
  tmp = __builtin_fma(r2 * r2, __builtin_fma(r, kC5, kC4), tmp);
  return __builtin_fma(scale, tmp, scale);
}

/// exp off the main path. A finite x ≤ −1024 and −∞ are +0.0, what glibc
/// returns there (through __math_uflow(0), which also sets errno; this does
/// not); everything else is std::exp.
inline double exp_off_main_path(double x) {
  return x <= -1024.0 ? 0.0 : std::exp(x);
}

/// exp_kernel on four lanes: the same fused operations, one per lane, and
/// the same table words fetched by gather, so every lane is the double the
/// scalar kernel gives.
__attribute__((target("avx2,fma"))) inline __m256d exp_kernel4(__m256d x) {
  const __m256d shift = _mm256_set1_pd(kShift);
  __m256d kd = _mm256_fmadd_pd(_mm256_set1_pd(kInvLn2N), x, shift);
  const __m256i ki = _mm256_castpd_si256(kd);
  kd = _mm256_sub_pd(kd, shift);
  __m256d r = _mm256_fmadd_pd(kd, _mm256_set1_pd(kNegLn2HiN), x);
  r = _mm256_fmadd_pd(kd, _mm256_set1_pd(kNegLn2LoN), r);
  const __m256i idx =
      _mm256_slli_epi64(_mm256_and_si256(ki, _mm256_set1_epi64x(127)), 1);
  const __m256i top = _mm256_slli_epi64(ki, 45);
  const auto* words = reinterpret_cast<const long long*>(kTable);
  const __m256d tail =
      _mm256_castsi256_pd(_mm256_i64gather_epi64(words, idx, 8));
  const __m256d scale = _mm256_castsi256_pd(
      _mm256_add_epi64(_mm256_i64gather_epi64(words + 1, idx, 8), top));
  const __m256d r2 = _mm256_mul_pd(r, r);
  __m256d tmp = _mm256_fmadd_pd(
      r2, _mm256_fmadd_pd(r, _mm256_set1_pd(kC3), _mm256_set1_pd(kC2)),
      _mm256_add_pd(tail, r));
  tmp = _mm256_fmadd_pd(
      _mm256_mul_pd(r2, r2),
      _mm256_fmadd_pd(r, _mm256_set1_pd(kC5), _mm256_set1_pd(kC4)), tmp);
  return _mm256_fmadd_pd(scale, tmp, scale);
}

/// Four lanes at a time, then one at a time for the last n % 4. Lanes off
/// the main path are fixed up one by one: ≤ −1024 (the common case in the
/// smoother's windows) by a mask, the rest by std::exp on the input saved
/// before the block is stored, so `out` may alias `x`.
__attribute__((target("avx2,fma"))) void exp_kernel_batch(const double* x,
                                                           double* out,
                                                           std::size_t n) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d tiny = _mm256_set1_pd(0x1p-54);
  const __m256d huge = _mm256_set1_pd(512.0);
  const __m256d uflow = _mm256_set1_pd(-1024.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    __m256d e = exp_kernel4(v);
    const __m256d a = _mm256_andnot_pd(sign, v);
    const int main = _mm256_movemask_pd(
        _mm256_and_pd(_mm256_cmp_pd(a, tiny, _CMP_GE_OQ),
                      _mm256_cmp_pd(a, huge, _CMP_LT_OQ)));
    if (main != 0xF) {
      const __m256d zero = _mm256_cmp_pd(v, uflow, _CMP_LE_OQ);
      e = _mm256_andnot_pd(zero, e);
      const int rest = ~(main | _mm256_movemask_pd(zero)) & 0xF;
      if (rest != 0) {
        alignas(32) double in[4];
        alignas(32) double res[4];
        _mm256_store_pd(in, v);
        _mm256_store_pd(res, e);
        for (int lane = 0; lane < 4; ++lane)
          if (rest >> lane & 1) res[lane] = std::exp(in[lane]);
        e = _mm256_load_pd(res);
      }
    }
    _mm256_storeu_pd(out + i, e);
  }
  for (; i < n; ++i) {
    const double v = x[i];
    out[i] = on_main_path(v) ? exp_kernel(v) : exp_off_main_path(v);
  }
}

/// std::exp on a value the compiler cannot see, so the call is not folded
/// into a correctly rounded constant at compile time.
double runtime_exp(double x) {
  volatile double v = x;
  return std::exp(v);
}

bool select_kernel() {
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("fma") || !__builtin_cpu_supports("avx2"))
    return false;
  const auto agrees = [](double x) {
    return std::bit_cast<std::uint64_t>(exp_kernel(x)) ==
           std::bit_cast<std::uint64_t>(runtime_exp(x));
  };
  for (const double x : kProbes)
    if (!agrees(x)) return false;
  // One input at each slot centre, x = −k·ln2/N for k = 1..N: r is tiny
  // there, so the result is the slot's scale word rounded with a tiny
  // correction, and a libm with another table (or a committed scale word
  // off by one) disagrees.
  for (int k = 1; k <= 128; ++k)
    if (!agrees(-k / kInvLn2N)) return false;
  return true;
}

#else

bool select_kernel() { return false; }

#endif

}  // namespace

bool exp_kernel_selected() {
  static const bool selected = select_kernel();
  return selected;
}

void exp_batch(std::span<const double> x, std::span<double> out) {
  TSC_EXPECTS(out.size() == x.size());
#if defined(__x86_64__) && defined(__GLIBC__)
  if (exp_kernel_selected()) {
    exp_kernel_batch(x.data(), out.data(), x.size());
    return;
  }
#endif
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = std::exp(x[i]);
}

namespace exp_detail {

std::span<const std::uint64_t> table() { return kTable; }

std::span<const double> constants() {
  static constexpr double kConstants[] = {kInvLn2N, kNegLn2HiN, kNegLn2LoN,
                                          kShift,   kC2,        kC3,
                                          kC4,      kC5};
  return kConstants;
}

std::span<const double> probes() { return kProbes; }

}  // namespace exp_detail

}  // namespace tscclock
