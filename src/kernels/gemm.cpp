#include "kernels/gemm.h"

namespace kernels {

namespace cpublas {

void Sgemm(const float* a, const float* b, float* c, GemmShape s) {
  CERTKIT_CHECK(s.m > 0 && s.n > 0 && s.k > 0);
  // Deliberately the textbook i-j-k loop: single-threaded with a stride-N
  // inner access pattern. This is the "CPU library" reference point whose
  // gap to the device kernels Figure 7 reports.
  for (int i = 0; i < s.m; ++i) {
    for (int j = 0; j < s.n; ++j) {
      float acc = 0.0f;
      for (int kk = 0; kk < s.k; ++kk) {
        acc += a[static_cast<std::size_t>(i) * s.k + kk] *
               b[static_cast<std::size_t>(kk) * s.n + j];
      }
      c[static_cast<std::size_t>(i) * s.n + j] = acc;
    }
  }
}

}  // namespace cpublas

namespace micro {

void GemmS16S32DotT(const std::int16_t* a, const std::int16_t* bt,
                    std::int32_t* c, GemmShape s) {
  CERTKIT_CHECK(s.m > 0 && s.n > 0 && s.k > 0);
  const int m = s.m, n = s.n, k = s.k;
  // 2×2 register tile of K-contiguous dot products: each accumulator is a
  // PMADDWD partial-sum vector, each loaded A/B K-slice feeds two products.
  int i = 0;
  for (; i + 2 <= m; i += 2) {
    const std::int16_t* a0 = a + static_cast<std::size_t>(i) * k;
    const std::int16_t* a1 = a0 + k;
    std::int32_t* c0 = c + static_cast<std::size_t>(i) * n;
    std::int32_t* c1 = c0 + n;
    int j = 0;
    for (; j + 2 <= n; j += 2) {
      const std::int16_t* b0 = bt + static_cast<std::size_t>(j) * k;
      const std::int16_t* b1 = b0 + k;
      std::int32_t acc00 = 0, acc01 = 0, acc10 = 0, acc11 = 0;
      for (int kk = 0; kk < k; ++kk) {
        const std::int32_t av0 = a0[kk], av1 = a1[kk];
        acc00 += av0 * b0[kk];
        acc01 += av0 * b1[kk];
        acc10 += av1 * b0[kk];
        acc11 += av1 * b1[kk];
      }
      c0[j] = acc00;
      c0[j + 1] = acc01;
      c1[j] = acc10;
      c1[j + 1] = acc11;
    }
    for (; j < n; ++j) {  // odd-N fringe column
      const std::int16_t* b0 = bt + static_cast<std::size_t>(j) * k;
      std::int32_t acc0 = 0, acc1 = 0;
      for (int kk = 0; kk < k; ++kk) {
        acc0 += static_cast<std::int32_t>(a0[kk]) * b0[kk];
        acc1 += static_cast<std::int32_t>(a1[kk]) * b0[kk];
      }
      c0[j] = acc0;
      c1[j] = acc1;
    }
  }
  for (; i < m; ++i) {  // odd-M fringe row
    const std::int16_t* a0 = a + static_cast<std::size_t>(i) * k;
    std::int32_t* c0 = c + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const std::int16_t* b0 = bt + static_cast<std::size_t>(j) * k;
      std::int32_t acc = 0;
      for (int kk = 0; kk < k; ++kk) {
        acc += static_cast<std::int32_t>(a0[kk]) * b0[kk];
      }
      c0[j] = acc;
    }
  }
}

}  // namespace micro

}  // namespace kernels
