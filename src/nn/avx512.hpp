#pragma once
// AVX-512 helpers shared by the vectorised attention passes: fused_sdpa's
// inference pass (kernels.cpp) and the fused training pass
// (fused_attention.cpp). Include only where __AVX512F__ is defined.

#include <immintrin.h>

namespace deepbat::nn::avx512 {

/// In-register 16 x 16 transpose: afterwards a[l] holds lane l of every
/// input vector, input vector c in lane c.
inline void transpose16(__m512 a[16]) {
  __m512 t[16];
  for (int i = 0; i < 16; i += 2) {
    t[i] = _mm512_unpacklo_ps(a[i], a[i + 1]);
    t[i + 1] = _mm512_unpackhi_ps(a[i], a[i + 1]);
  }
  for (int i = 0; i < 16; i += 4) {
    const __m512d t0 = _mm512_castps_pd(t[i]);
    const __m512d t1 = _mm512_castps_pd(t[i + 1]);
    const __m512d t2 = _mm512_castps_pd(t[i + 2]);
    const __m512d t3 = _mm512_castps_pd(t[i + 3]);
    a[i] = _mm512_castpd_ps(_mm512_unpacklo_pd(t0, t2));
    a[i + 1] = _mm512_castpd_ps(_mm512_unpackhi_pd(t0, t2));
    a[i + 2] = _mm512_castpd_ps(_mm512_unpacklo_pd(t1, t3));
    a[i + 3] = _mm512_castpd_ps(_mm512_unpackhi_pd(t1, t3));
  }
  for (int i = 0; i < 4; ++i) {
    t[i] = _mm512_shuffle_f32x4(a[i], a[i + 4], 0x88);
    t[i + 4] = _mm512_shuffle_f32x4(a[i], a[i + 4], 0xdd);
    t[i + 8] = _mm512_shuffle_f32x4(a[i + 8], a[i + 12], 0x88);
    t[i + 12] = _mm512_shuffle_f32x4(a[i + 8], a[i + 12], 0xdd);
  }
  for (int i = 0; i < 4; ++i) {
    a[i] = _mm512_shuffle_f32x4(t[i], t[i + 8], 0x88);
    a[i + 8] = _mm512_shuffle_f32x4(t[i], t[i + 8], 0xdd);
    a[i + 4] = _mm512_shuffle_f32x4(t[i + 4], t[i + 12], 0x88);
    a[i + 12] = _mm512_shuffle_f32x4(t[i + 4], t[i + 12], 0xdd);
  }
}

}  // namespace deepbat::nn::avx512
