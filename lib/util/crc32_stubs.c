/* The carry-less-multiply fold behind [Crc32.digest] (crc32.ml).

   Gopal et al., "Fast CRC Computation for Generic Polynomials Using
   PCLMULQDQ Instruction", Intel, 2009, for the reflected polynomial
   0xEDB88320. Only x86-64 GCC/Clang builds compile the fold; the
   intrinsics are enabled for its one function by a target attribute,
   so the build adds no compiler flag. Every other build reports the
   fold unavailable and crc32.ml never calls it. */

#include <stdint.h>
#include <stdlib.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ASH_CRC32_CLMUL 1
#include <immintrin.h>

/* The register after [len] bytes at [p], from register [crc]. [len] is
   a multiple of 16 and at least 64. */
__attribute__((target("pclmul,sse4.1")))
static uint32_t fold(const uint8_t *p, intnat len, uint32_t crc)
{
  /* Bit-reflected x^n mod P, shifted left one bit (the paper's k1..k5),
     low qword first: n = 4*128+32 and 4*128-32 for the four-lane fold,
     128+32 and 128-32 for the one-lane fold, 64 for 64 -> 32 bits. P'
     is P reflected and mu is x^64 / P reflected, for Barrett. */
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  __m128i x1, x2, x3, x4, t;

  x1 = _mm_loadu_si128((const __m128i *)(p + 0x00));
  x2 = _mm_loadu_si128((const __m128i *)(p + 0x10));
  x3 = _mm_loadu_si128((const __m128i *)(p + 0x20));
  x4 = _mm_loadu_si128((const __m128i *)(p + 0x30));
  x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128((int)crc));
  p += 64;
  len -= 64;

  /* Four lanes, 64 bytes per step. */
#define FOLD(x, k, next)                                                \
  t = _mm_clmulepi64_si128(x, k, 0x00);                                 \
  x = _mm_clmulepi64_si128(x, k, 0x11);                                 \
  x = _mm_xor_si128(_mm_xor_si128(x, t), next)
  while (len >= 64) {
    FOLD(x1, k1k2, _mm_loadu_si128((const __m128i *)(p + 0x00)));
    FOLD(x2, k1k2, _mm_loadu_si128((const __m128i *)(p + 0x10)));
    FOLD(x3, k1k2, _mm_loadu_si128((const __m128i *)(p + 0x20)));
    FOLD(x4, k1k2, _mm_loadu_si128((const __m128i *)(p + 0x30)));
    p += 64;
    len -= 64;
  }

  /* Four lanes into one, then one lane, 16 bytes per step. */
  FOLD(x1, k3k4, x2);
  FOLD(x1, k3k4, x3);
  FOLD(x1, k3k4, x4);
  while (len >= 16) {
    FOLD(x1, k3k4, _mm_loadu_si128((const __m128i *)p));
    p += 16;
    len -= 16;
  }
#undef FOLD

  /* 128 -> 64 bits, then 64 -> 32. */
  x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00);
  x1 = _mm_xor_si128(x1, x2);

  /* Barrett reduction to 32 bits. */
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x2, low32), poly, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  return (uint32_t)_mm_extract_epi32(x1, 1);
}
#endif

value ash_crc32_clmul_available(value unit)
{
  (void)unit;
#ifdef ASH_CRC32_CLMUL
  return Val_bool(__builtin_cpu_supports("pclmul")
                  && __builtin_cpu_supports("sse4.1"));
#else
  return Val_false;
#endif
}

/* Never raises or allocates; crc32.ml checks the bounds first. */
value ash_crc32_fold(value b, value off, value len, value crc)
{
#ifdef ASH_CRC32_CLMUL
  return Val_long(fold(Bytes_val(b) + Long_val(off), Long_val(len),
                       (uint32_t)Long_val(crc)));
#else
  /* Unreachable: crc32.ml calls the fold only when it is available. */
  (void)b; (void)off; (void)len; (void)crc;
  abort();
#endif
}
