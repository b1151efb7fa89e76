/* The word loop behind [Baseline.unsafe_sum_be32] (baseline.ml): the
   plain sum of [n] big-endian 32-bit words loaded in ascending order,
   each word stored at the destination before the next is loaded when
   [write] is set.

   On x86-64 the body moves 16 bytes per step with SSE2, which every
   x86-64 CPU has, so the build needs no flag, target attribute or CPU
   check. A step loads its 16 bytes before it stores them. With the
   destination at or below the source, every store lands on bytes
   already loaded, so the bytes and the sum are the word loop's. A
   destination that starts above the source inside the range being
   read must see each earlier store, word by word: it takes the scalar
   loop, as do the 0-3-word tail and every other host. */

#include <stdint.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__)
#include <emmintrin.h>
#endif

/* Each word is assembled from its bytes, so this is right on either
   byte order. All four bytes are loaded before any is stored. */
static uint64_t sum_words(const uint8_t *s, uint8_t *d, int write,
                          intnat n)
{
  uint64_t sum = 0;
  for (; n > 0; n--, s += 4, d += 4) {
    uint8_t b0 = s[0], b1 = s[1], b2 = s[2], b3 = s[3];
    if (write) {
      d[0] = b0;
      d[1] = b1;
      d[2] = b2;
      d[3] = b3;
    }
    sum += ((uint32_t)b0 << 24) | ((uint32_t)b1 << 16)
           | ((uint32_t)b2 << 8) | b3;
  }
  return sum;
}

#if defined(__x86_64__)
/* [steps] steps of four words. A word is b0*2^24 + b1*2^16 + b2*2^8 +
   b3, so the sum is each byte position's sum, weighted. A 16-bit lane
   holds bytes 2j and 2j+1 of the step, little-endian: its low byte
   adds to [even] (word bytes 0 and 2), its high byte to [odd] (bytes
   1 and 3). A lane gains at most 255 per step, so every 256 steps
   (256 * 255 < 2^16) the lanes are weighted into [sum] and cleared. */
static uint64_t sum_steps(const uint8_t *s, uint8_t *d, int write,
                          intnat steps)
{
  const __m128i low = _mm_set1_epi16(0x00ff);
  uint64_t sum = 0;
  while (steps > 0) {
    intnat k = steps < 256 ? steps : 256;
    __m128i even = _mm_setzero_si128(), odd = _mm_setzero_si128();
    uint16_t e[8], o[8];
    steps -= k;
    for (; k > 0; k--, s += 16, d += 16) {
      __m128i x = _mm_loadu_si128((const __m128i *)s);
      if (write)
        _mm_storeu_si128((__m128i *)d, x);
      even = _mm_add_epi16(even, _mm_and_si128(x, low));
      odd = _mm_add_epi16(odd, _mm_srli_epi16(x, 8));
    }
    _mm_storeu_si128((__m128i *)e, even);
    _mm_storeu_si128((__m128i *)o, odd);
    for (int j = 0; j < 8; j += 2)
      sum += ((uint64_t)e[j] << 24) + ((uint64_t)o[j] << 16)
             + ((uint64_t)e[j + 1] << 8) + o[j + 1];
  }
  return sum;
}
#endif

/* Unchecked, and never raises or allocates: the callers read and write
   only inside ranges [Memory.locate] found. Without [write] the
   destination need not lie in [dst], so [d] shadows the source and is
   never stored through. The sum fits an OCaml int: it would take 2^30
   words to reach 2^62. */
value ash_sum_be32(value src, value soff, value n, value write, value dst,
                   value doff)
{
  int w = Bool_val(write);
  uint8_t *s = (uint8_t *)Bytes_val(src) + Long_val(soff);
  uint8_t *d = w ? (uint8_t *)Bytes_val(dst) + Long_val(doff) : s;
  intnat words = Long_val(n);
  uint64_t sum = 0;
#if defined(__x86_64__)
  if (!(w && (uintptr_t)d > (uintptr_t)s
        && (uintptr_t)d < (uintptr_t)s + 4 * (uintptr_t)words)) {
    intnat steps = words / 4;
    sum = sum_steps(s, d, w, steps);
    s += 16 * steps;
    d += 16 * steps;
    words -= 4 * steps;
  }
#endif
  return Val_long(sum + sum_words(s, d, w, words));
}

value ash_sum_be32_byte(value *argv, int argn)
{
  (void)argn;
  return ash_sum_be32(argv[0], argv[1], argv[2], argv[3], argv[4],
                      argv[5]);
}
