#include <stdio.h>
#include <stdlib.h>
#include <omp.h>
#ifndef PUREC_POLY_HELPERS
#define PUREC_POLY_HELPERS
#define floord(n, d) (((n) < 0) ? -((-(n) + (d) - 1) / (d)) : (n) / (d))
#define ceild(n, d) floord((n) + (d) - 1, (d))
#define purec_max(a, b) (((a) > (b)) ? (a) : (b))
#define purec_min(a, b) (((a) < (b)) ? (a) : (b))
#endif
/* purec-rt:stats fnv64=6eb42b62d8c6f3ec */
/* purec-rt:memo fnv64=067d8f3d6f5dc157 */
/* purec-rt:memo_program fnv64=acc5b559c19d6c28 */
static float purec_memo_shade(int purec_a0);
float gain;
float shade(int v)
{
  float x = (float)v * 0.0625f + 1.0f;
  float y = x;
  {
    for (int t1 = 0; t1 <= 7; t1++)
    {
      y = 0.5f * (y + x / y);
    }
  }
  return y * gain;
}
void render(int* vals, float* out, int n)
{
  {
#pragma omp parallel for
    for (int t1 = 0; t1 <= n - 1; t1++)
    {
      out[t1] = purec_memo_shade(vals[t1]);
    }
  }
}
int main()
{
  int n = 4096;
  int* vals = (int*)malloc(n * sizeof(int));
  float* out = (float*)malloc(n * sizeof(float));
  gain = 0.75f;
  {
#pragma omp parallel for
    for (int t1 = 0; t1 <= n - 1; t1++)
    {
      vals[t1] = (t1 * 37 + 11) % 32;
      out[t1] = 0.0f;
    }
  }
  render(vals, out, n);
  double checksum = 0.0;
  {
    for (int t1 = 0; t1 <= n - 1; t1++)
    {
      checksum += (double)out[t1] * (t1 % 9);
    }
  }
  printf("checksum %.6f\n", checksum);
  return 0;
}

static purec_memo_stats_entry purec_memo_stats_shade = {"shade", 0, 0, 0};
__attribute__((constructor)) static void purec_memo_stats_shade_register(void) {
  purec_memo_stats_register(&purec_memo_stats_shade);
}
static float purec_memo_shade(int purec_a0) {
  purec_memo_word purec_key = 0x6de592493a8ba3aaULL;
  purec_memo_word purec_word;
  purec_memo_word purec_kw[2];
  unsigned purec_kn = 0;
  float purec_result;
  PUREC_MEMO_KEY_INT(purec_key, purec_kw, purec_kn, purec_a0);
  PUREC_MEMO_KEY_F32(purec_key, purec_kw, purec_kn, gain);
  purec_key = purec_memo_mix(purec_key);
  if (purec_key == 0) purec_key = 1;
  if (purec_memo_lookup(&purec_memo_tab, purec_key, purec_kw, purec_kn, &purec_word)) {
    PUREC_MEMO_STAT_INC(&purec_memo_stats_shade.hits);
    return PUREC_MEMO_UNPACK_F32(purec_word);
  }
  PUREC_MEMO_STAT_INC(&purec_memo_stats_shade.misses);
  purec_result = shade(purec_a0);
  if (purec_memo_store(&purec_memo_tab, purec_key, purec_kw, purec_kn, PUREC_MEMO_PACK_F32(purec_result)) == PUREC_MEMO_EVICTED)
    PUREC_MEMO_STAT_INC(&purec_memo_stats_shade.evictions);
  return purec_result;
}
