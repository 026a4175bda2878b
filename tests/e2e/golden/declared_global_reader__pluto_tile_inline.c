#include <stdio.h>
#include <omp.h>
#ifndef PUREC_POLY_HELPERS
#define PUREC_POLY_HELPERS
#define floord(n, d) (((n) < 0) ? -((-(n) + (d) - 1) / (d)) : (n) / (d))
#define ceild(n, d) floord((n) + (d) - 1, (d))
#define purec_max(a, b) (((a) > (b)) ? (a) : (b))
#define purec_min(a, b) (((a) < (b)) ? (a) : (b))
#endif
int gain = 1;
int shade(int v)
{
  return v * gain;
}
int main()
{
  int out[100];
  {
    for (int t1 = 0; t1 <= 99; t1++)
    {
      out[t1] = t1 * gain;
      gain = t1 % 4 + 1;
    }
  }
  long checksum = 0;
  {
#pragma omp parallel for reduction(+:checksum)
    for (int t1 = 0; t1 <= 99; t1++)
    {
      checksum += (long)out[t1] * (t1 % 5 + 1);
    }
  }
  printf("checksum %ld\n", checksum);
  return 0;
}
