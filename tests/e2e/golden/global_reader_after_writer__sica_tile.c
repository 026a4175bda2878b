#include <stdio.h>
#include <omp.h>
#ifndef PUREC_POLY_HELPERS
#define PUREC_POLY_HELPERS
#define floord(n, d) (((n) < 0) ? -((-(n) + (d) - 1) / (d)) : (n) / (d))
#define ceild(n, d) floord((n) + (d) - 1, (d))
#define purec_max(a, b) (((a) > (b)) ? (a) : (b))
#define purec_min(a, b) (((a) < (b)) ? (a) : (b))
#endif
float gain[64];
float weigh(int k)
{
  return gain[k] * 2.0f;
}
int main()
{
  float out[64];
  {
#pragma omp parallel for
    for (int t1 = 0; t1 <= 63; t1++)
    {
      gain[t1] = (float)t1;
    }
  }
  {
#pragma omp parallel for
    for (int t1 = 0; t1 <= 63; t1++)
    {
      out[t1] = weigh(63 - t1);
    }
  }
  double checksum = 0.0;
  {
    for (int t1 = 0; t1 <= 63; t1++)
    {
      checksum += (double)out[t1] * (t1 % 3 + 1);
    }
  }
  printf("checksum %.6f\n", checksum);
  return 0;
}
