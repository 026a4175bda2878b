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
int g[64][64];
int h[64];
int res[1];
int weight(int v)
{
  return v * v + 1;
}
void fold(int n, int cut)
{
  int total = 0;
  {
#pragma omp parallel for schedule(guided,4) reduction(+:total)
    for (int i = 0; i < n; i++)
    {
      h[i] = g[i][0];
      for (int j = 0; j < n; j++)
      {
        if (j < i + cut)
        {
          total = total + (g[i][j] * g[i][j] + 1);
        }
      }
    }
  }
  res[0] = total;
}
int main()
{
  int n = 64;
  {
#pragma omp parallel for collapse(2)
    for (int t1t = 0; t1t <= floord(n - 1, 32); t1t++)
      for (int t2t = 0; t2t <= floord(n - 1, 32); t2t++)
        for (int t1 = purec_max(0, 32 * t1t); t1 <= purec_min(n - 1, 32 * t1t + 31); t1++)
          for (int t2 = purec_max(0, 32 * t2t); t2 <= purec_min(n - 1, 32 * t2t + 31); t2++)
          {
            g[t1][t2] = (t1 * 5 + t2 * 3) % 17;
          }
  }
  fold(n, 8);
  long checksum = (long)res[0];
  {
#pragma omp parallel for reduction(+:checksum)
    for (int t1 = 0; t1 <= n - 1; t1++)
    {
      checksum += (long)h[t1] * (t1 % 7);
    }
  }
  printf("checksum %ld\n", checksum);
  return 0;
}
