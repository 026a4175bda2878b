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
float damp(float x)
{
  return 0.5f * x + 1.0f;
}
void scan_rows(float** a, float** b, int n, int m)
{
  {
#pragma omp parallel for
    for (int t1t = 0; t1t <= floord(n - 1, 32); t1t++)
      for (int t2t = 0; t2t <= floord(m - 1, 32); t2t++)
        for (int t1 = purec_max(0, 32 * t1t); t1 <= purec_min(n - 1, 32 * t1t + 31); t1++)
          for (int t2 = purec_max(1, 32 * t2t); t2 <= purec_min(m - 1, 32 * t2t + 31); t2++)
          {
            a[t1][t2] = a[t1][t2 - 1] * 0.75f + (0.5f * b[t1][t2] + 1.0f);
          }
  }
}
int main()
{
  int n = 160;
  int m = 200;
  float** a = (float**)malloc(n * sizeof(float*));
  float** b = (float**)malloc(n * sizeof(float*));
  {
#pragma omp parallel for
    for (int i = 0; i < n; i++)
    {
      a[i] = (float*)malloc(m * sizeof(float));
      b[i] = (float*)malloc(m * sizeof(float));
      for (int j = 0; j < m; j++)
      {
        a[i][j] = (float)(i % 3);
        b[i][j] = (float)((i * 7 + j * 3) % 11) * 0.25f;
      }
    }
  }
  scan_rows(a, b, n, m);
  double checksum = 0.0;
  {
    for (int t1 = 0; t1 <= n - 1; t1++)
      for (int t2 = 0; t2 <= m - 1; t2++)
      {
        checksum += (double)a[t1][t2] * ((t1 + t2) % 5 + 1);
      }
  }
  printf("checksum %.6f\n", checksum);
  return 0;
}
