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
float** A;
float** Bt;
float** C;
float mult(float a, float b)
{
  return a * b;
}
float dot(const float* a, const float* b, int size)
{
  float res = 0.0f;
  {
    for (int t1 = 0; t1 <= size - 1; t1++)
    {
      res += mult(a[t1], b[t1]);
    }
  }
  return res;
}
int main()
{
  int n = 48;
  float* abuf = (float*)malloc(n * n * sizeof(float));
  float* bbuf = (float*)malloc(n * n * sizeof(float));
  float* cbuf = (float*)malloc(n * n * sizeof(float));
  A = (float**)malloc(n * sizeof(float*));
  Bt = (float**)malloc(n * sizeof(float*));
  C = (float**)malloc(n * sizeof(float*));
  for (int k = 0; k < n * n; k++)
  {
    abuf[k] = (float)((k * 7 + 1) % 5);
    bbuf[k] = (float)((k * 3 + 2) % 4);
  }
  {
#pragma omp parallel for
    for (int t1 = 0; t1 <= n - 1; t1++)
    {
      A[t1] = abuf + t1 * n;
      Bt[t1] = bbuf + t1 * n;
      C[t1] = cbuf + t1 * n;
    }
  }
  {
#pragma omp parallel for collapse(2)
    for (int t1t = 0; t1t <= floord(n - 1, 32); t1t++)
      for (int t2t = 0; t2t <= floord(n - 1, 32); t2t++)
        for (int t1 = purec_max(0, 32 * t1t); t1 <= purec_min(n - 1, 32 * t1t + 31); t1++)
          for (int t2 = purec_max(0, 32 * t2t); t2 <= purec_min(n - 1, 32 * t2t + 31); t2++)
          {
            C[t1][t2] = dot((const float*)A[t1], (const float*)Bt[t2], n);
          }
  }
  double checksum = 0.0;
  {
    for (int t1 = 0; t1 <= n - 1; t1++)
      for (int t2 = 0; t2 <= n - 1; t2++)
      {
        checksum += (double)C[t1][t2] * ((t1 + 2 * t2) % 3 + 1);
      }
  }
  printf("checksum %.6f\n", checksum);
  return 0;
}
