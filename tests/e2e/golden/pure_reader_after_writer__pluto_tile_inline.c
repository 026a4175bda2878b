#include <stdio.h>
#include <omp.h>
#ifndef PUREC_POLY_HELPERS
#define PUREC_POLY_HELPERS
#define floord(n, d) (((n) < 0) ? -((-(n) + (d) - 1) / (d)) : (n) / (d))
#define ceild(n, d) floord((n) + (d) - 1, (d))
#define purec_max(a, b) (((a) > (b)) ? (a) : (b))
#define purec_min(a, b) (((a) < (b)) ? (a) : (b))
#endif
int g(const int* b, int k)
{
  return b[k];
}
int main()
{
  int a[100];
  int b[100];
  {
#pragma omp parallel for
    for (int t1 = 0; t1 <= 99; t1++)
    {
      b[t1] = t1;
    }
  }
  for (int i = 0; i < 100; i++)
    a[i] = ((const int*)b)[99 - i];
  int checksum = 0;
  {
#pragma omp parallel for reduction(+:checksum)
    for (int t1 = 0; t1 <= 99; t1++)
    {
      checksum += a[t1] * (t1 % 7 + 1);
    }
  }
  printf("checksum %d\n", checksum);
  return 0;
}
