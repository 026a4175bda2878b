#include <stdio.h>
#include <omp.h>
#ifndef PUREC_POLY_HELPERS
#define PUREC_POLY_HELPERS
#define floord(n, d) (((n) < 0) ? -((-(n) + (d) - 1) / (d)) : (n) / (d))
#define ceild(n, d) floord((n) + (d) - 1, (d))
#define purec_max(a, b) (((a) > (b)) ? (a) : (b))
#define purec_min(a, b) (((a) < (b)) ? (a) : (b))
#endif
int f(int v)
{
  return v * 3 + 1;
}
int main()
{
  int x[100];
  int t = 7;
  for (int i = 0; i < 100; i++)
  {
    x[i] = f(t);
    t = i;
  }
  long checksum = t;
  {
#pragma omp parallel for reduction(+:checksum)
    for (int t1 = 0; t1 <= 99; t1++)
    {
      checksum += (long)x[t1] * (t1 % 5 + 1);
    }
  }
  printf("checksum %ld\n", checksum);
  return 0;
}
