#include <stdio.h>
#include <omp.h>
#ifndef PUREC_POLY_HELPERS
#define PUREC_POLY_HELPERS
#define floord(n, d) (((n) < 0) ? -((-(n) + (d) - 1) / (d)) : (n) / (d))
#define ceild(n, d) floord((n) + (d) - 1, (d))
#define purec_max(a, b) (((a) > (b)) ? (a) : (b))
#define purec_min(a, b) (((a) < (b)) ? (a) : (b))
#endif
int func(const int* a, int idx)
{
  return a[idx - 1] + a[idx];
}
int main()
{
  int array[100];
  {
#pragma omp parallel for
    for (int t1 = 0; t1 <= 99; t1++)
    {
      array[t1] = (t1 * 3 + 1) % 17;
    }
  }
  int* mixed = array[3] > 5 ? array : array;
  for (int i = 1; i < 100; i++)
  {
    array[i] = func(mixed, i);
  }
  int* alias = array;
  int** escape = &alias;
  for (int i = 1; i < 100; i++)
  {
    array[i] = func(alias, i);
  }
  long checksum = (long)(*escape)[0];
  {
#pragma omp parallel for reduction(+:checksum)
    for (int t1 = 0; t1 <= 99; t1++)
    {
      checksum += (long)array[t1] * (t1 % 9);
    }
  }
  printf("checksum %ld\n", checksum);
  return 0;
}
