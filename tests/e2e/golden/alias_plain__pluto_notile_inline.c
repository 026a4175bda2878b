#include <stdio.h>
#include <omp.h>
#ifndef PUREC_POLY_HELPERS
#define PUREC_POLY_HELPERS
#define floord(n, d) (((n) < 0) ? -((-(n) + (d) - 1) / (d)) : (n) / (d))
#define ceild(n, d) floord((n) + (d) - 1, (d))
#define purec_max(a, b) (((a) > (b)) ? (a) : (b))
#define purec_min(a, b) (((a) < (b)) ? (a) : (b))
#endif
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
  int* alias = array;
  {
    for (int t1 = 1; t1 <= 99; t1++)
    {
      alias[t1] = array[t1 - 1] + array[t1];
    }
  }
  long checksum = 0;
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
