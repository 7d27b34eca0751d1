/* Synchronized scalars: the paper's §5.2.1 lowering choice in isolation.
 * A read-dominated int counter is updated under critical and a double
 * under atomic. Each scalar fits the default 256-byte threshold, so both
 * sites lower to update-by-collective. Under --threshold=1 neither fits, so
 * both take the conventional DSM lock path (dsm_lock/dsm_unlock) that a
 * KDSM-style translation uses for every critical. */
#include <stdio.h>
int count;
double total;
int seen[256];
int main(void) {
  int i;
#pragma omp parallel for
  for (i = 0; i < 256; i++) {
#pragma omp critical
    count += 1;
    seen[i] = count + count;
#pragma omp atomic
    total += 0.5;
  }
  printf("count=%d total=%.1f\n", count, total);
  return 0;
}
