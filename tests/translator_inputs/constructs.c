/* The constructs the other shipped inputs never reach: the variable-list
 * clauses (lastprivate, firstprivate, copyin of a threadprivate), every
 * schedule kind, sections, a single that writes scalars, master, an if
 * clause, OpenMP locks, a do-while, non-unit and decreasing loop steps, a
 * 2-D global array, a static const global and a function with pointer and
 * array parameters. */
#include <stdio.h>
#define N 64
#define CHUNK 4

static const unsigned long limit = 1000;
double grid[N][N];
double vec[N];
int seed;
#pragma omp threadprivate(seed)
long hits;
double last;
omp_lock_t guard;

static double weigh(double *row, double w[], int n) {
  double acc = 0.0;
  int k;
  for (k = 0; k < n; k += 2) {
    acc = acc + row[k] * w[k];
  }
  return acc;
}

int main(void) {
  int i, j;
  double scale = 2.0;
  double x = 0.0;
  long flag = 0;
  long rounds = 0;
  omp_init_lock(&guard);
  seed = 7;
#pragma omp parallel copyin(seed) firstprivate(scale) if(N > 8)
  {
#pragma omp for schedule(dynamic, CHUNK * 2) private(j)
    for (i = 0; i < N; i++) {
      for (j = 0; j < N; j++) {
        grid[i][j] = scale * (i + j + seed);
      }
    }
#pragma omp for schedule(guided)
    for (i = N - 1; i >= 0; i = i - 1) {
      vec[i] = grid[i][i];
    }
#pragma omp for schedule(runtime) lastprivate(x)
    for (i = 0; i < N; i += 2) {
      x = vec[i];
    }
#pragma omp for schedule(static, CHUNK)
    for (int r = 1; r <= N; r++) {
      vec[r - 1] = vec[r - 1] + 1.0;
    }
#pragma omp sections
    {
#pragma omp section
      {
        omp_set_lock(&guard);
        hits = hits + 1;
        omp_unset_lock(&guard);
      }
#pragma omp section
      {
        last = vec[0];
      }
    }
#pragma omp single
    {
      flag = 1;
      rounds = rounds + 2;
    }
#pragma omp master
    {
      grid[0][0] = grid[0][0] * 0.5;
    }
  }
  do {
    flag = flag + 1;
  } while (flag < limit);
  x = x + weigh(vec, vec, N);
  omp_destroy_lock(&guard);
  printf("%f %ld %ld %f\n", x, flag, rounds, last);
  return 0;
}
