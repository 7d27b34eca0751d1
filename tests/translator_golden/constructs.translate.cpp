// Generated by parade_omcc (ParADE OpenMP translator). Do not edit.
#include "translator/xlat_support.hpp"

#include <stdio.h>
#define N 64
#define CHUNK 4
static parade::xlat::Replicated<unsigned long> __prep_limit{static_cast<unsigned long>(1000)};
static parade::xlat::Replicated<decltype(static_cast<double (*)[N]>(nullptr))> __prep_grid;
static parade::xlat::Replicated<decltype(static_cast<double (*)>(nullptr))> __prep_vec;
static thread_local int seed;
// threadprivate: handled at the declarations above
static parade::xlat::Replicated<long*> __pdsm_hits;
static parade::xlat::Replicated<double*> __pdsm_last;
static parade::xlat::Replicated<parade::ompshim::omp_lock_t> __prep_guard;
static double weigh(double * row, double w[], int n)
{
  double acc = 0.0;
  int k;
  for (k = 0; k < n; k += 2)
  {
    acc = acc + row[k] * w[k];
  }
  return acc;
}

static int __parade_user_main(void)
{
  int i, j;
  double scale = 2.0;
  double x = 0.0;
  long flag = 0;
  long rounds = 0;
  parade::ompshim::omp_init_lock(& __prep_guard.get());
  seed = 7;
  {
    auto __parade_fp_0 = scale;
    auto __parade_ci_1 = seed;
    // if(N > 8) clause noted: this translator always executes the region in parallel
    parade::parallel([&]() {
      seed = __parade_ci_1;
      double scale = __parade_fp_0;
      {
        {
          const long __parade_count_2 = parade::xlat::loop_count((long)(0), (long)(N), (long)(1), false, true);
          int j{};
          parade::parallel_for(0, __parade_count_2, parade::Schedule{parade::ScheduleKind::kDynamic, (long)(CHUNK * 2)}, [&](long __lo, long __hi) {
            for (long __it = __lo; __it < __hi; ++__it) {
              int i = (int)parade::xlat::loop_index((long)(0), (long)(1), true, __it);
              {
                for (j = 0; j < N; j++)
                {
                  __prep_grid.get()[i][j] = scale *(i + j + seed);
                }
              }
            }
          }, /*nowait=*/false);
        }
        {
          const long __parade_count_3 = parade::xlat::loop_count((long)(N - 1), (long)(0), (long)(1), true, false);
          parade::parallel_for(0, __parade_count_3, parade::Schedule{parade::ScheduleKind::kGuided, 0}, [&](long __lo, long __hi) {
            for (long __it = __lo; __it < __hi; ++__it) {
              int i = (int)parade::xlat::loop_index((long)(N - 1), (long)(1), false, __it);
              {
                __prep_vec.get()[i] = __prep_grid.get()[i][i];
              }
            }
          }, /*nowait=*/false);
        }
        {
          const long __parade_count_4 = parade::xlat::loop_count((long)(0), (long)(N), (long)(2), false, true);
          int __parade_lp_has_5 = 0;
          double __parade_lp_val_6{};
          parade::parallel_for(0, __parade_count_4, parade::schedule_from_env(), [&](long __lo, long __hi) {
            for (long __it = __lo; __it < __hi; ++__it) {
              int i = (int)parade::xlat::loop_index((long)(0), (long)(2), true, __it);
              {
                x = __prep_vec.get()[i];
              }
              if (__it == __parade_count_4 - 1) {
                __parade_lp_has_5 = 1;
                __parade_lp_val_6 = x;
              }
            }
          }, /*nowait=*/false);
          {
            struct __Sel { int has; double v; } __sel{__parade_lp_has_5, __parade_lp_val_6};
            parade::team_allreduce_bytes(&__sel, sizeof(__sel), [](void* __a, const void* __b, std::size_t) { auto* __x = static_cast<__Sel*>(__a); const auto* __y = static_cast<const __Sel*>(__b); if (__y->has) *__x = *__y; });
            if (parade::local_thread_id() == 0 && __sel.has) {
              x = __sel.v;
            }
            parade::barrier(parade::BarrierScope::kNode);
          }
        }
        {
          const long __parade_count_7 = parade::xlat::loop_count((long)(1), (long)(N), (long)(1), true, true);
          parade::parallel_for(0, __parade_count_7, parade::Schedule{parade::ScheduleKind::kStaticChunk, (long)(CHUNK)}, [&](long __lo, long __hi) {
            for (long __it = __lo; __it < __hi; ++__it) {
              int r = (int)parade::xlat::loop_index((long)(1), (long)(1), true, __it);
              {
                __prep_vec.get()[r - 1] = __prep_vec.get()[r - 1] + 1.0;
              }
            }
          }, /*nowait=*/false);
        }
        {
          parade::parallel_for(0, 2, parade::Schedule{parade::ScheduleKind::kStaticChunk, 1}, [&](long __lo, long __hi) {
            for (long __s = __lo; __s < __hi; ++__s) {
              switch (__s) {
                case 0: {
                  {
                    parade::ompshim::omp_set_lock(& __prep_guard.get());
                    (*__pdsm_hits.get()) = (*__pdsm_hits.get()) + 1;
                    parade::ompshim::omp_unset_lock(& __prep_guard.get());
                  }
                  break;
                }
                case 1: {
                  {
                    (*__pdsm_last.get()) = __prep_vec.get()[0];
                  }
                  break;
                }
              }
            }
          }, /*nowait=*/false);
        }
        {
          struct __ParadeSingle { long v0; long v1; } __sgl{};
          parade::single_small(&__sgl, sizeof(__sgl), [&]() {
            {
              flag = 1;
              rounds = rounds + 2;
            }
            __sgl.v0 = flag;
            __sgl.v1 = rounds;
          });
          if (parade::local_thread_id() == 0) {
            flag = __sgl.v0;
            rounds = __sgl.v1;
          }
          parade::barrier(parade::BarrierScope::kNode);
          parade::barrier(parade::BarrierScope::kNode);
        }
        if (parade::node_id() == 0 && parade::local_thread_id() == 0) {
          {
            __prep_grid.get()[0][0] = __prep_grid.get()[0][0] * 0.5;
          }
        }
      }
    });
  }
  do
  {
    flag = flag + 1;
  }
  while (flag < __prep_limit.get());
  x = x + weigh(__prep_vec.get(), __prep_vec.get(), N);
  parade::ompshim::omp_destroy_lock(& __prep_guard.get());
  parade::xlat::master_printf("%f %ld %ld %f\n", x, flag, rounds, (*__pdsm_last.get()));
  return 0;
}

static void __parade_shared_init() {
  __prep_grid.get() = reinterpret_cast<double (*)[N]>(parade::shmalloc(sizeof(double) * (N) * (N)));
  __prep_vec.get() = reinterpret_cast<double (*)>(parade::shmalloc(sizeof(double) * (N)));
  __pdsm_hits.get() = static_cast<long*>(parade::shmalloc(sizeof(long)));
  __pdsm_last.get() = static_cast<double*>(parade::shmalloc(sizeof(double)));
  parade::barrier();
}

int main(int argc, char** argv) {
  (void)argc; (void)argv;
  return parade::xlat::launch([&]() -> int { __parade_shared_init(); return __parade_user_main(); });
}
