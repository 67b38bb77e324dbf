/* What the benchmark needs from the C library beyond OCaml's Unix: a
   monotonic clock with nanosecond resolution for its own timings
   (Unix.gettimeofday resolves only microseconds), and moving the
   calibration process onto the processor the caller runs on. */
#define _GNU_SOURCE
#include <sched.h>
#include <time.h>
#include <caml/mlvalues.h>

value perfbench_monotonic_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}

/* Restrict process [pid] to the processor the caller is running on; false
   when the system refuses. */
value perfbench_follow_cpu(value pid)
{
  cpu_set_t set;
  int cpu = sched_getcpu();
  if (cpu < 0)
    return Val_false;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return Val_bool(sched_setaffinity(Int_val(pid), sizeof set, &set) == 0);
}
