/* Pins the calling thread to the first CPU it may run on. Threads,
 * domains and processes it starts afterwards inherit the mask. Returns
 * the CPU, or -1 if the mask could not be read or set. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>

CAMLprim value suite_pin_first_cpu(value unit)
{
  cpu_set_t set;
  (void) unit;
  if (sched_getaffinity(0, sizeof set, &set) != 0)
    return Val_int(-1);
  for (int cpu = 0; cpu < CPU_SETSIZE; cpu++) {
    if (CPU_ISSET(cpu, &set)) {
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      return Val_int(sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1);
    }
  }
  return Val_int(-1);
}
