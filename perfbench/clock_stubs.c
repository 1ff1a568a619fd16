/* Host-side probes for the benchmark: a monotonic clock, the peak
   resident set of the calling process, and a table of ints in shared
   anonymous memory that forked sweep workers write and the coordinator
   reads. The clock and RSS probes are noalloc and return untagged
   ints, so calling them from an instrumented hot path allocates no
   OCaml words. */

#define _GNU_SOURCE
#include <sys/mman.h>
#include <sys/resource.h>
#include <stdint.h>
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>
#include <caml/fail.h>

intnat pb_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

value pb_now_ns_byte(value unit) { return Val_long(pb_now_ns(unit)); }

intnat pb_maxrss_kb(value unit)
{
  struct rusage ru;
  (void)unit;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return -1;
  return (intnat)ru.ru_maxrss;
}

value pb_maxrss_kb_byte(value unit) { return Val_long(pb_maxrss_kb(unit)); }

/* [n] OCaml ints in a MAP_SHARED anonymous mapping: a child created by
   fork(2) after this call writes the same physical pages the parent
   reads. The mapping lives as long as the process (CAML_BA_EXTERNAL:
   the GC never unmaps it). */
value pb_shared_ints(value vn)
{
  intnat n = Long_val(vn);
  void *p = mmap(NULL, (size_t)n * sizeof(intnat), PROT_READ | PROT_WRITE,
                 MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) caml_failwith("pb_shared_ints: mmap failed");
  return caml_ba_alloc_dims(CAML_BA_CAML_INT | CAML_BA_C_LAYOUT, 1, p, n);
}


/* Host-speed sample: [ops] pops and re-pushes on a 4,096-entry binary-heap
   event queue keyed by xorshift delays. Branchy, cache-resident integer
   work like the simulator's engine, sharing no code with it and
   compiled by the C compiler, so no change to the OCaml code or its
   flags moves it. The heap lives on the caller's stack, so pool domains
   can sample concurrently. Returns the nanoseconds taken. */
intnat pb_speed_sample_ns(intnat ops)
{
  int64_t h[4096];
  int n = 0;
  uint64_t x = 0x2545F4914F6CDD1DULL;
  intnat t0 = pb_now_ns(Val_unit);
  for (int k = 0; k < 4096; k++) {
    x ^= x << 13; x ^= x >> 7; x ^= x << 17;
    int64_t v = (int64_t)(x & 0xFFFF);
    int i = n++;
    while (i > 0 && h[(i - 1) / 2] > v) { h[i] = h[(i - 1) / 2]; i = (i - 1) / 2; }
    h[i] = v;
  }
  for (intnat k = 0; k < ops; k++) {
    int64_t top = h[0], v = h[n - 1];
    int i = 0;
    for (;;) {
      int l = 2 * i + 1;
      if (l >= n - 1) break;
      int c = (l + 1 < n - 1 && h[l + 1] < h[l]) ? l + 1 : l;
      if (h[c] < v) { h[i] = h[c]; i = c; } else break;
    }
    h[i] = v;
    x ^= x << 13; x ^= x >> 7; x ^= x << 17;
    v = top + (int64_t)(x & 0xFFFF);
    i = n - 1;
    while (i > 0 && h[(i - 1) / 2] > v) { h[i] = h[(i - 1) / 2]; i = (i - 1) / 2; }
    h[i] = v;
  }
  return pb_now_ns(Val_unit) - t0;
}

value pb_speed_sample_ns_byte(value ops)
{
  return Val_long(pb_speed_sample_ns(Long_val(ops)));
}
