/* SIGPROF sampling for pcprof.ml (Linux x86-64).

   An ITIMER_PROF interval timer delivers SIGPROF after every interval
   of CPU time the process consumes; the handler stores the
   interrupted instruction pointer in a preallocated buffer and does
   nothing else, so it is async-signal-safe and never touches the
   OCaml heap. */

#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

static uintptr_t *samples;
static long capacity;
static volatile long taken;  /* samples stored */
static volatile long missed; /* ticks after the buffer filled */

static void on_sigprof(int sig, siginfo_t *info, void *context)
{
  ucontext_t *uc = context;
  (void)sig;
  (void)info;
  if (taken < capacity)
    samples[taken++] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
  else
    missed++;
}

/* The handler must run on an alternate stack: OCaml runs effect
   handlers' fibers on small heap-allocated stacks, and a signal frame
   pushed onto one overflows it. The OCaml runtime installs an
   alternate stack for each domain; refuse to sample without one. */
static void check_alt_stack(void)
{
  stack_t current;
  if (sigaltstack(NULL, &current) != 0 || (current.ss_flags & SS_DISABLE))
    caml_failwith("pcprof: no alternate signal stack");
}

value pcprof_start(value v_interval_us, value v_capacity)
{
  long interval_us = Long_val(v_interval_us);
  capacity = Long_val(v_capacity);
  free(samples);
  samples = malloc(capacity * sizeof *samples);
  if (samples == NULL)
    caml_failwith("pcprof: cannot allocate the sample buffer");
  taken = 0;
  missed = 0;
  check_alt_stack();
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, NULL) != 0)
    caml_failwith("pcprof: sigaction failed");
  struct itimerval it;
  it.it_interval.tv_sec = interval_us / 1000000;
  it.it_interval.tv_usec = interval_us % 1000000;
  it.it_value = it.it_interval;
  if (setitimer(ITIMER_PROF, &it, NULL) != 0)
    caml_failwith("pcprof: setitimer failed");
  return Val_unit;
}

/* Disarm the timer. A tick already pending is delivered when the
   syscall returns, still to [on_sigprof]; later ones are ignored. */
value pcprof_stop(value unit)
{
  (void)unit;
  struct itimerval off;
  memset(&off, 0, sizeof off);
  setitimer(ITIMER_PROF, &off, NULL);
  signal(SIGPROF, SIG_IGN);
  return Val_unit;
}

value pcprof_samples(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(out);
  long n = taken;
  out = caml_alloc(n, 0);
  for (long i = 0; i < n; i++)
    Store_field(out, i, Val_long((intnat)samples[i]));
  CAMLreturn(out);
}

value pcprof_missed(value unit)
{
  (void)unit;
  return Val_long(missed);
}
