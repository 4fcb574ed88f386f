/* A flat CPU sampler to preload into a process: no perf, no ptrace.
 *
 * With SIGPROF_OUT set, a constructor arms ITIMER_PROF, which counts the
 * CPU time of every thread of the process; each expiry raises SIGPROF on a
 * thread that was running, and the handler records the program counter it
 * interrupted. Expiries are checked at the kernel's tick, so samples land
 * about HZ times per CPU-second whatever the interval asks. At exit a
 * destructor writes the PCs, one hex number a line, then a line "maps" and
 * a copy of /proc/self/maps, so that tools/cpu_profile.py can symbolise
 * them. A process that ends by a signal or _exit writes nothing.
 *
 * Build: cc -O2 -shared -fPIC -o sigprof.so sigprof.c
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 22)

static unsigned long pcs[MAX_SAMPLES];
static long taken;

static void on_sigprof(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        pcs[i] = (unsigned long)((ucontext_t *)context)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void sigprof_start(void) {
    if (!getenv("SIGPROF_OUT"))
        return;
    struct sigaction sa = {0};
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void sigprof_stop(void) {
    const char *path = getenv("SIGPROF_OUT");
    if (!path)
        return;
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    FILE *out = fopen(path, "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (long i = 0; i < n; i++)
        fprintf(out, "%lx\n", pcs[i]);
    fputs("maps\n", out);
    int c;
    while ((c = fgetc(maps)) != EOF)
        fputc(c, out);
    fclose(maps);
    fclose(out);
}
