/* heapprof.c - sampling heap profiler for the peak live heap (LD_PRELOAD).
 *
 * Build and run through `tools/check.sh heap -- <cmd> [args...]`, which
 * compiles this file into a shared object, runs the command with it
 * preloaded and symbolizes the report with tools/heap_report.py.
 *
 * About one allocation per 16 KiB allocated is sampled (exponentially
 * distributed intervals, so periodic allocation patterns do not alias),
 * and a sample stands for the 16 KiB intervals it crossed. A sampled
 * block carries a 16-byte header in front of the pointer the program
 * sees: its stack id and weight, and a magic word where glibc keeps a
 * chunk's size field, which no real chunk size can equal. So free()
 * recognises a sampled block without a table lookup, and unsampled
 * allocations cost one counter update.
 *
 * Stacks come from backtrace(); each distinct stack is stored once. The
 * live bytes per stack are snapshotted whenever the sampled live heap
 * passes the last snapshot by max(1 MiB, 0.5%), so the snapshot is the
 * peak to within that margin. At exit each process writes
 * $TMPDIR/autocomp-heap.<pid>.txt (TMPDIR defaults to /tmp): the peak,
 * then one line per stack live at the peak with its frames as
 * module+offset pairs (dladdr), ready for addr2line.
 *
 * Only malloc/calloc/realloc/free are sampled; aligned allocations pass
 * through unsampled. glibc only: the hooks call __libc_malloc and
 * friends. */

#define _GNU_SOURCE
#include <dlfcn.h>
#include <elf.h>
#include <execinfo.h>
#include <malloc.h>
#include <math.h>
#include <pthread.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <unistd.h>

extern void* __libc_malloc(size_t size);
extern void* __libc_calloc(size_t n, size_t size);
extern void* __libc_realloc(void* p, size_t size);
extern void __libc_free(void* p);

#define SAMPLE_BYTES 16384.0
#define MAX_FRAMES 32
#define SKIP_FRAMES 2 /* Sample() and the hook that called it */
#define MAX_STACKS (1 << 16)
#define HEADER 16
#define MAGIC 0xFEEDFACEC0FFEE00ULL /* above any glibc chunk size */
#define WEIGHT_BITS 40

typedef struct {
  uint64_t hash;
  int depth;
  void* pc[MAX_FRAMES];
} Stack;

static Stack* stacks;           /* stack id -> frames */
static int32_t* stack_slot;     /* open addressing: hash -> id + 1 */
static int64_t* live_bytes;     /* per stack, now */
static int64_t* peak_bytes;     /* per stack, at the last snapshot */
static int nstacks;
static int64_t live, snapshot_live, total_sampled;
static pthread_mutex_t mu = PTHREAD_MUTEX_INITIALIZER;
static int ready;

static __thread int in_hook __attribute__((tls_model("initial-exec")));
static __thread double until_sample __attribute__((tls_model("initial-exec")));
static __thread uint64_t rng __attribute__((tls_model("initial-exec")));

static void* Map(size_t bytes) {
  void* p = mmap(NULL, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  return p == MAP_FAILED ? NULL : p;
}

/* Exponential interval with mean SAMPLE_BYTES (xorshift64*). */
static double NextInterval(void) {
  if (rng == 0) rng = 0x9E3779B97F4A7C15ULL ^ (uint64_t)(uintptr_t)&rng;
  rng ^= rng >> 12;
  rng ^= rng << 25;
  rng ^= rng >> 27;
  const double u = (double)((rng * 0x2545F4914F6CDD1DULL) >> 11) * 0x1.0p-53;
  return -log(1.0 - u) * SAMPLE_BYTES;
}

/* Id of the stack, inserting it on first sight; -1 when the table is
 * full. Caller holds mu. */
static int StackId(void* const* pc, int depth) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (int i = 0; i < depth; ++i) {
    h = (h ^ (uint64_t)(uintptr_t)pc[i]) * 0x100000001b3ULL;
  }
  const uint32_t mask = 2 * MAX_STACKS - 1;
  for (uint32_t i = (uint32_t)(h >> 20) & mask;; i = (i + 1) & mask) {
    const int32_t slot = stack_slot[i];
    if (slot == 0) {
      if (nstacks == MAX_STACKS) return -1;
      Stack* s = &stacks[nstacks];
      s->hash = h;
      s->depth = depth;
      memcpy(s->pc, pc, sizeof(void*) * (size_t)depth);
      stack_slot[i] = ++nstacks;
      return nstacks - 1;
    }
    const Stack* s = &stacks[slot - 1];
    if (s->hash == h && s->depth == depth &&
        memcmp(s->pc, pc, sizeof(void*) * (size_t)depth) == 0) {
      return slot - 1;
    }
  }
}

/* Allocates a sampled block of `size` user bytes standing for `weight`
 * allocated bytes. */
static void* Sample(size_t size, int64_t weight) {
  void* frames[MAX_FRAMES + SKIP_FRAMES];
  in_hook = 1;
  const int got = backtrace(frames, MAX_FRAMES + SKIP_FRAMES);
  in_hook = 0;
  const int depth = got > SKIP_FRAMES ? got - SKIP_FRAMES : 0;
  char* base = __libc_malloc(size + HEADER);
  if (base == NULL) return NULL;
  pthread_mutex_lock(&mu);
  const int id = StackId(frames + SKIP_FRAMES, depth);
  if (id >= 0) {
    live += weight;
    total_sampled += weight;
    live_bytes[id] += weight;
    const int64_t step =
        snapshot_live / 200 > (1 << 20) ? snapshot_live / 200 : (1 << 20);
    if (live >= snapshot_live + step) {
      memcpy(peak_bytes, live_bytes, sizeof(int64_t) * (size_t)nstacks);
      snapshot_live = live;
    }
  }
  pthread_mutex_unlock(&mu);
  uint64_t* header = (uint64_t*)base;
  header[0] = id < 0 ? 0
                     : ((uint64_t)(id + 1) << WEIGHT_BITS) | (uint64_t)weight;
  header[1] = MAGIC;
  return base + HEADER;
}

/* Whether this allocation is sampled, and its weight. */
static int64_t Weigh(size_t size) {
  if (!ready || in_hook) return 0;
  until_sample -= (double)size;
  if (until_sample > 0) return 0;
  int64_t crossed = 0;
  while (until_sample <= 0) {
    until_sample += NextInterval();
    ++crossed;
  }
  return (int64_t)(crossed * SAMPLE_BYTES);
}

static int IsSampled(void* p) {
  return ((const uint64_t*)p)[-1] == MAGIC;
}

static void Release(void* p) {
  uint64_t* header = (uint64_t*)((char*)p - HEADER);
  const uint64_t tag = header[0];
  if (tag != 0) {
    const int id = (int)(tag >> WEIGHT_BITS) - 1;
    const int64_t weight = (int64_t)(tag & ((1ULL << WEIGHT_BITS) - 1));
    pthread_mutex_lock(&mu);
    live -= weight;
    live_bytes[id] -= weight;
    pthread_mutex_unlock(&mu);
  }
  header[1] = 0;
  __libc_free(header);
}

void* malloc(size_t size) {
  const int64_t weight = Weigh(size);
  return weight > 0 ? Sample(size, weight) : __libc_malloc(size);
}

void* calloc(size_t n, size_t size) {
  if (size != 0 && n > SIZE_MAX / size) return NULL;
  const int64_t weight = Weigh(n * size);
  if (weight == 0) return __libc_calloc(n, size);
  void* p = Sample(n * size, weight);
  if (p != NULL) memset(p, 0, n * size);
  return p;
}

void free(void* p) {
  if (p == NULL) return;
  if (IsSampled(p)) {
    Release(p);
  } else {
    __libc_free(p);
  }
}

void* realloc(void* p, size_t size) {
  if (p == NULL) return malloc(size);
  if (!IsSampled(p)) return __libc_realloc(p, size);
  if (size == 0) {
    Release(p);
    return NULL;
  }
  const size_t old = malloc_usable_size((char*)p - HEADER) - HEADER;
  void* moved = malloc(size);
  if (moved == NULL) return NULL;
  memcpy(moved, p, old < size ? old : size);
  Release(p);
  return moved;
}

__attribute__((constructor)) static void Init(void) {
  stacks = Map(sizeof(Stack) * MAX_STACKS);
  stack_slot = Map(sizeof(int32_t) * 2 * MAX_STACKS);
  live_bytes = Map(sizeof(int64_t) * MAX_STACKS);
  peak_bytes = Map(sizeof(int64_t) * MAX_STACKS);
  if (!stacks || !stack_slot || !live_bytes || !peak_bytes) return;
  void* warm[4];
  in_hook = 1;
  backtrace(warm, 4); /* loads the unwinder outside any sampled call */
  in_hook = 0;
  ready = 1;
}

__attribute__((destructor)) static void Report(void) {
  if (!ready) return;
  in_hook = 1;
  pthread_mutex_lock(&mu);
  const char* dir = getenv("TMPDIR");
  char path[4096];
  snprintf(path, sizeof(path), "%s/autocomp-heap.%d.txt",
           dir != NULL && dir[0] != '\0' ? dir : "/tmp", (int)getpid());
  FILE* out = fopen(path, "w");
  if (out != NULL) {
    fprintf(out, "peak_bytes %lld\nsampled_bytes %lld\nsample_bytes %d\n",
            (long long)snapshot_live, (long long)total_sampled,
            (int)SAMPLE_BYTES);
    for (int id = 0; id < nstacks; ++id) {
      if (peak_bytes[id] <= 0) continue;
      fprintf(out, "stack %lld", (long long)peak_bytes[id]);
      for (int f = 0; f < stacks[id].depth; ++f) {
        Dl_info info;
        void* pc = stacks[id].pc[f];
        if (dladdr(pc, &info) != 0 && info.dli_fname != NULL) {
          /* A return address: the call is the byte before it. addr2line
           * takes offsets into position-independent objects and
           * absolute addresses into fixed-address executables. */
          const int fixed =
              ((const Elf64_Ehdr*)info.dli_fbase)->e_type == ET_EXEC;
          const char* origin = fixed ? NULL : (const char*)info.dli_fbase;
          fprintf(out, " %s+0x%lx", info.dli_fname,
                  (unsigned long)((const char*)pc - 1 - origin));
        } else {
          fprintf(out, " ?+0x%lx", (unsigned long)(uintptr_t)pc);
        }
      }
      fputc('\n', out);
    }
    fclose(out);
  }
  pthread_mutex_unlock(&mu);
}
