/* purec_rt.h — the one source of the purec runtime, in C11 with GCC
 * __atomic builtins. Parallel loops run on OpenMP; this header holds the
 * rest: the stats stream, the histogram cell math, the trace-array
 * append, the memo table and the --instrument counters.
 *
 * purecc embeds its sections into the OpenMP C it emits, so that output
 * stays self-contained (the build turns this header into a string; see
 * src/emit/runtime_sections.h). tests/runtime_test.cpp includes it and
 * calls the C API directly.
 *
 * Each section sits between a begin marker and an end marker; purecc
 * copies the bracketed text, markers included, and only for the sections
 * a program uses. Sections that hold process-global state (constructors,
 * registries, the emitted table) or C-only syntax (compound literals) are
 * compiled as C only. Every function a C++ translation unit sees is
 * static inline, so unused ones never warn. */
#ifndef PUREC_RT_H
#define PUREC_RT_H

/* purec-rt:begin stats */
#include <stdio.h>
#include <stdlib.h>
/* Shared stats stream: every exit-time dump (memo counters, --instrument
 * region summaries, the C++ runtime's purec-rt lines) resolves its
 * destination here, so the lines land on one stream and never interleave
 * with program stdout. PUREC_STATS_FILE names an append-mode file; unset
 * or unopenable falls back to stderr. */
static inline FILE* purec_stats_out(void) {
  static FILE* purec_stats_stream;
  const char* purec_stats_path;
  if (purec_stats_stream != 0) return purec_stats_stream;
  purec_stats_path = getenv("PUREC_STATS_FILE");
  if (purec_stats_path != 0 && purec_stats_path[0] != 0) {
    purec_stats_stream = fopen(purec_stats_path, "a");
  }
  if (purec_stats_stream == 0) purec_stats_stream = stderr;
  return purec_stats_stream;
}
/* purec-rt:end stats */

/* purec-rt:begin hist */
#include <stdint.h>
/* Log-bucketed latency histogram (HdrHistogram-style): values below
 * 2^PUREC_HIST_SUB_BITS are recorded exactly; above that, each
 * power-of-two range splits into PUREC_HIST_SUB linear sub-buckets, so
 * relative error is bounded at 1/PUREC_HIST_SUB across the whole 64-bit
 * domain. */
#define PUREC_HIST_SUB_BITS 3
#define PUREC_HIST_SUB 8
#define PUREC_HIST_CELLS 496

/* Cell index for a recorded value. Small values map to themselves; the
 * rest map to (exponent, sub-bucket) pairs in increasing value order. */
static inline unsigned purec_hist_index(uint64_t purec_v) {
  int purec_msb, purec_shift;
  if (purec_v < PUREC_HIST_SUB) return (unsigned)purec_v;
  purec_msb = 63 - __builtin_clzll(purec_v);
  purec_shift = purec_msb - PUREC_HIST_SUB_BITS;
  return (unsigned)(((purec_shift + 1) << PUREC_HIST_SUB_BITS) |
                    (int)((purec_v >> purec_shift) & (PUREC_HIST_SUB - 1)));
}

/* Smallest value that lands in cell `purec_i`. */
static inline uint64_t purec_hist_lower(unsigned purec_i) {
  int purec_shift;
  if (purec_i < PUREC_HIST_SUB) return purec_i;
  purec_shift = (int)(purec_i >> PUREC_HIST_SUB_BITS) - 1;
  return (uint64_t)(PUREC_HIST_SUB + (purec_i & (PUREC_HIST_SUB - 1)))
         << purec_shift;
}

/* Largest value that lands in cell `purec_i` (percentiles report this
 * bound, so exact-width cells report the exact recorded value). */
static inline uint64_t purec_hist_upper(unsigned purec_i) {
  if (purec_i < PUREC_HIST_SUB) return purec_i;
  return purec_hist_lower(purec_i) +
         ((1ULL << ((purec_i >> PUREC_HIST_SUB_BITS) - 1)) - 1ULL);
}

/* Value at the integer percentile `purec_percent` (1..100) of `purec_count`
 * observations: the upper bound of the first cell whose cumulative count
 * reaches ceil(percent/100 * count). 0 when the histogram is empty. */
static inline uint64_t purec_hist_pct(const uint64_t* purec_hist,
                                      uint64_t purec_count,
                                      unsigned purec_percent) {
  uint64_t purec_target, purec_cum;
  unsigned purec_c;
  if (purec_count == 0) return 0;
  purec_target = (purec_count * purec_percent + 99) / 100;
  if (purec_target == 0) purec_target = 1;
  if (purec_target > purec_count) purec_target = purec_count;
  purec_cum = 0;
  for (purec_c = 0; purec_c < PUREC_HIST_CELLS; purec_c++) {
    purec_cum += purec_hist[purec_c];
    if (purec_cum >= purec_target) return purec_hist_upper(purec_c);
  }
  return purec_hist_upper(PUREC_HIST_CELLS - 1);
}
/* purec-rt:end hist */

/* purec-rt:begin trace */
#include <stdio.h>
/* Opens a Chrome trace file for a cooperative array append: a fresh or
 * empty file starts a new array (*purec_first = 1); an existing file
 * ending in ']' is positioned ON that bracket so the dump's leading ','
 * overwrites it and the array keeps growing. Any other tail is appended
 * to as a fresh array — never corrupt what we do not understand. Every
 * --instrument dump opens its path here, so sequential dumps to one path
 * form one timeline. */
static inline FILE* purec_trace_open(const char* purec_path,
                                     int* purec_first) {
  FILE* purec_out;
  long purec_size, purec_n, purec_k;
  char purec_tail[8];
  *purec_first = 1;
  purec_out = fopen(purec_path, "r+");
  if (purec_out == 0) return fopen(purec_path, "w");
  fseek(purec_out, 0, SEEK_END);
  purec_size = ftell(purec_out);
  if (purec_size <= 0) return purec_out;
  purec_n = purec_size < 8 ? purec_size : 8;
  fseek(purec_out, purec_size - purec_n, SEEK_SET);
  if (fread(purec_tail, 1, (size_t)purec_n, purec_out) != (size_t)purec_n) {
    fseek(purec_out, 0, SEEK_END);
    return purec_out;
  }
  for (purec_k = purec_n - 1; purec_k >= 0; purec_k--) {
    char purec_c = purec_tail[purec_k];
    if (purec_c == ']') {
      fseek(purec_out, purec_size - purec_n + purec_k, SEEK_SET);
      *purec_first = 0;
      return purec_out;
    }
    if (purec_c != ' ' && purec_c != '\n' && purec_c != '\r' &&
        purec_c != '\t') {
      break;
    }
  }
  fseek(purec_out, 0, SEEK_END);
  return purec_out;
}
/* purec-rt:end trace */

/* purec-rt:begin memo */
/* Concurrent memoization table for pure-call results: sharded,
 * cache-line padded, open addressing within an 8-slot probe window,
 * per-slot seqlock publication (a torn read is a safe miss), clock
 * second-chance eviction when a window fills. PUREC_MEMO_PATH=FILE maps
 * the slot array from an mmap'd file so concurrent processes share one
 * cache that persists across restarts; a 64-byte header (magic, version,
 * ABI fingerprint, geometry, verify flag, ready state) is validated under
 * flock on attach and any mismatch falls back to a private in-process
 * table. Verify mode stores the raw key words next to each slot and
 * compares them on a hit, so a fingerprint alias degrades to a miss
 * instead of a wrong value. Cross-process safety is the same per-slot
 * seqlock: torn or stale reads are safe misses. */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#if defined(__unix__) || defined(__APPLE__)
#define PUREC_MEMO_MMAP 1
#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif
typedef uint64_t purec_memo_word;

/* Widest key tuple (in 64-bit words) a verify record can hold; wider
 * tuples bypass the cache under verify (a permanent, safe miss). Each
 * record is [count, words...]. */
#define PUREC_MEMO_VWORDS 12u
#define PUREC_MEMO_VSTRIDE (1u + PUREC_MEMO_VWORDS)
#define PUREC_MEMO_PROBE 8u
#define PUREC_MEMO_MAGIC 0x304d454d43525550ULL /* "PURCMEM0" */
/* Knob ceiling: 2^24 slots. Clamping keeps absurd values ("-1" wraps to
 * ULLONG_MAX through strtoull) from hanging the pow2 loop or OOM-ing. */
#define PUREC_MEMO_MAX_KNOB (1ULL << 24)
/* purec_memo_store outcomes; 0 means nothing was published. */
#define PUREC_MEMO_STORED 1
#define PUREC_MEMO_EVICTED 2 /* displaced a live entry */

typedef struct {
  purec_memo_word seq; /* even = stable, odd = mid-write */
  purec_memo_word tag; /* key fingerprint; 0 = empty */
  purec_memo_word value;
  purec_memo_word ref; /* clock second-chance bit */
} purec_memo_slot;

typedef struct {
  purec_memo_slot* slots;
  purec_memo_word* vwords; /* verify mode: PUREC_MEMO_VSTRIDE per slot */
  purec_memo_word slot_mask;
  char pad[64 - sizeof(purec_memo_slot*) - sizeof(purec_memo_word*) -
           sizeof(purec_memo_word)];
} purec_memo_shard;

typedef struct purec_memo_table {
  purec_memo_shard* shards;
  purec_memo_word shard_mask;
  unsigned probe;
  int verify; /* compare raw key words on hit */
  int ready;  /* 0 until init allocates: every call computes */
  /* Ownership, released by purec_memo_table_free: a private table owns
   * two heap blocks, a shared one owns the mapping and its fd. */
  purec_memo_slot* slot_mem;
  purec_memo_word* vword_mem;
  void* map;
  size_t map_len;
  int map_fd;
} purec_memo_table;

static inline purec_memo_word purec_memo_mix(purec_memo_word x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/* A PUREC_MEMO_SHARDS / PUREC_MEMO_CAP style knob: unset, unparsable or
 * zero values fall back silently (a bad knob must never turn correct
 * caching into a crash); the rest clamp to PUREC_MEMO_MAX_KNOB. */
static inline purec_memo_word purec_memo_env(const char* name,
                                             purec_memo_word fallback) {
  const char* v = getenv(name);
  char* end;
  unsigned long long parsed;
  if (v == 0 || *v == 0) return fallback;
  parsed = strtoull(v, &end, 10);
  if (*end != 0 || parsed == 0) return fallback;
  return parsed > PUREC_MEMO_MAX_KNOB ? PUREC_MEMO_MAX_KNOB : parsed;
}

static inline purec_memo_word purec_memo_pow2(purec_memo_word v) {
  purec_memo_word p = 1;
  while (p <= v / 2) p *= 2;
  return p;
}

static inline purec_memo_word purec_memo_clamp(purec_memo_word v) {
  if (v == 0) return 1;
  return v > PUREC_MEMO_MAX_KNOB ? PUREC_MEMO_MAX_KNOB : v;
}

#ifdef PUREC_MEMO_MMAP
/* Maps the slot array (and verify sidecar) from `path`. flock serializes
 * create-vs-attach: the creator sizes the file and publishes the header
 * before any attacher reads it; a creator killed mid-init leaves state
 * != 2 and attachers reject the husk. Returns 0 on any mismatch so the
 * caller falls back to the private table; on success the mapping and fd
 * belong to `t`. */
static inline int purec_memo_attach(purec_memo_table* t, const char* path,
                                    purec_memo_word shards,
                                    purec_memo_word per) {
  purec_memo_word nslots = shards * per;
  size_t slots_bytes = (size_t)nslots * sizeof(purec_memo_slot);
  size_t vwords = t->verify ? (size_t)nslots * PUREC_MEMO_VSTRIDE : 0;
  size_t total = 64 + slots_bytes + vwords * sizeof(purec_memo_word);
  /* ABI fingerprint over the slot/verify layout: 32-byte slots, 13-word
   * verify stride; verify mode changes what the bytes after the slot
   * array mean, so it is part of the ABI. */
  purec_memo_word abi =
      purec_memo_mix(0x5043ULL ^ (32ULL << 8) ^ (13ULL << 16) ^
                     (t->verify ? (1ULL << 24) : 0ULL));
  struct stat st;
  unsigned char* base;
  purec_memo_word* h;
  int fresh;
  int fd = open(path, O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return 0;
  if (flock(fd, LOCK_EX) != 0) {
    close(fd);
    return 0;
  }
  if (fstat(fd, &st) != 0) {
    flock(fd, LOCK_UN);
    close(fd);
    return 0;
  }
  fresh = st.st_size == 0;
  if (fresh ? ftruncate(fd, (off_t)total) != 0
            : (st.st_size < 0 || (purec_memo_word)st.st_size != total)) {
    flock(fd, LOCK_UN);
    close(fd);
    return 0;
  }
  base = (unsigned char*)mmap(0, total, PROT_READ | PROT_WRITE, MAP_SHARED,
                              fd, 0);
  if (base == MAP_FAILED) {
    flock(fd, LOCK_UN);
    close(fd);
    return 0;
  }
  h = (purec_memo_word*)base;
  if (fresh) {
    /* ftruncate zero-fills, so every slot is already empty. */
    h[0] = PUREC_MEMO_MAGIC;
    h[1] = 1; /* file format version */
    h[2] = abi;
    h[3] = shards;
    h[4] = per;
    h[5] = t->verify ? 1 : 0;
    __atomic_store_n(&h[6], 2ULL, __ATOMIC_RELEASE); /* ready */
  } else if (__atomic_load_n(&h[6], __ATOMIC_ACQUIRE) != 2ULL ||
             h[0] != PUREC_MEMO_MAGIC || h[1] != 1 || h[2] != abi ||
             h[3] != shards || h[4] != per ||
             h[5] != (purec_memo_word)(t->verify ? 1 : 0)) {
    munmap(base, total);
    flock(fd, LOCK_UN);
    close(fd);
    return 0;
  }
  flock(fd, LOCK_UN);
  t->map = base;
  t->map_len = total;
  t->map_fd = fd;
  return 1;
}
#endif

/* Releases what purec_memo_table_init acquired and leaves `t` not ready.
 * Emitted programs keep their table for the process lifetime. */
static inline void purec_memo_table_free(purec_memo_table* t) {
#ifdef PUREC_MEMO_MMAP
  if (t->map != 0) munmap(t->map, t->map_len);
  if (t->map_fd >= 0) close(t->map_fd);
#endif
  free(t->slot_mem);
  free(t->vword_mem);
  free(t->shards);
  memset(t, 0, sizeof(*t));
  t->map_fd = -1;
}

/* Sizes `t` to `shards` x (`cap` / shards) slots, both rounded down to
 * powers of two and clamped to [1, PUREC_MEMO_MAX_KNOB]; a budget below
 * the shard count collapses shards instead of rounding the budget up.
 * With a non-empty `path` the slots live in that shared file when its
 * header matches, else in private memory. Returns t->ready: 0 when
 * allocation failed, and every lookup then misses. */
static inline int purec_memo_table_init(purec_memo_table* t,
                                        purec_memo_word shards,
                                        purec_memo_word cap, int verify,
                                        const char* path) {
  purec_memo_word per, nslots, s;
  purec_memo_slot* slots;
  purec_memo_word* vwords = 0;
  memset(t, 0, sizeof(*t));
  t->map_fd = -1;
  t->verify = verify;
  shards = purec_memo_pow2(purec_memo_clamp(shards));
  cap = purec_memo_clamp(cap);
  if (cap < shards) shards = purec_memo_pow2(cap);
  per = purec_memo_pow2(cap / shards);
  nslots = shards * per;
#ifdef PUREC_MEMO_MMAP
  if (path != 0 && path[0] != 0) purec_memo_attach(t, path, shards, per);
#else
  (void)path;
#endif
  if (t->map != 0) {
    slots = (purec_memo_slot*)((unsigned char*)t->map + 64);
    vwords = verify ? (purec_memo_word*)(slots + nslots) : 0;
  } else {
    slots = t->slot_mem =
        (purec_memo_slot*)calloc(nslots, sizeof(purec_memo_slot));
    if (slots == 0) return 0;
    if (verify) {
      vwords = t->vword_mem = (purec_memo_word*)calloc(
          (size_t)nslots * PUREC_MEMO_VSTRIDE, sizeof(purec_memo_word));
      if (vwords == 0) return 0;
    }
  }
  t->shards = (purec_memo_shard*)calloc(shards, sizeof(purec_memo_shard));
  if (t->shards == 0) return 0;
  for (s = 0; s < shards; s++) {
    t->shards[s].slots = slots + s * per;
    t->shards[s].vwords = verify ? vwords + s * per * PUREC_MEMO_VSTRIDE : 0;
    t->shards[s].slot_mask = per - 1;
  }
  t->shard_mask = shards - 1;
  t->probe = PUREC_MEMO_PROBE > per ? (unsigned)per : PUREC_MEMO_PROBE;
  t->ready = 1;
  return 1;
}

/* The shard a key lives in: its high bits, so shards and the in-shard
 * home slot (low bits) stay independent. */
static inline purec_memo_word purec_memo_shard_index(
    const purec_memo_table* t, purec_memo_word key) {
  return (key >> 40) & t->shard_mask;
}

/* 1 and *value filled on a hit; marks the slot referenced for the clock
 * sweep. Never blocks: a concurrent writer degrades a hit to a miss. */
static inline int purec_memo_lookup(const purec_memo_table* t,
                                    purec_memo_word key,
                                    const purec_memo_word* kw, unsigned kn,
                                    purec_memo_word* value) {
  purec_memo_shard* sh;
  unsigned i, w;
  if (!t->ready) return 0;
  if (t->verify && kn > PUREC_MEMO_VWORDS) return 0; /* too wide */
  sh = &t->shards[purec_memo_shard_index(t, key)];
  for (i = 0; i < t->probe; i++) {
    purec_memo_word idx = (key + i) & sh->slot_mask;
    purec_memo_slot* s = &sh->slots[idx];
    purec_memo_word s1 = __atomic_load_n(&s->seq, __ATOMIC_ACQUIRE);
    purec_memo_word tag, val;
    int verified = 1;
    if (s1 & 1u) continue;
    /* Acquire loads keep the seq re-read below after every data load
     * (a fence would too, but ThreadSanitizer does not model fences). */
    tag = __atomic_load_n(&s->tag, __ATOMIC_ACQUIRE);
    val = __atomic_load_n(&s->value, __ATOMIC_ACQUIRE);
    if (t->verify && tag == key) {
      const purec_memo_word* rec = sh->vwords + idx * PUREC_MEMO_VSTRIDE;
      verified = __atomic_load_n(&rec[0], __ATOMIC_ACQUIRE) == kn;
      for (w = 0; verified && w < kn; w++)
        verified = __atomic_load_n(&rec[1 + w], __ATOMIC_ACQUIRE) == kw[w];
    }
    if (__atomic_load_n(&s->seq, __ATOMIC_RELAXED) != s1) continue;
    if (tag == key) {
      if (!verified) return 0; /* fingerprint alias: recompute */
      *value = val;
      __atomic_store_n(&s->ref, 1, __ATOMIC_RELAXED);
      return 1;
    }
    if (tag == 0) return 0; /* the window never re-opens holes past here */
  }
  return 0;
}

static inline int purec_memo_claim(const purec_memo_table* t,
                                   purec_memo_shard* sh, purec_memo_word idx,
                                   purec_memo_word key, purec_memo_word value,
                                   const purec_memo_word* kw, unsigned kn) {
  purec_memo_slot* s = &sh->slots[idx];
  purec_memo_word s1 = __atomic_load_n(&s->seq, __ATOMIC_RELAXED);
  unsigned w;
  if (s1 & 1u) return 0;
  if (!__atomic_compare_exchange_n(&s->seq, &s1, s1 + 1, 0,
                                   __ATOMIC_ACQUIRE, __ATOMIC_RELAXED))
    return 0;
  __atomic_store_n(&s->tag, key, __ATOMIC_RELAXED);
  __atomic_store_n(&s->value, value, __ATOMIC_RELAXED);
  __atomic_store_n(&s->ref, 0, __ATOMIC_RELAXED);
  if (t->verify) {
    purec_memo_word* rec = sh->vwords + idx * PUREC_MEMO_VSTRIDE;
    __atomic_store_n(&rec[0], (purec_memo_word)kn, __ATOMIC_RELAXED);
    for (w = 0; w < kn; w++)
      __atomic_store_n(&rec[1 + w], kw[w], __ATOMIC_RELAXED);
  }
  __atomic_store_n(&s->seq, s1 + 2, __ATOMIC_RELEASE);
  return 1;
}

/* Publishes key -> value. Idempotent for a resident key (pure results
 * are deterministic) except under verify, where a resident fingerprint
 * alias is replaced. A full window evicts by clock second chance, and the
 * home slot loses when every slot was referenced. Returns
 * PUREC_MEMO_EVICTED when a live entry was displaced, PUREC_MEMO_STORED
 * for any other publish, and 0 when nothing was published (duplicate,
 * too wide, lost race). */
static inline int purec_memo_store(const purec_memo_table* t,
                                   purec_memo_word key,
                                   const purec_memo_word* kw, unsigned kn,
                                   purec_memo_word value) {
  purec_memo_shard* sh;
  unsigned i, w;
  purec_memo_word old_tag;
  if (!t->ready) return 0;
  if (t->verify && kn > PUREC_MEMO_VWORDS) return 0;
  sh = &t->shards[purec_memo_shard_index(t, key)];
  for (i = 0; i < t->probe; i++) {
    purec_memo_word idx = (key + i) & sh->slot_mask;
    purec_memo_slot* s = &sh->slots[idx];
    purec_memo_word tag = __atomic_load_n(&s->tag, __ATOMIC_RELAXED);
    if (tag == key) {
      const purec_memo_word* rec;
      int same;
      if (!t->verify) return 0; /* resident value is identical */
      /* Under verify a resident fingerprint alias must be replaced or
       * this key would miss forever; the unlocked compare only risks one
       * redundant republish. */
      rec = sh->vwords + idx * PUREC_MEMO_VSTRIDE;
      same = __atomic_load_n(&rec[0], __ATOMIC_RELAXED) == kn;
      for (w = 0; same && w < kn; w++)
        same = __atomic_load_n(&rec[1 + w], __ATOMIC_RELAXED) == kw[w];
      if (same) return 0;
      if (purec_memo_claim(t, sh, idx, key, value, kw, kn))
        return PUREC_MEMO_EVICTED;
      continue;
    }
    if (tag == 0 && purec_memo_claim(t, sh, idx, key, value, kw, kn))
      return PUREC_MEMO_STORED;
  }
  /* Full window: clock second chance. Clear reference bits while
   * sweeping; the first slot already unreferenced is the victim. When
   * every slot was referenced, the home slot loses. */
  for (i = 0; i < t->probe; i++) {
    purec_memo_word idx = (key + i) & sh->slot_mask;
    purec_memo_slot* s = &sh->slots[idx];
    if (__atomic_exchange_n(&s->ref, 0, __ATOMIC_RELAXED) != 0) continue;
    old_tag = __atomic_load_n(&s->tag, __ATOMIC_RELAXED);
    if (purec_memo_claim(t, sh, idx, key, value, kw, kn))
      return old_tag != 0 && old_tag != key ? PUREC_MEMO_EVICTED
                                            : PUREC_MEMO_STORED;
  }
  old_tag = __atomic_load_n(&sh->slots[key & sh->slot_mask].tag,
                            __ATOMIC_RELAXED);
  if (purec_memo_claim(t, sh, key & sh->slot_mask, key, value, kw, kn))
    return old_tag != 0 && old_tag != key ? PUREC_MEMO_EVICTED
                                          : PUREC_MEMO_STORED;
  return 0;
}
/* purec-rt:end memo */

#ifndef __cplusplus
/* purec-rt:begin memo_program */
/* The emitted program's table and its knobs: PUREC_MEMO_SHARDS,
 * PUREC_MEMO_CAP (total slots), PUREC_MEMO_PATH=FILE (shared persistent
 * table), PUREC_MEMO_VERIFY=1 (full-key compare on hits;
 * --memoize=verify flips the compiled-in default), PUREC_MEMO_STATS=1
 * (per-thunk hit/miss/eviction counters dumped at exit to
 * purec_stats_out(); the counters are dead branches when the knob is
 * off, and they stay per-process even on a shared table). */
#ifndef PUREC_MEMO_VERIFY_DEFAULT
#define PUREC_MEMO_VERIFY_DEFAULT 0
#endif
typedef union {
  float v;
  unsigned int b;
} purec_memo_f32;
typedef union {
  double v;
  purec_memo_word b;
} purec_memo_f64;

typedef struct {
  const char* name;
  purec_memo_word hits, misses, evictions;
} purec_memo_stats_entry;

static purec_memo_table purec_memo_tab;
static purec_memo_stats_entry* purec_memo_stats_tables[64];
static unsigned purec_memo_stats_count;
static unsigned purec_memo_stats_dropped;
static int purec_memo_stats_on; /* PUREC_MEMO_STATS=1 */

static void purec_memo_stats_dump(void) {
  unsigned i;
  if (purec_memo_stats_dropped != 0)
    fprintf(purec_stats_out(),
            "purec-memo: %u thunk counter(s) not shown (registry full)\n",
            purec_memo_stats_dropped);
  for (i = 0; i < purec_memo_stats_count; i++) {
    purec_memo_stats_entry* e = purec_memo_stats_tables[i];
    fprintf(purec_stats_out(),
            "purec-memo[%s] hits=%llu misses=%llu evictions=%llu\n", e->name,
            (unsigned long long)__atomic_load_n(&e->hits, __ATOMIC_RELAXED),
            (unsigned long long)__atomic_load_n(&e->misses, __ATOMIC_RELAXED),
            (unsigned long long)__atomic_load_n(&e->evictions,
                                                __ATOMIC_RELAXED));
  }
}

/* Thunk registrars run as constructors too; registration is
 * unconditional (the env gate lives on the counting and the dump) so
 * constructor order cannot drop a table. */
static void purec_memo_stats_register(purec_memo_stats_entry* e) {
  if (purec_memo_stats_count <
      sizeof(purec_memo_stats_tables) / sizeof(purec_memo_stats_tables[0]))
    purec_memo_stats_tables[purec_memo_stats_count++] = e;
  else
    purec_memo_stats_dropped++;
}

#define PUREC_MEMO_STAT_INC(counter)                         \
  do {                                                       \
    if (purec_memo_stats_on)                                 \
      __atomic_fetch_add((counter), 1ULL, __ATOMIC_RELAXED); \
  } while (0)

__attribute__((constructor)) static void purec_memo_init(void) {
  const char* stats = getenv("PUREC_MEMO_STATS");
  const char* verify = getenv("PUREC_MEMO_VERIFY");
  purec_memo_word shards = purec_memo_env("PUREC_MEMO_SHARDS", 8);
  purec_memo_word cap = purec_memo_env("PUREC_MEMO_CAP", 65536);
  int verify_on = verify != 0 ? verify[0] == '1' : PUREC_MEMO_VERIFY_DEFAULT;
  purec_memo_stats_on = stats != 0 && stats[0] == '1';
  if (purec_memo_stats_on) atexit(purec_memo_stats_dump);
  purec_memo_table_init(&purec_memo_tab, shards, cap, verify_on,
                        getenv("PUREC_MEMO_PATH"));
}

/* Key folding, one argument or snapshot global at a time: the raw word
 * goes into the key-word array (verify mode compares it on a hit) and is
 * mixed into the fingerprint. Values travel as bit patterns. */
#define PUREC_MEMO_KEY_F32(k, kw, n, x)     \
  do {                                      \
    purec_memo_f32 purec_u;                 \
    purec_u.v = (x);                        \
    (kw)[(n)] = (purec_memo_word)purec_u.b; \
    (k) = purec_memo_mix((k) ^ (kw)[(n)]);  \
    (n)++;                                  \
  } while (0)
#define PUREC_MEMO_KEY_F64(k, kw, n, x)    \
  do {                                     \
    purec_memo_f64 purec_u;                \
    purec_u.v = (x);                       \
    (kw)[(n)] = purec_u.b;                 \
    (k) = purec_memo_mix((k) ^ (kw)[(n)]); \
    (n)++;                                 \
  } while (0)
#define PUREC_MEMO_KEY_INT(k, kw, n, x)    \
  do {                                     \
    (kw)[(n)] = (purec_memo_word)(x);      \
    (k) = purec_memo_mix((k) ^ (kw)[(n)]); \
    (n)++;                                 \
  } while (0)
#define PUREC_MEMO_PACK_F32(x) ((purec_memo_word)((purec_memo_f32){(x)}).b)
#define PUREC_MEMO_PACK_F64(x) ((purec_memo_f64){(x)}).b
#define PUREC_MEMO_UNPACK_F32(w) \
  (((purec_memo_f32){.b = (unsigned int)(w)}).v)
#define PUREC_MEMO_UNPACK_F64(w) (((purec_memo_f64){.b = (w)}).v)
/* purec-rt:end memo_program */

/* purec-rt:begin instrument */
#include <time.h>
/* --instrument runtime: per-region invocation/wall-time counters,
 * per-worker chunk tallies, and a purec_hist_* wall-time histogram per
 * region. Workers bump their own cache-line-padded cell with a relaxed
 * __atomic add (the per-CPU counter pattern), so the hot path is one
 * padded add per claimed outer iteration — no lock, no shared line. The
 * atexit dump writes a human summary (with p50/p90/p99) to
 * purec_stats_out(); with PUREC_TRACE=FILE set it instead writes Chrome
 * trace-event JSON (one "X" duration event per region execution carrying
 * the region's stable id in args, one "C" counter event per region with
 * the per-worker totals, "M" metadata naming process and thread) for
 * chrome://tracing or Perfetto, appended cooperatively through
 * purec_trace_open(). */
typedef unsigned long long purec_instr_u64;
#define PUREC_INSTR_MAX_WORKERS 64
#define PUREC_INSTR_MAX_REGIONS 64
#define PUREC_INSTR_TRACE_CAP 65536
typedef struct {
  purec_instr_u64 count;
  char purec_pad[56];
} purec_instr_cell;
typedef struct {
  const char* name; /* "function:line" of the transformed nest */
  unsigned id;      /* stable region id; joins report scops[].region_id */
  purec_instr_u64 invocations;
  purec_instr_u64 total_ns;
  uint64_t hist[PUREC_HIST_CELLS]; /* wall time (ns) */
  purec_instr_cell chunks[PUREC_INSTR_MAX_WORKERS];
} purec_instr_region_t;
typedef struct {
  const purec_instr_region_t* region;
  purec_instr_u64 begin_ns;
  purec_instr_u64 end_ns;
} purec_instr_event;

static purec_instr_region_t* purec_instr_regions[PUREC_INSTR_MAX_REGIONS];
static unsigned purec_instr_region_count;
static purec_instr_event* purec_instr_events;
static unsigned long purec_instr_event_next;

#ifdef _OPENMP
int omp_get_thread_num(void);
#endif

static purec_instr_u64 purec_instr_now(void) {
  struct timespec purec_instr_ts;
  clock_gettime(CLOCK_MONOTONIC, &purec_instr_ts);
  return (purec_instr_u64)purec_instr_ts.tv_sec * 1000000000ULL +
         (purec_instr_u64)purec_instr_ts.tv_nsec;
}

static void purec_instr_chunk(purec_instr_region_t* purec_r) {
  unsigned purec_w = 0;
#ifdef _OPENMP
  purec_w = (unsigned)omp_get_thread_num() & (PUREC_INSTR_MAX_WORKERS - 1);
#endif
  __atomic_fetch_add(&purec_r->chunks[purec_w].count, 1ULL, __ATOMIC_RELAXED);
}

static void purec_instr_region_done(purec_instr_region_t* purec_r,
                                    purec_instr_u64 purec_begin_ns) {
  purec_instr_u64 purec_end_ns = purec_instr_now();
  __atomic_fetch_add(&purec_r->invocations, 1ULL, __ATOMIC_RELAXED);
  __atomic_fetch_add(&purec_r->total_ns, purec_end_ns - purec_begin_ns,
                     __ATOMIC_RELAXED);
  __atomic_fetch_add(
      &purec_r->hist[purec_hist_index(purec_end_ns - purec_begin_ns)], 1ULL,
      __ATOMIC_RELAXED);
  if (purec_instr_events != 0) {
    unsigned long purec_slot =
        __atomic_fetch_add(&purec_instr_event_next, 1UL, __ATOMIC_RELAXED);
    if (purec_slot < PUREC_INSTR_TRACE_CAP) {
      purec_instr_events[purec_slot].region = purec_r;
      purec_instr_events[purec_slot].begin_ns = purec_begin_ns;
      purec_instr_events[purec_slot].end_ns = purec_end_ns;
    }
  }
}

static void purec_instr_register(purec_instr_region_t* purec_r) {
  if (purec_instr_region_count < PUREC_INSTR_MAX_REGIONS) {
    purec_instr_regions[purec_instr_region_count++] = purec_r;
  }
}

static void purec_instr_dump(void) {
  const char* purec_trace_path = getenv("PUREC_TRACE");
  unsigned purec_i, purec_w;
  if (purec_trace_path != 0 && purec_trace_path[0] != 0 &&
      purec_instr_events != 0) {
    int purec_first = 1;
    FILE* purec_out = purec_trace_open(purec_trace_path, &purec_first);
    if (purec_out != 0) {
      unsigned long purec_n =
          __atomic_load_n(&purec_instr_event_next, __ATOMIC_RELAXED);
      unsigned long purec_dropped = 0;
      unsigned long purec_k;
      if (purec_n > PUREC_INSTR_TRACE_CAP) {
        purec_dropped = purec_n - PUREC_INSTR_TRACE_CAP;
        purec_n = PUREC_INSTR_TRACE_CAP;
      }
      fputc(purec_first ? '[' : ',', purec_out);
      fprintf(purec_out,
              "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
              "\"args\":{\"name\":\"purec-instr\"}}");
      fprintf(purec_out,
              ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
              "\"tid\":1,\"args\":{\"name\":\"main\"}}");
      for (purec_k = 0; purec_k < purec_n; purec_k++) {
        const purec_instr_event* purec_e = &purec_instr_events[purec_k];
        fprintf(purec_out,
                ",\n{\"name\":\"%s\",\"cat\":\"region\",\"ph\":\"X\","
                "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                "\"args\":{\"region_id\":%u}}",
                purec_e->region->name, (double)purec_e->begin_ns / 1000.0,
                (double)(purec_e->end_ns - purec_e->begin_ns) / 1000.0,
                purec_e->region->id);
      }
      for (purec_i = 0; purec_i < purec_instr_region_count; purec_i++) {
        const purec_instr_region_t* purec_r = purec_instr_regions[purec_i];
        int purec_any = 0;
        int purec_first_arg = 1;
        for (purec_w = 0; purec_w < PUREC_INSTR_MAX_WORKERS; purec_w++) {
          if (purec_r->chunks[purec_w].count != 0) purec_any = 1;
        }
        if (!purec_any) continue;
        fprintf(purec_out,
                ",\n{\"name\":\"%s chunks\",\"ph\":\"C\",\"pid\":1,"
                "\"ts\":%.3f,\"args\":{",
                purec_r->name, (double)purec_instr_now() / 1000.0);
        for (purec_w = 0; purec_w < PUREC_INSTR_MAX_WORKERS; purec_w++) {
          if (purec_r->chunks[purec_w].count == 0) continue;
          fprintf(purec_out, "%s\"w%u\":%llu", purec_first_arg ? "" : ",",
                  purec_w, purec_r->chunks[purec_w].count);
          purec_first_arg = 0;
        }
        fprintf(purec_out, "}}");
      }
      if (purec_dropped != 0) {
        fprintf(purec_out,
                ",\n{\"name\":\"purec: trace ring overflow\","
                "\"ph\":\"i\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                "\"s\":\"g\",\"args\":{\"dropped\":%lu}}",
                (double)purec_instr_now() / 1000.0, purec_dropped);
      }
      fprintf(purec_out, "\n]\n");
      fclose(purec_out);
      return;
    }
  }
  for (purec_i = 0; purec_i < purec_instr_region_count; purec_i++) {
    const purec_instr_region_t* purec_r = purec_instr_regions[purec_i];
    if (purec_r->invocations == 0) continue;
    fprintf(purec_stats_out(),
            "purec-instr[%s] invocations=%llu total_ns=%llu "
            "p50_ns=%llu p90_ns=%llu p99_ns=%llu",
            purec_r->name, purec_r->invocations, purec_r->total_ns,
            (unsigned long long)purec_hist_pct(purec_r->hist,
                                               purec_r->invocations, 50),
            (unsigned long long)purec_hist_pct(purec_r->hist,
                                               purec_r->invocations, 90),
            (unsigned long long)purec_hist_pct(purec_r->hist,
                                               purec_r->invocations, 99));
    for (purec_w = 0; purec_w < PUREC_INSTR_MAX_WORKERS; purec_w++) {
      if (purec_r->chunks[purec_w].count == 0) continue;
      fprintf(purec_stats_out(), " w%u=%llu", purec_w,
              purec_r->chunks[purec_w].count);
    }
    fprintf(purec_stats_out(), "\n");
  }
}

__attribute__((constructor)) static void purec_instr_init(void) {
  const char* purec_trace_path = getenv("PUREC_TRACE");
  if (purec_trace_path != 0 && purec_trace_path[0] != 0) {
    purec_instr_events = (purec_instr_event*)calloc(
        PUREC_INSTR_TRACE_CAP, sizeof(purec_instr_event));
  }
  atexit(purec_instr_dump);
}
/* purec-rt:end instrument */
#endif /* !__cplusplus */

#endif /* PUREC_RT_H */
