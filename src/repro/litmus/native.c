/*
 * Native core of the direct litmus runner (repro.litmus.runner).
 *
 * It carries one execution's PCG64 stream from seeding to the last
 * round.  repro_pcg64_seed computes the stream the Python path would
 * build with np.random.default_rng(derive_seed(span_seed, index)) and
 * pre-draws its first block; repro_pcg64_fill pre-draws the next one.
 * Python makes the stress spec's draws from those blocks
 * (repro.rng.BufferedRNG's emulation), and repro_ldst2_execution then
 * continues the same stream in place.
 *
 * repro_ldst2_execution runs one whole execution of a two-thread ld/st
 * litmus test: up to `rounds` rounds, stopping at the first round that
 * shows the forbidden outcome.  It is a second implementation of
 * runner._one_round on this shape, on the memory model it shares with
 * the engine core (repro/gpu/memsys.h, found with -I on that
 * directory).  It consumes the PCG64 stream draw for draw as the Python
 * path does, so every statistic is identical.  Change the round with
 * runner.py and the model with memory.py; tests/test_native_litmus.py
 * and tests/test_engine_core.py hold them equal.
 *
 * Plain C99 plus the gcc/clang `unsigned __int128` extension for the
 * PCG64 step; no Python headers.  repro.litmus.native builds and loads
 * it with ctypes.  Nothing here is a silent limit: every array is sized
 * from the plan and the chip on each call.
 *
 * The stream words `rng` (uint64[6]) are numpy's PCG64 state schema:
 * state (high, low), increment (high, low), has_uint32, uinteger.  The
 * state stands after the last pre-drawn word; the pending half word is
 * the caller's to keep between calls.
 *
 *   repro_pcg64_seed(span_seed, index, rng, raw, dbl, n)
 *           seeds `rng` for execution `index` in four public steps:
 *           derive_seed's last fold (CRC-32 of the decimal digits of
 *           `index`), numpy's SeedSequence mixing of the fold's one or
 *           two 32-bit words, SeedSequence.generate_state(4, uint64)
 *           and PCG64 seeding (pcg_setseq_128_srandom_r); then fills
 *           as below.
 *   repro_pcg64_fill(rng, raw, dbl, n)
 *           draws n raw words into raw[] and the same words as
 *           numpy's next_double into dbl[], advancing the state.
 *
 * Arguments of repro_ldst2_execution (all words are int64, every table
 * is float64, "slot" is a location's index in test.locations):
 *
 *   plan    n_locs, n_regs, len0, len1, n_conj, rounds, issue_ticks,
 *           drain_ticks, max_start_delay, then the address of every
 *           slot, then each thread's ops as (kind, slot, arg) triples
 *           (OP_ST: arg is the stored value; OP_LD: arg is the register
 *           index), then the forbidden outcome in disjunctive normal
 *           form: per conjunction its leaf count, then one
 *           (LEAF_REG|LEAF_LOC, index, value) triple per leaf.
 *   chip    the five words of ms_bind (memsys.h), then the channel of
 *           every slot.
 *   factors, tables
 *           as ms_bind takes them.
 *   p0, p1  the two threads' per-tick issue probabilities.
 *   sm0     the SM of thread 0 (0 or 1); thread 1 sits on the other.
 *   rng     in/out: the stream words, with the caller's pending half
 *           word in has_uint32/uinteger.
 *   unread  pre-drawn words the caller did not consume; the kernel
 *           steps the state back past them first.  On return the words
 *           hold the position after the execution, nothing pre-drawn.
 *
 * Returns 1 when a round was weak, 0 when none was, and a negative
 * error code when the workspace cannot be allocated (-1) or a buffer
 * invariant breaks (-2).
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef unsigned __int128 u128;

/* Op and condition-leaf kinds (runner._OP_* and runner._LEAF_*). */
enum { OP_ST = 0, OP_LD = 1 };
enum { LEAF_REG = 0, LEAF_LOC = 1 };

/* ---------------------------------------------------------------------
 * PCG64 (XSL-RR 128/64), its seeding, and numpy's output functions.
 * ------------------------------------------------------------------ */

typedef struct {
    u128 state;
    u128 inc;
    int has32;
    uint32_t u32;
} Rng;

#define PCG_MULT \
    ((((u128)2549297995355413924ULL) << 64) | (u128)4865540595714422341ULL)
/* PCG_MULT's inverse modulo 2**128: one step back. */
#define PCG_MULT_INV \
    ((((u128)0x07dda22b93979860ULL) << 64) | (u128)0x98abc8b0716eac8dULL)

/* Step first, then output (numpy's pcg64_random_r). */
static inline uint64_t rng_raw(Rng *r)
{
    r->state = r->state * PCG_MULT + r->inc;
    uint64_t x = (uint64_t)(r->state >> 64) ^ (uint64_t)r->state;
    unsigned rot = (unsigned)(r->state >> 122);
    return (x >> rot) | (x << ((64u - rot) & 63u));
}

/* numpy's next_double: (raw >> 11) * 2**-53. */
static inline double to_double(uint64_t raw)
{
    return (double)(raw >> 11) * (1.0 / 9007199254740992.0);
}

/* The next double, the round's and the memory model's draw. */
static inline double ms_double(Rng *r)
{
    return to_double(rng_raw(r));
}

static void rng_load(Rng *r, const uint64_t *w)
{
    r->state = ((u128)w[0] << 64) | w[1];
    r->inc = ((u128)w[2] << 64) | w[3];
    r->has32 = w[4] != 0;
    r->u32 = (uint32_t)w[5];
}

static void rng_store(const Rng *r, uint64_t *w)
{
    w[0] = (uint64_t)(r->state >> 64);
    w[1] = (uint64_t)r->state;
    w[2] = (uint64_t)(r->inc >> 64);
    w[3] = (uint64_t)r->inc;
    w[4] = (uint64_t)r->has32;
    w[5] = r->u32;
}

/* zlib's CRC-32 of the ASCII decimal digits of v (repr of an int). */
static uint32_t crc32_decimal(uint64_t v)
{
    char digits[20];
    int n = 0;
    do {
        digits[n++] = (char)('0' + v % 10);
        v /= 10;
    } while (v);
    uint32_t crc = 0xFFFFFFFFu;
    while (n--) {
        crc ^= (uint8_t)digits[n];
        for (int b = 0; b < 8; b++)
            crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
    return ~crc;
}

/* numpy's SeedSequence constants (bit_generator.pyx). */
enum { SS_POOL = 4 };
#define SS_INIT_A 0x43b0d7e5u
#define SS_MULT_A 0x931e8875u
#define SS_INIT_B 0x8b51f9ddu
#define SS_MULT_B 0x58f38dedu
#define SS_MIX_L 0xca01f9ddu
#define SS_MIX_R 0x4973f715u

static uint32_t ss_hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= SS_MULT_A;
    value *= *hash_const;
    return value ^ (value >> 16);
}

static uint32_t ss_mix(uint32_t x, uint32_t y)
{
    uint32_t result = SS_MIX_L * x - SS_MIX_R * y;
    return result ^ (result >> 16);
}

/* np.random.default_rng(entropy): SeedSequence(entropy) mixes the
 * entropy's 32-bit words (low first) into its four-word pool, padding
 * with zeros, so a one-word entropy below 2**32 fills the pool as its
 * two-word form would; generate_state(4, uint64) pairs eight outputs
 * low-first, and PCG64 seeds from state = (s[0], s[1]), sequence =
 * (s[2], s[3]). */
static void rng_seed(Rng *r, uint64_t entropy)
{
    uint32_t words[SS_POOL] = {
        (uint32_t)entropy, (uint32_t)(entropy >> 32), 0, 0,
    };
    uint32_t pool[SS_POOL];
    uint32_t hash_const = SS_INIT_A;
    for (int i = 0; i < SS_POOL; i++)
        pool[i] = ss_hashmix(words[i], &hash_const);
    for (int src = 0; src < SS_POOL; src++)
        for (int dst = 0; dst < SS_POOL; dst++)
            if (src != dst)
                pool[dst] = ss_mix(pool[dst],
                                   ss_hashmix(pool[src], &hash_const));
    uint64_t s[4] = {0, 0, 0, 0};
    hash_const = SS_INIT_B;
    for (int i = 0; i < 8; i++) {
        uint32_t v = pool[i % SS_POOL] ^ hash_const;
        hash_const *= SS_MULT_B;
        v *= hash_const;
        v ^= v >> 16;
        s[i / 2] |= (uint64_t)v << (32 * (i % 2));
    }
    /* pcg_setseq_128_srandom_r: from state 0, one step (to inc), add
     * the initial state, one more step. */
    r->inc = ((((u128)s[2] << 64) | s[3]) << 1) | 1u;
    r->state = r->inc;
    r->state += ((u128)s[0] << 64) | s[1];
    r->state = r->state * PCG_MULT + r->inc;
    r->has32 = 0;
    r->u32 = 0;
}

void repro_pcg64_fill(uint64_t *rng, uint64_t *raw, double *dbl, int64_t n)
{
    Rng r;
    rng_load(&r, rng);
    for (int64_t k = 0; k < n; k++) {
        raw[k] = rng_raw(&r);
        dbl[k] = to_double(raw[k]);
    }
    rng_store(&r, rng);
}

void repro_pcg64_seed(uint64_t span_seed, uint64_t index, uint64_t *rng,
                      uint64_t *raw, double *dbl, int64_t n)
{
    Rng r;
    /* derive_seed(span_seed, index) */
    rng_seed(&r, span_seed * 6364136223846793005ULL
                 + crc32_decimal(index) + 1u);
    rng_store(&r, rng);
    repro_pcg64_fill(rng, raw, dbl, n);
}

/* numpy's next_uint32: the low half first, the high half kept. */
static inline uint32_t rng_next32(Rng *r)
{
    if (r->has32) {
        r->has32 = 0;
        return r->u32;
    }
    uint64_t x = rng_raw(r);
    r->has32 = 1;
    r->u32 = (uint32_t)(x >> 32);
    return (uint32_t)x;
}

/* numpy's buffered_bounded_lemire_uint32: one draw from [0, span). */
static uint32_t rng_lemire32(Rng *r, uint32_t span)
{
    if (span == 1)
        return 0;
    uint64_t m = (uint64_t)rng_next32(r) * span;
    uint32_t leftover = (uint32_t)m;
    if (leftover < span) {
        uint32_t threshold = (uint32_t)(0u - span) % span;
        while (leftover < threshold) {
            m = (uint64_t)rng_next32(r) * span;
            leftover = (uint32_t)m;
        }
    }
    return (uint32_t)(m >> 32);
}

/* ---------------------------------------------------------------------
 * The memory model (repro/gpu/memsys.h) over int64 words: a key is a
 * location's slot, memory holds one value per slot, and a load delivers
 * its value to its word of the round's load values.
 * ------------------------------------------------------------------ */

typedef int64_t ms_key, ms_value;
typedef int64_t *ms_handle, *ms_memory;
typedef Rng ms_rng;
#define MS_HOLD(x) ((void)(x))
#define MS_DROP(x) ((void)(x))

static inline int ms_store(int64_t *mem, int64_t slot, int64_t val)
{
    mem[slot] = val;
    return 0;
}

static inline int ms_resolve(int64_t *mem, int64_t *value, int64_t slot)
{
    *value = mem[slot];
    return 0;
}

#include "memsys.h"

/* ---------------------------------------------------------------------
 * One round (runner._one_round on two ld/st threads).
 * ------------------------------------------------------------------ */

typedef struct {
    MemSys ms;            /* the memory system; ms.rng is the stream */
    /* plan */
    int64_t n_locs, n_regs, n_conj, rounds, issue_ticks, drain_ticks;
    int64_t max_delay, len[2];
    const int64_t *addr, *chan;
    const int64_t *ops[2];
    const int64_t *dnf;
    /* execution state */
    double exec_p[2];
    int64_t sm[2];
    int64_t *regs;
    int64_t *value, *reg; /* this round's loads, in issue order */
    int64_t n_issued;
    int error;
} K;

static int forbidden(const K *k)
{
    const int64_t *c = k->dnf;
    for (int64_t i = 0; i < k->n_conj; i++) {
        int64_t n = *c++;
        int all = 1;
        for (int64_t j = 0; j < n; j++, c += 3) {
            int64_t v = c[0] == LEAF_REG ? k->regs[c[1]] : k->ms.mem[c[1]];
            if (v != c[2])
                all = 0;
        }
        if (all)
            return 1;
    }
    return 0;
}

/* issue_load into the round's next load value. */
static void issue(K *k, int t, int64_t slot, int64_t reg)
{
    int64_t i = k->n_issued++;
    Load h = {.handle = &k->value[i], .key = slot, .addr = k->addr[slot],
              .thread = t, .sm = k->sm[t], .ch = k->chan[slot]};
    k->reg[i] = reg;
    int wait = ms_issue_load(&k->ms, &h);
    if (wait == ISSUE_FORWARD)
        k->value[i] = ms_buf(&k->ms, h.sm)[h.arg].val;
    else if (wait == ISSUE_NOW)
        k->value[i] = k->ms.mem[slot];
    else if (ms_defer(&k->ms, &h) < 0)
        k->error = MS_ERROR;
}

/* No hook here fails, so the model's calls need no checks. */
static int one_round(K *k)
{
    MemSys *m = &k->ms;
    for (int64_t s = 0; s < k->n_locs; s++)
        m->mem[s] = 0;
    k->n_issued = 0;
    int64_t delay[2], pc[2] = {0, 0};
    delay[0] = rng_lemire32(&m->rng, (uint32_t)k->max_delay);
    delay[1] = rng_lemire32(&m->rng, (uint32_t)k->max_delay);
    int remaining = 2;
    /* Nothing can issue before the earlier delay expires. */
    int64_t start = delay[0] < delay[1] ? delay[0] : delay[1];
    m->tick += start;
    for (int64_t tick = start; tick < k->issue_ticks && remaining; tick++) {
        for (int t = 0; t < 2; t++) {
            if (pc[t] >= k->len[t] || tick < delay[t])
                continue;
            if (ms_double(&m->rng) >= k->exec_p[t])
                continue;
            const int64_t *op = k->ops[t] + 3 * pc[t];
            int64_t slot = op[1];
            if (op[0] == OP_LD) {
                issue(k, t, slot, op[2]);
            } else {
                if (ms_full(m, k->sm[t]))
                    continue;
                int rc = ms_write(m, k->sm[t], t, slot, op[2],
                                  k->addr[slot], k->chan[slot]);
                if (rc < 0)
                    k->error = rc;
            }
            if (++pc[t] == k->len[t])
                remaining--;
        }
        ms_step(m);
    }
    ms_drain_until(m, k->drain_ticks);
    ms_flush_all(m, 0);
    for (int64_t r = 0; r < k->n_regs; r++)
        k->regs[r] = 0;  /* a load never issued reads 0, as regs.get */
    for (int64_t i = 0; i < k->n_issued; i++)
        k->regs[k->reg[i]] = k->value[i];
    return forbidden(k);
}

int repro_ldst2_execution(const int64_t *plan, const int64_t *chip,
                          const double *factors, const double *tables,
                          double p0, double p1, int sm0, uint64_t *rng,
                          int64_t unread)
{
    K k;
    memset(&k, 0, sizeof k);
    k.n_locs = plan[0];
    k.n_regs = plan[1];
    k.len[0] = plan[2];
    k.len[1] = plan[3];
    k.n_conj = plan[4];
    k.rounds = plan[5];
    k.issue_ticks = plan[6];
    k.drain_ticks = plan[7];
    k.max_delay = plan[8];
    k.addr = plan + 9;
    k.ops[0] = k.addr + k.n_locs;
    k.ops[1] = k.ops[0] + 3 * k.len[0];
    k.dnf = k.ops[1] + 3 * k.len[1];
    k.chan = chip + 5;
    ms_bind(&k.ms, chip, factors, tables, 2);

    k.exec_p[0] = p0;
    k.exec_p[1] = p1;
    k.sm[0] = sm0;
    k.sm[1] = 1 - sm0;
    rng_load(&k.ms.rng, rng);
    for (int64_t i = 0; i < unread; i++)
        k.ms.rng.state = (k.ms.rng.state - k.ms.rng.inc) * PCG_MULT_INV;

    /* Size the workspace: a thread buffers at most its own stores and
     * at most the chip's capacity; a round issues each load once. */
    int64_t n_st = 0;
    for (int t = 0; t < 2; t++)
        for (int64_t i = 0; i < k.len[t]; i++)
            n_st += k.ops[t][3 * i] == OP_ST;
    int64_t n_ld = k.len[0] + k.len[1] - n_st;
    int64_t *work = ms_alloc(&k.ms, n_st < k.ms.buf_cap ? n_st : k.ms.buf_cap,
                             2, n_ld, (size_t)(k.n_locs + k.n_regs + 2 * n_ld)
                             * sizeof(int64_t));
    int rc = work == NULL ? MS_ERROR : 0;
    int weak = 0;
    if (rc == 0) {
        k.ms.mem = work;
        k.regs = work + k.n_locs;
        k.value = k.regs + k.n_regs;
        k.reg = k.value + n_ld;
        for (int64_t r = 0; r < k.rounds && !weak && !k.error; r++)
            weak = one_round(&k);
        rc = k.error;
    }
    ms_free(&k.ms);
    if (rc)
        return rc;
    rng_store(&k.ms.rng, rng);
    return weak;
}
