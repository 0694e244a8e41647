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
 * shows the forbidden outcome.  It is a second implementation of the
 * part of repro.gpu.memory.MemorySystem those rounds reach (write,
 * issue_load, the deferred-load and store-buffer steps, commit,
 * drain_until and flush_all) and of runner._one_round on this shape.
 * It consumes the PCG64 stream draw for draw as the Python path does,
 * so every statistic is identical; change the two together
 * (tests/test_native_litmus.py holds them equal).
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
 *   chip    n_channels, store-buffer capacity, swap min distance,
 *           minimum drain age, drain width, then the channel of every
 *           slot.
 *   factors store_swap_leak, parked-drain factor.
 *   tables  drain_p[n], bypass_p[n], slow_p[n], resolve_p[n],
 *           swap_p[n][n] (n = n_channels).
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
/* A deferred load's program-order constraint (DeferredLoad.block_mode). */
enum { WAIT_NONE = 0, WAIT_CHANNEL = 1, WAIT_STORES = 2, WAIT_LOAD = 3 };

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

static inline double rng_double(Rng *r)
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
 * The memory-system subset (repro.gpu.memory.MemorySystem).
 * ------------------------------------------------------------------ */

typedef struct {          /* one store-buffer entry */
    int64_t val;
    int64_t tick;
    int64_t thread;
    int64_t slot;
    int64_t ch;
    int64_t parked;
} Entry;

typedef struct {          /* one issued load (DeferredLoad) */
    int64_t value;
    int64_t thread;
    int64_t sm;
    int64_t slot;
    int64_t ch;
    int64_t reg;
    int64_t wait;         /* WAIT_* */
    int64_t arg;          /* channel, or the load waited on */
    int64_t resolved;
} Load;

typedef struct {
    /* plan */
    int64_t n_locs, n_regs, n_conj, rounds, issue_ticks, drain_ticks;
    int64_t max_delay;
    int64_t len[2];
    const int64_t *addr;
    const int64_t *ops[2];
    const int64_t *dnf;
    /* chip */
    int64_t n_ch, buf_cap, min_dist, min_age, drain_width;
    const int64_t *chan;
    double leak, parked_drain;
    const double *drain_p, *bypass_p, *slow_p, *resolve_p, *swap_p;
    /* execution state */
    Rng rng;
    double exec_p[2];
    int64_t sm[2];
    int64_t tick;
    int64_t *mem;         /* committed value per slot */
    int64_t *regs;
    Entry *buf[2];        /* store buffer per SM */
    int64_t blen[2];
    int64_t bsize;        /* entries allocated per buffer */
    int64_t n_buffered;
    Load *loads;          /* this round's loads, in issue order */
    int64_t n_loads;
    int64_t *deferred;    /* indices into loads, in list order */
    int64_t n_deferred;
    int error;
} K;

static void resolve(K *k, Load *h)
{
    h->value = k->mem[h->slot];
    h->resolved = 1;
}

/* _resolve_matching; ch < 0 stands for "no channel". */
static void resolve_matching(K *k, int64_t thread, int64_t slot, int64_t ch)
{
    int64_t out = 0;
    for (int64_t i = 0; i < k->n_deferred; i++) {
        Load *h = &k->loads[k->deferred[i]];
        if (!h->resolved && h->thread == thread
            && (h->slot == slot || (ch >= 0 && h->ch == ch)))
            resolve(k, h);
        if (!h->resolved)
            k->deferred[out++] = k->deferred[i];
    }
    k->n_deferred = out;
}

/* _commit */
static void commit(K *k, const Entry *e)
{
    if (k->n_deferred)
        resolve_matching(k, e->thread, e->slot, e->ch);
    k->mem[e->slot] = e->val;
}

/* write: 0 when the buffer is full. */
static int mem_write(K *k, int64_t sm, int64_t thread, int64_t slot,
                     int64_t val)
{
    if (k->blen[sm] >= k->buf_cap)
        return 0;
    if (k->n_deferred)
        resolve_matching(k, thread, slot, -1);
    if (k->blen[sm] >= k->bsize) {
        k->error = -2;
        return 0;
    }
    Entry *e = &k->buf[sm][k->blen[sm]++];
    e->val = val;
    e->tick = k->tick;
    e->thread = thread;
    e->slot = slot;
    e->ch = k->chan[slot];
    e->parked = 0;
    k->n_buffered++;
    return 1;
}

static void defer(K *k, int64_t index, int64_t wait, int64_t arg)
{
    Load *h = &k->loads[index];
    h->wait = wait;
    h->arg = arg;
    k->deferred[k->n_deferred++] = index;
}

/* issue_load */
static void issue_load(K *k, int64_t sm, int64_t thread, int64_t slot,
                       int64_t reg)
{
    int64_t ch = k->chan[slot];
    int64_t index = k->n_loads++;
    Load *h = &k->loads[index];
    h->value = 0;
    h->thread = thread;
    h->sm = sm;
    h->slot = slot;
    h->ch = ch;
    h->reg = reg;
    h->wait = WAIT_NONE;
    h->arg = -1;
    h->resolved = 0;
    /* Chain behind an earlier unresolved load by this thread on the same
     * channel or closer than the reorder distance. */
    for (int64_t i = 0; i < k->n_deferred; i++) {
        const Load *e = &k->loads[k->deferred[i]];
        int64_t gap = k->addr[e->slot] - k->addr[slot];
        if (gap < 0)
            gap = -gap;
        if (!e->resolved && e->thread == thread
            && (e->ch == ch || gap < k->min_dist)) {
            defer(k, index, WAIT_LOAD, k->deferred[i]);
            return;
        }
    }
    /* One reversed pass: forwarding, own latest entry, same channel. */
    const Entry *buf = k->buf[sm];
    int64_t own = -1;
    int same_ch = 0;
    for (int64_t j = k->blen[sm] - 1; j >= 0; j--) {
        if (buf[j].slot == slot) {
            h->value = buf[j].val;
            h->resolved = 1;
            return;
        }
        if (buf[j].thread == thread) {
            if (own < 0)
                own = j;
            if (buf[j].ch == ch)
                same_ch = 1;
        }
    }
    if (same_ch) {
        defer(k, index, WAIT_CHANNEL, ch);
        return;
    }
    if (own >= 0 && rng_double(&k->rng) >= k->bypass_p[buf[own].ch]) {
        defer(k, index, WAIT_STORES, -1);
        return;
    }
    if (rng_double(&k->rng) < k->slow_p[ch])
        defer(k, index, WAIT_NONE, -1);
    else
        resolve(k, h);
}

/* _unblocked */
static int unblocked(const K *k, const Load *h)
{
    if (h->wait == WAIT_LOAD)
        return (int)k->loads[h->arg].resolved;
    const Entry *buf = k->buf[h->sm];
    for (int64_t j = 0; j < k->blen[h->sm]; j++)
        if (buf[j].thread == h->thread
            && (h->wait == WAIT_STORES || buf[j].ch == h->arg))
            return 0;
    return 1;
}

/* _step_deferred */
static void step_deferred(K *k)
{
    int64_t out = 0;
    for (int64_t i = 0; i < k->n_deferred; i++) {
        int64_t index = k->deferred[i];
        Load *h = &k->loads[index];
        if (h->resolved)
            continue;
        int done;
        if (h->wait != WAIT_NONE)
            done = unblocked(k, h);
        else
            done = rng_double(&k->rng) < k->resolve_p[h->ch];
        if (done)
            resolve(k, h);
        else
            k->deferred[out++] = index;
    }
    k->n_deferred = out;
}

/* _oldest_for_addr */
static int oldest_for_addr(const Entry *buf, int64_t j)
{
    for (int64_t i = 0; i < j; i++)
        if (buf[i].slot == buf[j].slot)
            return 0;
    return 1;
}

/* _maybe_swap: 0, or the index of a younger entry that overtakes. */
static int64_t maybe_swap(K *k, const Entry *buf, int64_t n, int64_t horizon)
{
    const Entry *head = &buf[0];
    for (int64_t j = 1; j < n; j++) {
        const Entry *cand = &buf[j];
        if (cand->tick > horizon)
            break;
        if (cand->ch == head->ch) {
            if (k->leak <= 0.0)
                continue;
            /* Maxwell write-combining leak: rare same-channel swap. */
            if (rng_double(&k->rng) < k->leak && oldest_for_addr(buf, j))
                return j;
            continue;
        }
        int64_t gap = k->addr[cand->slot] - k->addr[head->slot];
        if (gap < 0)
            gap = -gap;
        if (gap < k->min_dist)
            continue;
        if (rng_double(&k->rng) < k->swap_p[head->ch * k->n_ch + cand->ch]
            && oldest_for_addr(buf, j))
            return j;
        return 0;
    }
    return 0;
}

/* Remove buf[index] of SM sm, keeping order, and commit it. */
static void drain_entry(K *k, int64_t sm, int64_t index)
{
    Entry *buf = k->buf[sm];
    Entry e = buf[index];
    memmove(&buf[index], &buf[index + 1],
            (size_t)(k->blen[sm] - index - 1) * sizeof(Entry));
    k->blen[sm]--;
    k->n_buffered--;
    commit(k, &e);
}

/* _step_buffer */
static void step_buffer(K *k, int64_t sm)
{
    Entry *buf = k->buf[sm];
    int64_t horizon = k->tick - k->min_age;
    int64_t committed = 0;
    while (k->blen[sm] && committed < k->drain_width) {
        if (buf[0].tick > horizon)
            break;
        int64_t index = 0;
        if (k->blen[sm] > 1 && buf[1].tick <= horizon)
            index = maybe_swap(k, buf, k->blen[sm], horizon);
        if (index != 0) {
            /* The overtaken head is parked in the congested queue. */
            buf[0].parked = 1;
            drain_entry(k, sm, index);
            committed++;
            continue;
        }
        double p = k->drain_p[buf[0].ch];
        if (buf[0].parked)
            p *= k->parked_drain;
        if (rng_double(&k->rng) < p) {
            drain_entry(k, sm, 0);
            committed++;
        } else {
            break;
        }
    }
}

/* step: one tick; the buffers drain in SM-id order. */
static void step(K *k)
{
    k->tick++;
    if (k->n_deferred)
        step_deferred(k);
    if (k->n_buffered)
        for (int64_t sm = 0; sm < 2; sm++)
            if (k->blen[sm])
                step_buffer(k, sm);
}

/* drain_until over every load of the round */
static void drain_until(K *k)
{
    for (int64_t i = 0; i < k->drain_ticks; i++) {
        if (!k->n_buffered) {
            int64_t j = 0;
            while (j < k->n_loads && k->loads[j].resolved)
                j++;
            if (j == k->n_loads)
                return;
        }
        step(k);
    }
}

/* flush_all */
static void flush_all(K *k)
{
    if (k->n_buffered) {
        for (int64_t sm = 0; sm < 2; sm++) {
            for (int64_t j = 0; j < k->blen[sm]; j++)
                commit(k, &k->buf[sm][j]);
            k->blen[sm] = 0;
        }
        k->n_buffered = 0;
    }
    for (int64_t i = 0; i < k->n_deferred; i++) {
        Load *h = &k->loads[k->deferred[i]];
        if (!h->resolved)
            resolve(k, h);
    }
    k->n_deferred = 0;
}

/* ---------------------------------------------------------------------
 * One round (runner._one_round on two ld/st threads).
 * ------------------------------------------------------------------ */

static int forbidden(const K *k)
{
    const int64_t *c = k->dnf;
    for (int64_t i = 0; i < k->n_conj; i++) {
        int64_t n = *c++;
        int all = 1;
        for (int64_t j = 0; j < n; j++, c += 3) {
            int64_t v = c[0] == LEAF_REG ? k->regs[c[1]] : k->mem[c[1]];
            if (v != c[2])
                all = 0;
        }
        if (all)
            return 1;
    }
    return 0;
}

static int one_round(K *k)
{
    for (int64_t s = 0; s < k->n_locs; s++)
        k->mem[s] = 0;
    k->n_loads = 0;
    int64_t delay[2], pc[2] = {0, 0};
    delay[0] = rng_lemire32(&k->rng, (uint32_t)k->max_delay);
    delay[1] = rng_lemire32(&k->rng, (uint32_t)k->max_delay);
    int remaining = 2;
    /* Nothing can issue before the earlier delay expires. */
    int64_t start = delay[0] < delay[1] ? delay[0] : delay[1];
    k->tick += start;
    for (int64_t tick = start; tick < k->issue_ticks; tick++) {
        if (!remaining)
            break;
        for (int t = 0; t < 2; t++) {
            if (pc[t] >= k->len[t] || tick < delay[t])
                continue;
            if (rng_double(&k->rng) >= k->exec_p[t])
                continue;
            const int64_t *op = k->ops[t] + 3 * pc[t];
            if (op[0] == OP_ST) {
                if (mem_write(k, k->sm[t], t, op[1], op[2]))
                    pc[t]++;
            } else {
                issue_load(k, k->sm[t], t, op[1], op[2]);
                pc[t]++;
            }
            if (pc[t] >= k->len[t])
                remaining--;
        }
        step(k);
    }
    drain_until(k);
    flush_all(k);
    for (int64_t r = 0; r < k->n_regs; r++)
        k->regs[r] = 0;  /* a load never issued reads 0, as regs.get */
    for (int64_t i = 0; i < k->n_loads; i++)
        k->regs[k->loads[i].reg] = k->loads[i].value;
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

    k.n_ch = chip[0];
    k.buf_cap = chip[1];
    k.min_dist = chip[2];
    k.min_age = chip[3];
    k.drain_width = chip[4];
    k.chan = chip + 5;
    k.leak = factors[0];
    k.parked_drain = factors[1];
    k.drain_p = tables;
    k.bypass_p = tables + k.n_ch;
    k.slow_p = tables + 2 * k.n_ch;
    k.resolve_p = tables + 3 * k.n_ch;
    k.swap_p = tables + 4 * k.n_ch;

    k.exec_p[0] = p0;
    k.exec_p[1] = p1;
    k.sm[0] = sm0;
    k.sm[1] = 1 - sm0;
    rng_load(&k.rng, rng);
    for (int64_t i = 0; i < unread; i++)
        k.rng.state = (k.rng.state - k.rng.inc) * PCG_MULT_INV;

    /* Size the workspace: a thread buffers at most its own stores and
     * at most the chip's capacity; a round issues each load once. */
    int64_t n_st = 0, n_ld = 0;
    for (int t = 0; t < 2; t++)
        for (int64_t i = 0; i < k.len[t]; i++) {
            if (k.ops[t][3 * i] == OP_ST)
                n_st++;
            else
                n_ld++;
        }
    k.bsize = n_st < k.buf_cap ? n_st : k.buf_cap;
    size_t bytes = 2 * (size_t)k.bsize * sizeof(Entry)
                   + (size_t)n_ld * sizeof(Load)
                   + (size_t)(k.n_locs + k.n_regs + n_ld) * sizeof(int64_t);
    char *work = malloc(bytes ? bytes : 1);
    if (work == NULL)
        return -1;
    k.buf[0] = (Entry *)work;
    k.buf[1] = k.buf[0] + k.bsize;
    k.loads = (Load *)(k.buf[1] + k.bsize);
    k.mem = (int64_t *)(k.loads + n_ld);
    k.regs = k.mem + k.n_locs;
    k.deferred = k.regs + k.n_regs;

    int weak = 0;
    for (int64_t r = 0; r < k.rounds && !weak && !k.error; r++)
        weak = one_round(&k);
    free(work);
    if (k.error)
        return k.error;

    rng_store(&k.rng, rng);
    return weak;
}
