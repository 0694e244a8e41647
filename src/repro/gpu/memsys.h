/*
 * The weak memory model in C: repro.gpu.memory.MemorySystem's store
 * buffers and deferred loads, once for both native cores, the litmus
 * kernel repro/litmus/native.c (plain C, loaded with ctypes) and the
 * engine core repro/gpu/engine.c (a CPython extension).  Each function
 * draws what the method it names draws, in the same order, so C code
 * that calls them where the Python path calls the methods gives
 * identical statistics.  Change it and memory.py together; the parity
 * suites tests/test_native_litmus.py and tests/test_engine_core.py hold
 * the two equal.
 *
 * The model never branches on its caller.  Before the include, the
 * including file defines the types ms_key and ms_value (a memory key, a
 * stored value), ms_handle (what a deferred load delivers to), ms_memory
 * (committed memory) and ms_rng (the memory system's generator), the
 * macros MS_HOLD(x) and MS_DROP(x) (take and release a reference to a
 * key, value or handle kept here), and the hooks
 *
 *   double ms_double(ms_rng *)                    numpy's next_double;
 *   int ms_store(ms_memory, ms_key, ms_value)     commit a value;
 *   int ms_resolve(ms_memory, ms_handle, ms_key)  deliver memory's value.
 *
 * A hook returns 0, or MS_ERROR when it failed and left its own error (a
 * Python exception, say); any function here that calls it then returns
 * MS_ERROR too.  Threads and SMs are numbered from 0; an address is an
 * int64 word address, and every access carries its channel.  Nothing
 * here is a silent limit: the caller sizes the buffers, and the load
 * list grows.
 */

#ifndef REPRO_MEMSYS_H
#define REPRO_MEMSYS_H

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Results besides 0 and an entry index. */
enum { MS_ERROR = -1, MS_OVERFLOW = -2, MS_STALL = -3, MS_MEMORY = -4 };
/* A deferred load's program-order constraint (DeferredLoad.block_mode),
 * then ms_issue_load's two answers that defer nothing. */
enum { WAIT_NONE, WAIT_CHANNEL, WAIT_STORES, WAIT_LOAD, ISSUE_FORWARD,
       ISSUE_NOW };
/* Which entries ms_commit_out drains. */
enum { BY_ADDR, BY_THREAD, BY_FENCING };

typedef struct {          /* one store-buffer entry */
    ms_key key;
    ms_value val;
    int64_t addr, thread, ch, tick;
    int parked;
} Entry;

typedef struct {          /* one deferred load (DeferredLoad) */
    ms_handle handle;
    ms_key key;
    int64_t addr, thread, sm, ch;
    int64_t arg;          /* WAIT_LOAD: the index of the load waited on */
    int wait, resolved;
} Load;

typedef struct {
    /* the chip (memory.core_words) and its tables (MemoryTables.packed) */
    int64_t n_ch, buf_cap, min_dist, min_age, drain_width, n_sms;
    double leak, parked_drain;
    const double *drain_p, *bypass_p, *slow_p, *resolve_p, *swap_p;
    ms_rng rng;
    ms_memory mem;
    /* state */
    int64_t tick, n_drains, n_swaps, n_bypasses, n_slow;
    Entry *entries;       /* SM sm's buffer starts at entries[sm * stride] */
    Entry *tmp;           /* stride entries of scratch */
    int64_t stride, *blen, n_buffered;
    char *fencing;        /* per thread: in _fencing */
    int64_t n_fencing;
    Load *loads;          /* every load deferred since the last flush */
    Load *grown;          /* loads, once it outgrew its room in the block */
    int64_t *deferred;    /* the unresolved ones, in list order */
    int64_t n_loads, cap_loads, n_deferred;
} MemSys;

/* Bind n_sms SMs of a chip: words, the first five of memory.core_words
 * (n channels, buffer capacity, swap minimum distance, minimum drain age,
 * drain width); factors, its two; tables, MemoryTables.packed: drain_p[n],
 * bypass_p[n], slow_p[n], resolve_p[n] and swap_p[n][n]. */
static inline void ms_bind(MemSys *m, const int64_t *words,
                           const double *factors, const double *tables,
                           int64_t n_sms)
{
    m->n_ch = words[0];
    m->buf_cap = words[1];
    m->min_dist = words[2];
    m->min_age = words[3];
    m->drain_width = words[4];
    m->n_sms = n_sms;
    m->leak = factors[0];
    m->parked_drain = factors[1];
    m->drain_p = tables;
    m->bypass_p = tables + m->n_ch;
    m->slow_p = tables + 2 * m->n_ch;
    m->resolve_p = tables + 3 * m->n_ch;
    m->swap_p = tables + 4 * m->n_ch;
}

/* Allocate one block: empty buffers of stride entries (the capacity, or
 * what an SM can hold if less), room for cap_loads deferred loads before
 * the list grows, n_threads fencing flags and `extra` bytes (a multiple of
 * 8, uninitialised) for the caller, which it returns; NULL without memory.
 * So a litmus execution allocates once. */
static inline void *ms_alloc(MemSys *m, int64_t stride, int64_t n_threads,
                             int64_t cap_loads, size_t extra)
{
    size_t n = (size_t)(m->n_sms + 1) * (size_t)stride;
    size_t flags = (size_t)m->n_sms * sizeof(int64_t) + (size_t)n_threads + 1;
    char *block = malloc(n * sizeof(Entry) + (size_t)cap_loads
                         * (sizeof(Load) + sizeof(int64_t)) + extra + flags);
    if (block == NULL)
        return NULL;
    m->stride = stride;
    m->entries = (Entry *)block;
    m->tmp = m->entries + m->n_sms * stride;
    m->loads = (Load *)(m->tmp + stride);
    m->cap_loads = cap_loads;
    m->deferred = (int64_t *)(m->loads + cap_loads);
    m->blen = (int64_t *)((char *)(m->deferred + cap_loads) + extra);
    m->fencing = (char *)(m->blen + m->n_sms);
    memset(m->blen, 0, flags);
    return m->deferred + cap_loads;
}

static inline Entry *ms_buf(const MemSys *m, int64_t sm)
{
    return m->entries + sm * m->stride;
}

/* ---------------------------------------------------------------------
 * Deferred loads (DeferredLoad handles and MemorySystem._deferred).
 * ------------------------------------------------------------------ */

/* _resolve_pending */
static inline int ms_resolve_load(MemSys *m, Load *h)
{
    if (ms_resolve(m->mem, h->handle, h->key) < 0)
        return MS_ERROR;
    h->resolved = 1;
    return 0;
}

/* Keep only the unresolved loads on the deferred list. */
static inline void ms_prune(MemSys *m)
{
    int64_t out = 0;
    for (int64_t i = 0; i < m->n_deferred; i++)
        if (!m->loads[m->deferred[i]].resolved)
            m->deferred[out++] = m->deferred[i];
    m->n_deferred = out;
}

/* _resolve_matching; ch < 0 stands for "no channel". */
static inline int ms_resolve_matching(MemSys *m, int64_t thread,
                                      int64_t addr, int64_t ch)
{
    for (int64_t i = 0; i < m->n_deferred; i++) {
        Load *h = &m->loads[m->deferred[i]];
        if (!h->resolved && h->thread == thread
            && (h->addr == addr || (ch >= 0 && h->ch == ch))
            && ms_resolve_load(m, h) < 0)
            return MS_ERROR;
    }
    ms_prune(m);
    return 0;
}

/* Append load h (as ms_issue_load left it, with its handle) to the
 * deferred list, holding its key and handle; MS_ERROR without memory. */
static inline int ms_defer(MemSys *m, const Load *h)
{
    if (m->n_loads == m->cap_loads) {
        /* A block of its own: cap loads, then the deferred list. */
        int64_t cap = 2 * m->cap_loads + 16;
        Load *loads = malloc((size_t)cap * (sizeof(Load) + sizeof(int64_t)));
        if (loads == NULL)
            return MS_ERROR;
        memcpy(loads, m->loads, (size_t)m->n_loads * sizeof(Load));
        m->deferred = memcpy(loads + cap, m->deferred,
                             (size_t)m->n_deferred * sizeof(int64_t));
        free(m->grown);
        m->loads = m->grown = loads;
        m->cap_loads = cap;
    }
    MS_HOLD(h->handle);
    MS_HOLD(h->key);
    m->loads[m->n_loads] = *h;
    m->loads[m->n_loads].resolved = 0;
    m->deferred[m->n_deferred++] = m->n_loads++;
    return 0;
}

/* _unblocked */
static inline int ms_unblocked(const MemSys *m, const Load *h)
{
    if (h->wait == WAIT_LOAD)
        return m->loads[h->arg].resolved;
    const Entry *buf = ms_buf(m, h->sm);
    for (int64_t j = 0; j < m->blen[h->sm]; j++)
        if (buf[j].thread == h->thread
            && (h->wait == WAIT_STORES || buf[j].ch == h->ch))
            return 0;
    return 1;
}

/* _step_deferred */
static inline int ms_step_deferred(MemSys *m)
{
    for (int64_t i = 0; i < m->n_deferred; i++) {
        Load *h = &m->loads[m->deferred[i]];
        if (h->resolved)
            continue;
        int done = h->wait != WAIT_NONE
            ? ms_unblocked(m, h)
            : ms_double(&m->rng) < m->resolve_p[h->ch];
        if (done && ms_resolve_load(m, h) < 0)
            return MS_ERROR;
    }
    ms_prune(m);
    return 0;
}

/* ---------------------------------------------------------------------
 * Store buffers.
 * ------------------------------------------------------------------ */

/* _commit unless rc already reports a failure; either way the entry's
 * references are released. */
static inline int ms_commit(MemSys *m, Entry *e, int rc)
{
    if (rc == 0 && m->n_deferred)
        rc = ms_resolve_matching(m, e->thread, e->addr, e->ch);
    if (rc == 0 && (rc = ms_store(m->mem, e->key, e->val)) == 0)
        m->n_drains++;
    MS_DROP(e->key);
    MS_DROP(e->val);
    return rc;
}

/* Commit entries[0:n] in order; after a failure, drop the rest. */
static inline int ms_commit_all(MemSys *m, Entry *entries, int64_t n,
                                int rc)
{
    for (int64_t j = 0; j < n; j++)
        rc = ms_commit(m, &entries[j], rc);
    return rc;
}

/* _commit_out: keep the other entries, in order, and commit these;
 * BY_THREAD is drain_thread. */
static inline int ms_commit_out(MemSys *m, int64_t sm, int by, int64_t arg)
{
    Entry *buf = ms_buf(m, sm);
    int64_t n = m->blen[sm], kept = 0, drained = 0;
    for (int64_t j = 0; j < n; j++) {
        int out = by == BY_ADDR ? buf[j].addr == arg
            : by == BY_THREAD ? buf[j].thread == arg
            : m->fencing[buf[j].thread];
        if (out)
            m->tmp[drained++] = buf[j];
        else
            buf[kept++] = buf[j];
    }
    m->blen[sm] = kept;
    m->n_buffered -= drained;
    return ms_commit_all(m, m->tmp, drained, 0);
}

/* Remove buf[index] of SM sm, keeping order, and commit it. */
static inline int ms_drain_entry(MemSys *m, int64_t sm, int64_t index)
{
    Entry *buf = ms_buf(m, sm);
    Entry e = buf[index];
    memmove(&buf[index], &buf[index + 1],
            (size_t)(m->blen[sm] - index - 1) * sizeof(Entry));
    m->blen[sm]--;
    m->n_buffered--;
    return ms_commit(m, &e, 0);
}

/* _oldest_for_addr */
static inline int ms_oldest_for_addr(const Entry *buf, int64_t j)
{
    for (int64_t i = 0; i < j; i++)
        if (buf[i].addr == buf[j].addr)
            return 0;
    return 1;
}

/* _maybe_swap: 0, or the index of a younger entry that overtakes.  A
 * same-channel candidate may only leak past (Maxwell write combining),
 * and the first cross-channel one far enough away ends the scan. */
static inline int64_t ms_maybe_swap(MemSys *m, const Entry *buf, int64_t n,
                                    int64_t horizon)
{
    const Entry *head = &buf[0];
    for (int64_t j = 1; j < n && buf[j].tick <= horizon; j++) {
        int same = buf[j].ch == head->ch;
        int64_t gap = buf[j].addr - head->addr;
        if (same ? m->leak <= 0.0 : (gap < 0 ? -gap : gap) < m->min_dist)
            continue;
        double p = same ? m->leak
                        : m->swap_p[head->ch * m->n_ch + buf[j].ch];
        if (ms_double(&m->rng) < p && ms_oldest_for_addr(buf, j)) {
            m->n_swaps++;
            return j;
        }
        if (!same)
            return 0;
    }
    return 0;
}

/* _step_buffer */
static inline int ms_step_buffer(MemSys *m, int64_t sm)
{
    Entry *buf = ms_buf(m, sm);
    /* Priority FIFO drain for fencing threads. */
    if (m->n_fencing && ms_commit_out(m, sm, BY_FENCING, 0) < 0)
        return MS_ERROR;
    int64_t horizon = m->tick - m->min_age;
    for (int64_t committed = 0; m->blen[sm] && committed < m->drain_width
         && buf[0].tick <= horizon; committed++) {
        int64_t index = 0;
        if (m->blen[sm] > 1 && buf[1].tick <= horizon)
            index = ms_maybe_swap(m, buf, m->blen[sm], horizon);
        if (index != 0) {
            /* The overtaken head is parked in the congested queue. */
            buf[0].parked = 1;
        } else {
            double p = m->drain_p[buf[0].ch];
            if (buf[0].parked)
                p *= m->parked_drain;
            if (ms_double(&m->rng) >= p)
                break;
        }
        if (ms_drain_entry(m, sm, index) < 0)
            return MS_ERROR;
    }
    return 0;
}

/* ---------------------------------------------------------------------
 * Thread-facing operations.
 * ------------------------------------------------------------------ */

/* The reversed pass of read and issue_load over SM sm's buffer: the
 * index of the youngest entry at addr, whose value forwards, or -1 and
 * then *own, the thread's youngest entry (-1 for none), and *same_ch,
 * whether any of the thread's entries is on channel ch. */
static inline int64_t ms_scan(const MemSys *m, int64_t sm, int64_t thread,
                              int64_t addr, int64_t ch, int64_t *own,
                              int *same_ch)
{
    const Entry *buf = ms_buf(m, sm);
    *own = -1;
    *same_ch = 0;
    for (int64_t j = m->blen[sm] - 1; j >= 0; j--) {
        if (buf[j].addr == addr)
            return j;
        if (buf[j].thread == thread) {
            if (*own < 0)
                *own = j;
            if (buf[j].ch == ch)
                *same_ch = 1;
        }
    }
    return -1;
}

/* The SB bypass roll past the thread's youngest entry `own`: 1 when it
 * overtakes; *waiting is the op's sticky flag (op_state["waiting"]), so
 * an op whose roll failed waits without rolling again. */
static inline int ms_bypass(MemSys *m, const Entry *own, int *waiting)
{
    if (*waiting || ms_double(&m->rng) >= m->bypass_p[own->ch]) {
        *waiting = 1;
        return 0;
    }
    m->n_bypasses++;
    return 1;
}

/* read's decision for a blocking load: the index of the entry whose
 * value forwards, MS_MEMORY to read committed memory, or MS_STALL. */
static inline int64_t ms_read(MemSys *m, int64_t sm, int64_t thread,
                              int64_t addr, int64_t ch, int *waiting)
{
    int64_t own;
    int same_ch;
    int64_t j = ms_scan(m, sm, thread, addr, ch, &own, &same_ch);
    if (j >= 0)
        return j;
    if (own >= 0
        && (same_ch || !ms_bypass(m, &ms_buf(m, sm)[own], waiting)))
        return MS_STALL;
    return MS_MEMORY;
}

/* write's full buffer: the store must stall. */
static inline int ms_full(const MemSys *m, int64_t sm)
{
    return m->blen[sm] >= m->buf_cap;
}

/* write, unless ms_full: buffer the store, holding key and val;
 * MS_OVERFLOW when ms_alloc's stride is below what the SM holds. */
static inline int ms_write(MemSys *m, int64_t sm, int64_t thread,
                           ms_key key, ms_value val, int64_t addr,
                           int64_t ch)
{
    /* Program order, same address: an earlier deferred load by this
     * thread must see the pre-store value. */
    if (m->n_deferred && ms_resolve_matching(m, thread, addr, -1) < 0)
        return MS_ERROR;
    if (m->blen[sm] >= m->stride)
        return MS_OVERFLOW;
    MS_HOLD(key);
    MS_HOLD(val);
    ms_buf(m, sm)[m->blen[sm]++] = (Entry){key, val, addr, thread, ch,
                                           m->tick, 0};
    m->n_buffered++;
    return 0;
}

/* rmw's ordering: MS_STALL, or 0 once the same-address stores on this
 * SM have committed and the atomic may act on memory. */
static inline int ms_rmw(MemSys *m, int64_t sm, int64_t thread,
                         int64_t addr, int *waiting)
{
    Entry *buf = ms_buf(m, sm);
    int64_t own = -1;
    int same_addr = 0;
    for (int64_t j = m->blen[sm] - 1; j >= 0; j--) {
        if (buf[j].addr == addr)
            same_addr = 1;
        else if (own < 0 && buf[j].thread == thread)
            own = j;
    }
    if (own >= 0) {
        if (!ms_bypass(m, &buf[own], waiting))
            return MS_STALL;
        /* The atomic jumped this thread's queued stores; they stay
         * parked in the congested write queue. */
        for (int64_t j = 0; j < m->blen[sm]; j++)
            if (buf[j].thread == thread)
                buf[j].parked = 1;
    }
    /* Coherence: same-address buffered stores commit first, in order. */
    if (same_addr && ms_commit_out(m, sm, BY_ADDR, addr) < 0)
        return MS_ERROR;
    return 0;
}

/* issue_load's decision for load h (key, addr, thread, sm, ch set): sets
 * and returns h->wait, with h->arg.  For WAIT_LOAD (arg: the load it
 * chains behind), WAIT_CHANNEL (on its own channel), WAIT_STORES and
 * WAIT_NONE (a slow load) the caller builds the handle that names and
 * passes h to ms_defer; ISSUE_FORWARD (arg: the entry whose value
 * forwards) and ISSUE_NOW (memory's value) resolve at once. */
static inline int ms_issue_load(MemSys *m, Load *h)
{
    /* Loads within a channel, or closer than the reorder distance, stay
     * ordered: chain behind an earlier unresolved load by this thread. */
    for (int64_t i = 0; i < m->n_deferred; i++) {
        const Load *e = &m->loads[m->deferred[i]];
        int64_t gap = e->addr > h->addr ? e->addr - h->addr
                                        : h->addr - e->addr;
        if (!e->resolved && e->thread == h->thread
            && (e->ch == h->ch || gap < m->min_dist)) {
            h->arg = m->deferred[i];
            return h->wait = WAIT_LOAD;
        }
    }
    int64_t own;
    int same_ch;
    h->arg = ms_scan(m, h->sm, h->thread, h->addr, h->ch, &own, &same_ch);
    if (h->arg >= 0)
        return h->wait = ISSUE_FORWARD;
    if (same_ch)
        return h->wait = WAIT_CHANNEL;
    int waiting = 0;  /* a deferred load stalls nothing */
    if (own >= 0 && !ms_bypass(m, &ms_buf(m, h->sm)[own], &waiting))
        return h->wait = WAIT_STORES;
    if (ms_double(&m->rng) < m->slow_p[h->ch]) {
        m->n_slow++;
        return h->wait = WAIT_NONE;
    }
    return h->wait = ISSUE_NOW;
}

/* thread_pending */
static inline int ms_thread_pending(const MemSys *m, int64_t sm,
                                    int64_t thread)
{
    const Entry *buf = ms_buf(m, sm);
    for (int64_t j = 0; j < m->blen[sm]; j++)
        if (buf[j].thread == thread)
            return 1;
    for (int64_t i = 0; i < m->n_deferred; i++)
        if (m->loads[m->deferred[i]].thread == thread
            && !m->loads[m->deferred[i]].resolved)
            return 1;
    return 0;
}

/* fence_begin */
static inline int ms_fence_begin(MemSys *m, int64_t thread)
{
    m->n_fencing += !m->fencing[thread];
    m->fencing[thread] = 1;
    for (int64_t i = 0; i < m->n_deferred; i++) {
        Load *h = &m->loads[m->deferred[i]];
        if (h->thread == thread && h->wait == WAIT_NONE
            && ms_resolve_load(m, h) < 0)
            return MS_ERROR;
    }
    ms_prune(m);
    return 0;
}

/* fence_done: thread_pending's negation, ending the fence when true. */
static inline int ms_fence_done(MemSys *m, int64_t sm, int64_t thread)
{
    if (ms_thread_pending(m, sm, thread))
        return 0;
    m->n_fencing -= m->fencing[thread];
    m->fencing[thread] = 0;
    return 1;
}

/* step, the drain pump: one tick; the buffers drain in SM-id order. */
static inline int ms_step(MemSys *m)
{
    m->tick++;
    if (m->n_deferred && ms_step_deferred(m) < 0)
        return MS_ERROR;
    if (m->n_buffered)
        for (int64_t sm = 0; sm < m->n_sms; sm++)
            if (m->blen[sm] && ms_step_buffer(m, sm) < 0)
                return MS_ERROR;
    return 0;
}

/* drain_until over handles that are all on the list: step until no
 * store is buffered and no load deferred, or max_ticks elapse. */
static inline int ms_drain_until(MemSys *m, int64_t max_ticks)
{
    for (int64_t i = 0; i < max_ticks && (m->n_buffered || m->n_deferred);
         i++)
        if (ms_step(m) < 0)
            return MS_ERROR;
    return 0;
}

/* flush_all unless rc already reports a failure, then forget the loads;
 * after a failure the remaining stores are dropped uncommitted. */
static inline int ms_flush_all(MemSys *m, int rc)
{
    for (int64_t sm = 0; sm < m->n_sms; sm++) {
        rc = ms_commit_all(m, ms_buf(m, sm), m->blen[sm], rc);
        m->blen[sm] = 0;
    }
    m->n_buffered = 0;
    for (int64_t i = 0; rc == 0 && i < m->n_deferred; i++) {
        Load *h = &m->loads[m->deferred[i]];
        if (!h->resolved)
            rc = ms_resolve_load(m, h);
    }
    for (int64_t i = 0; i < m->n_loads; i++) {
        MS_DROP(m->loads[i].handle);
        MS_DROP(m->loads[i].key);
    }
    m->n_loads = m->n_deferred = 0;
    return rc;
}

/* Free everything, dropping the stores still buffered. */
static inline void ms_free(MemSys *m)
{
    if (m->entries)
        ms_flush_all(m, MS_ERROR);
    free(m->entries);
    free(m->grown);
}

#endif
