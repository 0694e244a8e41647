/*
 * Native core of the SIMT engine (repro.gpu.engine): one whole kernel
 * launch per call.
 *
 * run() is a second implementation of Engine._loop, the Python tick
 * loop that stays as the fallback and the oracle:
 *
 *   - the tick loop and its burst dispatch of all eight op kinds (load
 *     with its site fence, noop, rmw with its issue-latency slots,
 *     store, fence, barrier, issue and poll), resuming the Python
 *     kernel coroutines with PyIter_Send;
 *   - repro.gpu.scheduler.WarpScheduler: the cdf search, the Lemire
 *     pick, the runnable-list fallback, and the barrier release;
 *   - every repro.gpu.memory.MemorySystem operation the loop reaches,
 *     ending with flush_all.
 *
 * It consumes both generators draw for draw as the Python loop does,
 * through numpy's bitgen_t (BitGenerator.capsule): next_double where
 * Python calls random(), numpy's Lemire rejection over next_uint32
 * where it calls integers(n), and the generator's own dirichlet() for
 * the scheduler's weight redraw.  So every statistic is identical for
 * any bit generator; change this file, engine.py, scheduler.py and
 * memory.py together (tests/test_engine_core.py holds them equal).
 *
 * State: the launch's store buffers, deferred loads, runnable list and
 * per-thread op state live here for the call.  MemorySystem.mem is read
 * and written in place; the buffers are empty on entry (Engine.run
 * checks) and again on a normal return.  Before returning, normally or
 * with an exception, run() writes back the memory system's tick,
 * counters and _fencing, the grid's n_live, each warp's n_active, and
 * each thread's done, op, op_state, to_send, at_barrier, sleep_until
 * and latency, which Grid.relaunch had just reset.  When a kernel
 * raises, the stores still buffered and the loads still in flight are
 * dropped; the Python loop would leave them in the memory system.
 *
 * Nothing here is a silent limit: every array is sized from the grid
 * and the chip on each call, and the deferred-load arrays grow.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* numpy's bitgen_t (numpy/random/bitgen.h): the struct behind
 * BitGenerator.capsule, part of numpy's public C API. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* Op kinds, in the Python loop's test order. */
enum { K_LOAD, K_NOOP, K_RMW, K_STORE, K_FENCE, K_BARRIER, K_ISSUE, K_POLL,
       N_KINDS, K_UNKNOWN = N_KINDS };
/* A deferred load's program-order constraint (DeferredLoad.block_mode). */
enum { WAIT_NONE, WAIT_CHANNEL, WAIT_STORES, WAIT_LOAD };

/* repro.gpu.events and repro.gpu.memory objects, bound at import. */
static PyObject *KIND[N_KINDS];  /* OP_LOAD ... OP_POLL */
static PyObject *STALL, *FENCE_OP, *DEFERRED_LOAD, *ZERO;
static PyObject *S_done, *S_op, *S_op_state, *S_to_send, *S_at_barrier,
    *S_sleep_until, *S_latency, *S_n_active, *S_n_live, *S_resolved,
    *S_value, *S_waiting, *S_pending, *S_dirichlet, *S_key, *S_sm, *S_gen,
    *S_threads, *S_warps, *S_blocks, *S_block_id, *S_mem, *S_fencing,
    *S_tick, *S_n_drains, *S_n_swaps, *S_n_bypasses, *S_n_slow_loads,
    *S_bit_generator, *S_capsule;

typedef struct {
    PyObject *obj;        /* the SimThread */
    PyObject *key_obj;    /* thread.key */
    PyObject *gen;
    PyObject *op;         /* pending op, NULL for None */
    PyObject *send;       /* the value to send on the next resume */
    int64_t key, sm, warp, sleep_until, latency;
    int done, at_barrier;
    int waiting;          /* op_state["waiting"] */
    int pending;          /* op_state["pending"], -1 when absent */
} Thread;

typedef struct {
    PyObject *obj;
    int64_t *members, n, n_active, block;
} Warp;

typedef struct {
    PyObject *id;         /* the block id, as the barrier set holds it */
    int64_t *members, n, sm;
} Block;

typedef struct {          /* one store-buffer entry */
    PyObject *key;        /* the address object (the mem dict key) */
    PyObject *val;
    int64_t addr, thread, ch, tick;
    int parked;
} Entry;

typedef struct {          /* one deferred load (DeferredLoad) */
    PyObject *obj;        /* the handle the kernel holds */
    PyObject *key;
    int64_t addr, thread, sm, ch, arg;
    int wait, resolved;
} Load;

typedef struct {
    /* model constants */
    int64_t burst, atomic_latency, reshuffle, fence_cycles;
    int64_t n_ch, buf_cap, min_dist, min_age, drain_width;
    int64_t shift, mask, patch, n_sms;
    double leak, parked_drain;
    const double *drain_p, *bypass_p, *slow_p, *resolve_p, *swap_p;
    /* draws */
    bitgen_t *eng, *mbg;
    PyObject *eng_gen, *alpha;
    /* grid */
    PyObject *grid, *thread_list, *warp_list, *block_list;
    Thread *threads;
    Warp *warps;
    Block *blocks;
    int64_t *members, *members_end, *done_blocks;
    Py_ssize_t n_threads, n_warps, n_blocks;
    int64_t n_live, max_ticks, fence_stalls, n_fences;
    /* scheduler */
    int64_t n_units, since, n_runnable;
    int randomise;
    double *cdf;
    int64_t *runnable;
    PyObject *barrier;    /* block ids with threads parked at a barrier */
    /* memory system */
    PyObject *memsys, *mem, *fencing_set;
    int64_t tick, n_drains, n_swaps, n_bypasses, n_slow;
    Entry *entries, *tmp;
    int64_t *blen;
    int64_t n_buffered;
    char *fencing;        /* per thread: in _fencing */
    int64_t n_fencing;    /* threads of this launch in _fencing */
    Load *loads;
    Py_ssize_t n_loads, cap_loads;
    Py_ssize_t *deferred;
    Py_ssize_t n_deferred;
    PyObject *keep;       /* items of non-tuple ops, kept alive */
} Core;

/* ---------------------------------------------------------------------
 * Draws.
 * ------------------------------------------------------------------ */

static inline double eng_double(Core *c)
{
    return c->eng->next_double(c->eng->state);
}

static inline double mem_double(Core *c)
{
    return c->mbg->next_double(c->mbg->state);
}

/* Generator.integers(span): numpy's buffered_bounded_lemire_uint32. */
static uint32_t lemire(bitgen_t *bg, uint32_t span)
{
    if (span == 1)
        return 0;
    uint64_t m = (uint64_t)bg->next_uint32(bg->state) * span;
    uint32_t leftover = (uint32_t)m;
    if (leftover < span) {
        uint32_t threshold = (uint32_t)(0u - span) % span;
        while (leftover < threshold) {
            m = (uint64_t)bg->next_uint32(bg->state) * span;
            leftover = (uint32_t)m;
        }
    }
    return (uint32_t)(m >> 32);
}

static bitgen_t *bitgen_of(PyObject *gen)
{
    PyObject *bit = PyObject_GetAttr(gen, S_bit_generator);
    if (bit == NULL)
        return NULL;
    PyObject *capsule = PyObject_GetAttr(bit, S_capsule);
    Py_DECREF(bit);
    if (capsule == NULL)
        return NULL;
    /* The bit generator keeps its capsule (and state) alive. */
    bitgen_t *bg = PyCapsule_GetPointer(capsule, "BitGenerator");
    Py_DECREF(capsule);
    return bg;
}

/* ---------------------------------------------------------------------
 * Small helpers.
 * ------------------------------------------------------------------ */

/* op[i], borrowed; raises what the Python loop's op[i] raises. */
static PyObject *item(Core *c, PyObject *op, Py_ssize_t i)
{
    if (PyTuple_CheckExact(op)) {
        if (i < PyTuple_GET_SIZE(op))
            return PyTuple_GET_ITEM(op, i);
        PyErr_SetString(PyExc_IndexError, "tuple index out of range");
        return NULL;
    }
    PyObject *index = PyLong_FromSsize_t(i);
    if (index == NULL)
        return NULL;
    PyObject *x = PyObject_GetItem(op, index);
    Py_DECREF(index);
    if (x == NULL)
        return NULL;
    int rc = PyList_Append(c->keep, x);
    Py_DECREF(x);
    return rc < 0 ? NULL : x;
}

static int kind_of(Core *c, PyObject *op, int *kind)
{
    PyObject *k = item(c, op, 0);
    if (k == NULL)
        return -1;
    for (int i = 0; i < N_KINDS; i++)
        if (k == KIND[i]) {
            *kind = i;
            return 0;
        }
    for (int i = 0; i < N_KINDS; i++) {
        int eq = PyObject_RichCompareBool(k, KIND[i], Py_EQ);
        if (eq < 0)
            return -1;
        if (eq) {
            *kind = i;
            return 0;
        }
    }
    *kind = K_UNKNOWN;
    return 0;
}

static int addr_of(PyObject *obj, int64_t *addr)
{
    if (PyLong_Check(obj)) {
        int overflow;
        long long v = PyLong_AsLongLongAndOverflow(obj, &overflow);
        if (!overflow) {
            *addr = v;
            return 0;
        }
    }
    PyErr_Format(PyExc_TypeError,
                 "engine core: address %R is not a 64-bit int", obj);
    return -1;
}

static int64_t as_int64(PyObject *obj, PyObject *name)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL)
        return -1;
    long long x = PyLong_AsLongLong(v);
    Py_DECREF(v);
    return x;
}

static int set_int(PyObject *obj, PyObject *name, int64_t v)
{
    PyObject *x = PyLong_FromLongLong(v);
    if (x == NULL)
        return -1;
    int rc = PyObject_SetAttr(obj, name, x);
    Py_DECREF(x);
    return rc;
}

/* HardwareProfile.channel */
static inline int64_t channel(const Core *c, int64_t addr)
{
    if (c->shift >= 0)
        return (addr >> c->shift) & c->mask;
    int64_t q = addr / c->patch;
    if (addr % c->patch < 0)
        q--;
    int64_t m = q % c->n_ch;
    return m < 0 ? m + c->n_ch : m;
}

/* mem.get(key, 0), a new reference. */
static PyObject *mem_get(Core *c, PyObject *key)
{
    PyObject *v = PyDict_GetItemWithError(c->mem, key);
    if (v == NULL) {
        if (PyErr_Occurred())
            return NULL;
        v = ZERO;
    }
    Py_INCREF(v);
    return v;
}

static inline Entry *buf_of(Core *c, int64_t sm)
{
    return c->entries + sm * c->buf_cap;
}

/* ---------------------------------------------------------------------
 * Deferred loads (DeferredLoad handles and MemorySystem._deferred).
 * ------------------------------------------------------------------ */

/* _resolve_pending */
static int resolve(Core *c, Load *h)
{
    PyObject *v = mem_get(c, h->key);
    if (v == NULL)
        return -1;
    int rc = PyObject_SetAttr(h->obj, S_value, v);
    Py_DECREF(v);
    if (rc < 0 || PyObject_SetAttr(h->obj, S_resolved, Py_True) < 0)
        return -1;
    h->resolved = 1;
    return 0;
}

/* Keep only the unresolved loads on the deferred list. */
static void prune(Core *c)
{
    Py_ssize_t out = 0;
    for (Py_ssize_t i = 0; i < c->n_deferred; i++)
        if (!c->loads[c->deferred[i]].resolved)
            c->deferred[out++] = c->deferred[i];
    c->n_deferred = out;
}

/* _resolve_matching; ch < 0 stands for "no channel". */
static int resolve_matching(Core *c, int64_t thread, int64_t addr,
                            int64_t ch)
{
    for (Py_ssize_t i = 0; i < c->n_deferred; i++) {
        Load *h = &c->loads[c->deferred[i]];
        if (!h->resolved && h->thread == thread
            && (h->addr == addr || (ch >= 0 && h->ch == ch))
            && resolve(c, h) < 0)
            return -1;
    }
    prune(c);
    return 0;
}

/* A new DeferredLoad handle. */
static PyObject *handle(int64_t thread, int64_t sm, PyObject *key,
                        int64_t ch, int slow, PyObject *mode)
{
    return PyObject_CallFunction(DEFERRED_LOAD, "LLOLOO", (long long)thread,
                                 (long long)sm, key, (long long)ch,
                                 slow ? Py_True : Py_False,
                                 mode ? mode : Py_None);
}

/* Append a load to the deferred list; takes a reference to obj. */
static int defer(Core *c, PyObject *obj, PyObject *key, int64_t addr,
                 int64_t thread, int64_t sm, int64_t ch, int wait,
                 int64_t arg)
{
    if (c->n_loads == c->cap_loads) {
        Py_ssize_t cap = c->cap_loads ? 2 * c->cap_loads : 16;
        Load *loads = PyMem_Realloc(c->loads, cap * sizeof(Load));
        if (loads == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        c->loads = loads;
        Py_ssize_t *deferred =
            PyMem_Realloc(c->deferred, cap * sizeof(Py_ssize_t));
        if (deferred == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        c->deferred = deferred;
        c->cap_loads = cap;
    }
    Load *h = &c->loads[c->n_loads];
    Py_INCREF(obj);
    Py_INCREF(key);
    h->obj = obj;
    h->key = key;
    h->addr = addr;
    h->thread = thread;
    h->sm = sm;
    h->ch = ch;
    h->wait = wait;
    h->arg = arg;
    h->resolved = 0;
    c->deferred[c->n_deferred++] = c->n_loads++;
    return 0;
}

/* _unblocked */
static int unblocked(Core *c, const Load *h)
{
    if (h->wait == WAIT_LOAD)
        return c->loads[h->arg].resolved;
    const Entry *buf = buf_of(c, h->sm);
    for (int64_t j = 0; j < c->blen[h->sm]; j++)
        if (buf[j].thread == h->thread
            && (h->wait == WAIT_STORES || buf[j].ch == h->arg))
            return 0;
    return 1;
}

/* _step_deferred */
static int step_deferred(Core *c)
{
    for (Py_ssize_t i = 0; i < c->n_deferred; i++) {
        Load *h = &c->loads[c->deferred[i]];
        if (h->resolved)
            continue;
        int done = h->wait != WAIT_NONE
            ? unblocked(c, h)
            : mem_double(c) < c->resolve_p[h->ch];
        if (done && resolve(c, h) < 0)
            return -1;
    }
    prune(c);
    return 0;
}

/* ---------------------------------------------------------------------
 * Store buffers.
 * ------------------------------------------------------------------ */

/* Release an entry's references without committing it. */
static void drop(Entry *e)
{
    Py_DECREF(e->key);
    Py_DECREF(e->val);
}

/* _commit, consuming the entry's references. */
static int commit(Core *c, Entry *e)
{
    int rc = 0;
    if (c->n_deferred)
        rc = resolve_matching(c, e->thread, e->addr, e->ch);
    if (rc == 0)
        rc = PyDict_SetItem(c->mem, e->key, e->val);
    if (rc == 0)
        c->n_drains++;
    drop(e);
    return rc;
}

/* Commit entries[0:n] in order unless rc already reports a failure;
 * after a failure, drop the rest. */
static int commit_all(Core *c, Entry *entries, int64_t n, int rc)
{
    for (int64_t j = 0; j < n; j++) {
        if (rc == 0)
            rc = commit(c, &entries[j]);
        else
            drop(&entries[j]);
    }
    return rc;
}

/* Which entries _commit_out drains. */
enum { BY_ADDR, BY_THREAD, BY_FENCING };

/* _commit_out: keep the other entries, in order, and commit these. */
static int commit_out(Core *c, int64_t sm, int by, int64_t arg)
{
    Entry *buf = buf_of(c, sm);
    int64_t n = c->blen[sm], kept = 0, drained = 0;
    for (int64_t j = 0; j < n; j++) {
        int out = by == BY_ADDR ? buf[j].addr == arg
            : by == BY_THREAD ? buf[j].thread == arg
            : c->fencing[buf[j].thread];
        if (out)
            c->tmp[drained++] = buf[j];
        else
            buf[kept++] = buf[j];
    }
    c->blen[sm] = kept;
    c->n_buffered -= drained;
    return commit_all(c, c->tmp, drained, 0);
}

/* Remove buf[index] of SM sm, keeping order, and commit it. */
static int drain_entry(Core *c, int64_t sm, int64_t index)
{
    Entry *buf = buf_of(c, sm);
    Entry e = buf[index];
    memmove(&buf[index], &buf[index + 1],
            (size_t)(c->blen[sm] - index - 1) * sizeof(Entry));
    c->blen[sm]--;
    c->n_buffered--;
    return commit(c, &e);
}

/* _oldest_for_addr */
static int oldest_for_addr(const Entry *buf, int64_t j)
{
    for (int64_t i = 0; i < j; i++)
        if (buf[i].addr == buf[j].addr)
            return 0;
    return 1;
}

/* _maybe_swap: 0, or the index of a younger entry that overtakes. */
static int64_t maybe_swap(Core *c, const Entry *buf, int64_t n,
                          int64_t horizon)
{
    const Entry *head = &buf[0];
    for (int64_t j = 1; j < n; j++) {
        const Entry *cand = &buf[j];
        if (cand->tick > horizon)
            break;
        if (cand->ch == head->ch) {
            if (c->leak <= 0.0)
                continue;
            /* Maxwell write-combining leak: rare same-channel swap. */
            if (mem_double(c) < c->leak && oldest_for_addr(buf, j)) {
                c->n_swaps++;
                return j;
            }
            continue;
        }
        int64_t gap = cand->addr - head->addr;
        if (gap < 0)
            gap = -gap;
        if (gap < c->min_dist)
            continue;
        if (mem_double(c) < c->swap_p[head->ch * c->n_ch + cand->ch]
            && oldest_for_addr(buf, j)) {
            c->n_swaps++;
            return j;
        }
        return 0;
    }
    return 0;
}

/* _step_buffer */
static int step_buffer(Core *c, int64_t sm)
{
    Entry *buf = buf_of(c, sm);
    for (int64_t j = 0; c->n_fencing && j < c->blen[sm]; j++)
        if (c->fencing[buf[j].thread]) {
            /* Priority FIFO drain for fencing threads. */
            if (commit_out(c, sm, BY_FENCING, 0) < 0)
                return -1;
            break;
        }
    int64_t horizon = c->tick - c->min_age, committed = 0;
    while (c->blen[sm] && committed < c->drain_width) {
        if (buf[0].tick > horizon)
            break;
        int64_t index = 0;
        if (c->blen[sm] > 1 && buf[1].tick <= horizon)
            index = maybe_swap(c, buf, c->blen[sm], horizon);
        if (index != 0) {
            /* The overtaken head is parked in the congested queue. */
            buf[0].parked = 1;
            if (drain_entry(c, sm, index) < 0)
                return -1;
            committed++;
            continue;
        }
        double p = c->drain_p[buf[0].ch];
        if (buf[0].parked)
            p *= c->parked_drain;
        if (mem_double(c) < p) {
            if (drain_entry(c, sm, 0) < 0)
                return -1;
            committed++;
        } else {
            break;
        }
    }
    return 0;
}

/* step: one tick; the buffers drain in SM-id order. */
static int step(Core *c)
{
    c->tick++;
    if (c->n_deferred && step_deferred(c) < 0)
        return -1;
    if (c->n_buffered)
        for (int64_t sm = 0; sm < c->n_sms; sm++)
            if (c->blen[sm] && step_buffer(c, sm) < 0)
                return -1;
    return 0;
}

/* flush_all */
static int flush_all(Core *c)
{
    int rc = 0;
    for (int64_t sm = 0; sm < c->n_sms; sm++) {
        rc = commit_all(c, buf_of(c, sm), c->blen[sm], rc);
        c->blen[sm] = 0;
    }
    c->n_buffered = 0;
    for (Py_ssize_t i = 0; rc == 0 && i < c->n_deferred; i++) {
        Load *h = &c->loads[c->deferred[i]];
        if (!h->resolved && resolve(c, h) < 0)
            rc = -1;
    }
    c->n_deferred = 0;
    return rc;
}

/* ---------------------------------------------------------------------
 * Thread-facing memory operations.
 * ------------------------------------------------------------------ */

/* read: the value or STALL, a new reference. */
static PyObject *mem_read(Core *c, Thread *th, PyObject *key)
{
    int64_t addr;
    if (addr_of(key, &addr) < 0)
        return NULL;
    const Entry *buf = buf_of(c, th->sm);
    int64_t own = -1, load_ch = 0;
    int same_ch = 0;
    for (int64_t j = c->blen[th->sm] - 1; j >= 0; j--) {
        if (buf[j].addr == addr) {
            Py_INCREF(buf[j].val);  /* SM-local forwarding */
            return buf[j].val;
        }
        if (buf[j].thread == th->key) {
            if (own < 0) {
                own = j;
                load_ch = channel(c, addr);
            }
            if (buf[j].ch == load_ch)
                same_ch = 1;
        }
    }
    if (own >= 0) {
        if (same_ch || th->waiting)
            return Py_NewRef(STALL);
        if (mem_double(c) >= c->bypass_p[buf[own].ch]) {
            th->waiting = 1;
            return Py_NewRef(STALL);
        }
        c->n_bypasses++;
    }
    return mem_get(c, key);
}

/* write: 1 when buffered, 0 when the buffer is full, -1 on error. */
static int mem_write(Core *c, Thread *th, PyObject *key, PyObject *val)
{
    int64_t sm = th->sm, addr;
    if (c->blen[sm] >= c->buf_cap)
        return 0;
    if (addr_of(key, &addr) < 0)
        return -1;
    int64_t ch = channel(c, addr);
    /* Program order, same address: an earlier deferred load by this
     * thread must see the pre-store value. */
    if (c->n_deferred && resolve_matching(c, th->key, addr, -1) < 0)
        return -1;
    Entry *e = &buf_of(c, sm)[c->blen[sm]++];
    Py_INCREF(key);
    Py_INCREF(val);
    e->key = key;
    e->val = val;
    e->addr = addr;
    e->thread = th->key;
    e->ch = ch;
    e->tick = c->tick;
    e->parked = 0;
    c->n_buffered++;
    return 1;
}

/* rmw: the old value or STALL, a new reference. */
static PyObject *mem_rmw(Core *c, Thread *th, PyObject *key, PyObject *fn)
{
    int64_t sm = th->sm, addr;
    if (addr_of(key, &addr) < 0)
        return NULL;
    Entry *buf = buf_of(c, sm);
    int64_t own = -1;
    int same_addr = 0;
    for (int64_t j = c->blen[sm] - 1; j >= 0; j--) {
        if (buf[j].addr == addr)
            same_addr = 1;
        else if (own < 0 && buf[j].thread == th->key)
            own = j;
    }
    if (own >= 0) {
        if (th->waiting)
            return Py_NewRef(STALL);
        if (mem_double(c) >= c->bypass_p[buf[own].ch]) {
            th->waiting = 1;
            return Py_NewRef(STALL);
        }
        c->n_bypasses++;
        /* The atomic jumped this thread's queued stores; they stay
         * parked in the congested write queue. */
        for (int64_t j = 0; j < c->blen[sm]; j++)
            if (buf[j].thread == th->key)
                buf[j].parked = 1;
    }
    /* Coherence: same-address buffered stores commit first, in order. */
    if (same_addr && commit_out(c, sm, BY_ADDR, addr) < 0)
        return NULL;
    PyObject *old = mem_get(c, key);
    if (old == NULL)
        return NULL;
    PyObject *new = PyObject_CallOneArg(fn, old);
    if (new == NULL || PyDict_SetItem(c->mem, key, new) < 0) {
        Py_XDECREF(new);
        Py_DECREF(old);
        return NULL;
    }
    Py_DECREF(new);
    return old;
}

/* issue_load: a new DeferredLoad handle. */
static PyObject *mem_issue(Core *c, Thread *th, PyObject *key)
{
    int64_t addr, sm = th->sm, thread = th->key;
    if (addr_of(key, &addr) < 0)
        return NULL;
    int64_t ch = channel(c, addr);
    PyObject *h, *mode;
    /* Loads within a channel, or closer than the reorder distance, stay
     * ordered: chain behind an earlier unresolved load by this thread. */
    for (Py_ssize_t i = 0; i < c->n_deferred; i++) {
        Py_ssize_t index = c->deferred[i];
        const Load *e = &c->loads[index];
        int64_t gap = e->addr - addr;
        if (gap < 0)
            gap = -gap;
        if (!e->resolved && e->thread == thread
            && (e->ch == ch || gap < c->min_dist)) {
            mode = Py_BuildValue("(sO)", "load", e->obj);
            if (mode == NULL)
                return NULL;
            h = handle(thread, sm, key, ch, 0, mode);
            Py_DECREF(mode);
            if (h != NULL
                && defer(c, h, key, addr, thread, sm, ch, WAIT_LOAD,
                         index) < 0)
                Py_CLEAR(h);
            return h;
        }
    }
    const Entry *buf = buf_of(c, sm);
    int64_t own = -1;
    int same_ch = 0;
    for (int64_t j = c->blen[sm] - 1; j >= 0; j--) {
        if (buf[j].addr == addr) {
            h = handle(thread, sm, key, ch, 0, NULL);
            if (h != NULL
                && (PyObject_SetAttr(h, S_value, buf[j].val) < 0
                    || PyObject_SetAttr(h, S_resolved, Py_True) < 0))
                Py_CLEAR(h);
            return h;
        }
        if (buf[j].thread == thread) {
            if (own < 0)
                own = j;
            if (buf[j].ch == ch)
                same_ch = 1;
        }
    }
    int wait = -1;
    if (same_ch) {
        wait = WAIT_CHANNEL;
        mode = Py_BuildValue("(sL)", "channel", (long long)ch);
    } else if (own >= 0 && mem_double(c) >= c->bypass_p[buf[own].ch]) {
        wait = WAIT_STORES;
        mode = Py_BuildValue("(sO)", "stores", Py_None);
    } else {
        mode = NULL;
    }
    if (wait >= 0) {
        if (mode == NULL)
            return NULL;
        h = handle(thread, sm, key, ch, 0, mode);
        Py_DECREF(mode);
        if (h != NULL
            && defer(c, h, key, addr, thread, sm, ch, wait,
                     wait == WAIT_CHANNEL ? ch : -1) < 0)
            Py_CLEAR(h);
        return h;
    }
    if (own >= 0)
        c->n_bypasses++;
    int slow = mem_double(c) < c->slow_p[ch];
    h = handle(thread, sm, key, ch, slow, NULL);
    if (h == NULL)
        return NULL;
    if (slow) {
        c->n_slow++;
        if (defer(c, h, key, addr, thread, sm, ch, WAIT_NONE, -1) < 0)
            Py_CLEAR(h);
        return h;
    }
    PyObject *v = mem_get(c, key);
    if (v == NULL || PyObject_SetAttr(h, S_value, v) < 0
        || PyObject_SetAttr(h, S_resolved, Py_True) < 0)
        Py_CLEAR(h);
    Py_XDECREF(v);
    return h;
}

/* poll_load: the handle's value or STALL, a new reference. */
static PyObject *mem_poll(PyObject *h)
{
    PyObject *resolved = PyObject_GetAttr(h, S_resolved);
    if (resolved == NULL)
        return NULL;
    int yes = PyObject_IsTrue(resolved);
    Py_DECREF(resolved);
    if (yes < 0)
        return NULL;
    return yes ? PyObject_GetAttr(h, S_value) : Py_NewRef(STALL);
}

/* thread_pending */
static int thread_pending(Core *c, int64_t sm, int64_t thread)
{
    const Entry *buf = buf_of(c, sm);
    for (int64_t j = 0; j < c->blen[sm]; j++)
        if (buf[j].thread == thread)
            return 1;
    for (Py_ssize_t i = 0; i < c->n_deferred; i++) {
        const Load *h = &c->loads[c->deferred[i]];
        if (h->thread == thread && !h->resolved)
            return 1;
    }
    return 0;
}

/* fence_begin */
static int fence_begin(Core *c, int64_t thread)
{
    if (!c->fencing[thread]) {
        c->fencing[thread] = 1;
        c->n_fencing++;
    }
    for (Py_ssize_t i = 0; i < c->n_deferred; i++) {
        Load *h = &c->loads[c->deferred[i]];
        if (h->thread == thread && h->wait == WAIT_NONE
            && resolve(c, h) < 0)
            return -1;
    }
    prune(c);
    return 0;
}

/* fence_done: thread_pending's negation, ending the fence when true. */
static int fence_done(Core *c, int64_t sm, int64_t thread)
{
    if (thread_pending(c, sm, thread))
        return 0;
    if (c->fencing[thread]) {
        c->fencing[thread] = 0;
        c->n_fencing--;
    }
    return 1;
}

/* ---------------------------------------------------------------------
 * The scheduler (WarpScheduler) and barriers (Engine._release_barriers).
 * ------------------------------------------------------------------ */

static void unrunnable(Core *c, int64_t w)
{
    int64_t i = 0;
    while (c->runnable[i] != w)
        i++;
    memmove(&c->runnable[i], &c->runnable[i + 1],
            (size_t)(--c->n_runnable - i) * sizeof(int64_t));
}

static void runnable(Core *c, int64_t w)
{
    int64_t i = c->n_runnable;
    while (i > 0 && c->runnable[i - 1] > w) {
        c->runnable[i] = c->runnable[i - 1];
        i--;
    }
    c->runnable[i] = w;
    c->n_runnable++;
}

/* _redraw_weights: dirichlet on the generator, then numpy's cumsum and
 * in-place division by the last element, in order. */
static int redraw(Core *c)
{
    PyObject *raw = PyObject_CallMethodOneArg(c->eng_gen, S_dirichlet,
                                              c->alpha);
    if (raw == NULL)
        return -1;
    Py_buffer view;
    if (PyObject_GetBuffer(raw, &view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT)
        < 0) {
        Py_DECREF(raw);
        return -1;
    }
    int rc = 0;
    if (view.len != c->n_units * (Py_ssize_t)sizeof(double)
        || view.format == NULL || strcmp(view.format, "d") != 0) {
        PyErr_SetString(PyExc_TypeError,
                        "engine core: dirichlet returned an unexpected array");
        rc = -1;
    } else {
        const double *x = view.buf;
        c->cdf[0] = x[0];
        for (int64_t i = 1; i < c->n_units; i++)
            c->cdf[i] = c->cdf[i - 1] + x[i];
        double last = c->cdf[c->n_units - 1];
        for (int64_t i = 0; i < c->n_units; i++)
            c->cdf[i] /= last;
        c->since = 0;
    }
    PyBuffer_Release(&view);
    Py_DECREF(raw);
    return rc;
}

/* pick: the warp to advance, -1 for a stress placeholder, -2 on error. */
static int64_t pick(Core *c)
{
    if (c->n_units == 0)
        return -1;
    int64_t idx;
    if (c->randomise) {
        if (++c->since >= c->reshuffle && redraw(c) < 0)
            return -2;
        /* cdf.searchsorted(roll, side="right"), numpy's binary search
         * (a NaN sorts last). */
        double roll = eng_double(c);
        int64_t lo = 0, hi = c->n_units;
        while (lo < hi) {
            int64_t mid = lo + ((hi - lo) >> 1);
            double v = c->cdf[mid];
            if (roll < v || v != v)
                hi = mid;
            else
                lo = mid + 1;
        }
        idx = lo;
    } else {
        idx = lemire(c->eng, (uint32_t)c->n_units);
    }
    if (idx >= c->n_warps)
        return -1;
    if (!c->warps[idx].n_active) {
        /* Fall back to any runnable warp. */
        if (!c->n_runnable)
            return -1;
        idx = c->runnable[lemire(c->eng, (uint32_t)c->n_runnable)];
    }
    return idx;
}

/* drain_thread */
static int drain_thread(Core *c, int64_t sm, int64_t thread)
{
    const Entry *buf = buf_of(c, sm);
    for (int64_t j = 0; j < c->blen[sm]; j++)
        if (buf[j].thread == thread)
            return commit_out(c, sm, BY_THREAD, thread);
    return 0;
}

/* _release_barriers, iterating the same Python set of block ids. */
static int release_barriers(Core *c)
{
    PyObject *it = PyObject_GetIter(c->barrier), *id;
    if (it == NULL)
        return -1;
    Py_ssize_t n_done = 0;
    while ((id = PyIter_Next(it)) != NULL) {
        Py_ssize_t b = PyLong_AsSsize_t(id);
        Py_DECREF(id);
        if (b < 0 || b >= c->n_blocks) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_IndexError, "list index out of range");
            break;
        }
        Block *block = &c->blocks[b];
        int any = 0, ready = 1;
        for (int64_t k = 0; k < block->n && ready; k++) {
            const Thread *t = &c->threads[block->members[k]];
            if (t->at_barrier)
                any = 1;
            else if (!t->done)
                ready = 0;
        }
        if (!(ready && any))
            continue;
        for (int64_t k = 0; k < block->n; k++) {
            Thread *t = &c->threads[block->members[k]];
            if (!t->at_barrier)
                continue;
            t->at_barrier = 0;
            Warp *warp = &c->warps[t->warp];
            if (!warp->n_active)
                runnable(c, t->warp);
            warp->n_active++;
            if (drain_thread(c, block->sm, t->key) < 0)
                break;
        }
        if (PyErr_Occurred())
            break;
        c->done_blocks[n_done++] = b;
    }
    Py_DECREF(it);
    if (PyErr_Occurred())
        return -1;
    for (Py_ssize_t i = 0; i < n_done; i++)
        if (PySet_Discard(c->barrier, c->blocks[c->done_blocks[i]].id) < 0)
            return -1;
    return 0;
}

/* ---------------------------------------------------------------------
 * The burst loop (Engine._loop's inner loop).
 * ------------------------------------------------------------------ */

static int burst(Core *c, Thread *th, int64_t ticks)
{
    Warp *warp = &c->warps[th->warp];
    PyObject *op = Py_XNewRef(th->op), *value = Py_NewRef(th->send);
    PyObject *x, *y;
    for (int64_t slot = 0; slot < c->burst; slot++) {
        if (op == NULL) {
            PyObject *res;
            PySendResult r = PyIter_Send(th->gen, value, &res);
            if (r == PYGEN_ERROR)
                goto fail;
            if (r == PYGEN_RETURN) {
                Py_DECREF(res);
                th->done = 1;
                c->n_live--;
                if (!--warp->n_active)
                    unrunnable(c, th->warp);
                break;
            }
            op = res;
        }
        int kind, truth;
        if (kind_of(c, op, &kind) < 0)
            goto fail;
        switch (kind) {
        case K_LOAD:
            if ((x = item(c, op, 1)) == NULL || (x = mem_read(c, th, x)) == NULL)
                goto fail;
            Py_SETREF(value, x);
            if (x == STALL)
                goto stop;
            th->waiting = 0;
            th->pending = -1;
            if ((y = item(c, op, 2)) == NULL || (truth = PyObject_IsTrue(y)) < 0)
                goto fail;
            if (truth) {
                /* Site fence: it takes the next slot and sends the
                 * loaded value on when done. */
                if ((x = PyTuple_Pack(2, KIND[K_FENCE], value)) == NULL)
                    goto fail;
                Py_SETREF(op, x);
                continue;
            }
            break;
        case K_NOOP:
            Py_SETREF(value, Py_NewRef(Py_None));
            break;
        case K_RMW:
            if (th->latency < c->atomic_latency) {
                /* An issue-latency slot: the op stays. */
                th->latency++;
                continue;
            }
            if ((x = item(c, op, 1)) == NULL || (y = item(c, op, 2)) == NULL
                || (x = mem_rmw(c, th, x, y)) == NULL)
                goto fail;
            Py_SETREF(value, x);
            if (x == STALL)
                goto stop;
            th->latency = 0;
            th->waiting = 0;
            th->pending = -1;
            break;
        case K_STORE:
            if ((x = item(c, op, 1)) == NULL || (y = item(c, op, 2)) == NULL
                || (truth = mem_write(c, th, x, y)) < 0)
                goto fail;
            if (!truth)
                goto stop;
            if ((y = item(c, op, 3)) == NULL || (truth = PyObject_IsTrue(y)) < 0)
                goto fail;
            if (truth) {
                Py_SETREF(op, Py_NewRef(FENCE_OP));
                continue;
            }
            Py_SETREF(value, Py_NewRef(Py_None));
            break;
        case K_FENCE:
            if (th->pending < 0) {
                th->pending = thread_pending(c, th->sm, th->key);
                if (fence_begin(c, th->key) < 0)
                    goto fail;
            }
            if (!fence_done(c, th->sm, th->key))
                goto stop;
            {
                /* The fencing thread sleeps from the next tick on; a
                 * fence with nothing to drain costs almost nothing. */
                int64_t cost = th->pending ? c->fence_cycles : 2;
                th->pending = -1;
                th->waiting = 0;
                th->sleep_until = ticks + cost;
                c->fence_stalls += cost;
                c->n_fences++;
            }
            if ((x = item(c, op, 1)) == NULL)
                goto fail;
            Py_SETREF(value, Py_NewRef(x));
            break;
        case K_BARRIER:
            th->at_barrier = 1;
            Py_CLEAR(op);
            Py_SETREF(value, Py_NewRef(Py_None));
            if (!--warp->n_active)
                unrunnable(c, th->warp);
            if (PySet_Add(c->barrier, c->blocks[warp->block].id) < 0)
                goto fail;
            goto stop;
        case K_ISSUE:
            if ((x = item(c, op, 1)) == NULL || (x = mem_issue(c, th, x)) == NULL)
                goto fail;
            Py_SETREF(value, x);
            break;
        case K_POLL:
            if ((x = item(c, op, 1)) == NULL || (x = mem_poll(x)) == NULL)
                goto fail;
            Py_SETREF(value, x);
            if (x == STALL)
                goto stop;
            break;
        default:
            PyErr_Format(PyExc_ValueError, "unknown op %R from thread %S", op,
                         th->key_obj);
            goto fail;
        }
        Py_CLEAR(op);
    }
stop:
    Py_XSETREF(th->op, op);
    Py_SETREF(th->send, value);
    return 0;
fail:
    Py_XDECREF(op);
    Py_DECREF(value);
    return -1;
}

/* ---------------------------------------------------------------------
 * Set-up, write-back and the entry point.
 * ------------------------------------------------------------------ */

static int64_t *members_of(Core *c, PyObject *obj, int64_t **cursor,
                           int64_t *n)
{
    PyObject *threads = PyObject_GetAttr(obj, S_threads);
    if (threads == NULL)
        return NULL;
    PyObject *seq = PySequence_Fast(threads, "threads must be a sequence");
    Py_DECREF(threads);
    if (seq == NULL)
        return NULL;
    Py_ssize_t len = PySequence_Fast_GET_SIZE(seq);
    int64_t *members = *cursor;
    for (Py_ssize_t k = 0; k < len; k++) {
        int64_t key = as_int64(PySequence_Fast_GET_ITEM(seq, k), S_key);
        if (key == -1 && PyErr_Occurred())
            goto fail;
        if (key < 0 || key >= c->n_threads || members + len > c->members_end) {
            PyErr_SetString(PyExc_ValueError,
                            "engine core: a thread outside the grid");
            goto fail;
        }
        members[k] = key;
    }
    Py_DECREF(seq);
    *cursor += len;
    *n = len;
    return members;
fail:
    Py_DECREF(seq);
    return NULL;
}

static int setup(Core *c)
{
    if ((c->thread_list = PyObject_GetAttr(c->grid, S_threads)) == NULL
        || (c->warp_list = PyObject_GetAttr(c->grid, S_warps)) == NULL
        || (c->block_list = PyObject_GetAttr(c->grid, S_blocks)) == NULL)
        return -1;
    if (!PyList_CheckExact(c->thread_list) || !PyList_CheckExact(c->warp_list)
        || !PyList_CheckExact(c->block_list)) {
        PyErr_SetString(PyExc_TypeError, "engine core: grid lists expected");
        return -1;
    }
    c->n_threads = PyList_GET_SIZE(c->thread_list);
    c->n_warps = PyList_GET_SIZE(c->warp_list);
    c->n_blocks = PyList_GET_SIZE(c->block_list);
    c->n_units = c->n_warps + c->n_units;
    if (c->n_units >= 0xFFFFFFFFLL) {
        PyErr_SetString(PyExc_ValueError, "engine core: too many units");
        return -1;
    }
    c->n_live = as_int64(c->grid, S_n_live);
    if (c->n_live == -1 && PyErr_Occurred())
        return -1;

    size_t n_t = (size_t)c->n_threads, n_w = (size_t)c->n_warps;
    size_t n_b = (size_t)c->n_blocks, n_sm = (size_t)c->n_sms;
    c->threads = PyMem_Calloc(n_t ? n_t : 1, sizeof(Thread));
    c->warps = PyMem_Calloc(n_w ? n_w : 1, sizeof(Warp));
    c->blocks = PyMem_Calloc(n_b ? n_b : 1, sizeof(Block));
    c->members = PyMem_Calloc(2 * n_t + 1, sizeof(int64_t));
    c->members_end = c->members + 2 * n_t;
    c->done_blocks = PyMem_Calloc(n_b + 1, sizeof(int64_t));
    c->runnable = PyMem_Calloc(n_w + 1, sizeof(int64_t));
    c->cdf = PyMem_Calloc((size_t)c->n_units + 1, sizeof(double));
    c->entries = PyMem_Calloc(n_sm * (size_t)c->buf_cap + 1, sizeof(Entry));
    c->tmp = PyMem_Calloc((size_t)c->buf_cap + 1, sizeof(Entry));
    c->blen = PyMem_Calloc(n_sm + 1, sizeof(int64_t));
    c->fencing = PyMem_Calloc(n_t + 1, 1);
    if (!c->threads || !c->warps || !c->blocks || !c->members
        || !c->done_blocks || !c->runnable || !c->cdf || !c->entries
        || !c->tmp || !c->blen || !c->fencing) {
        PyErr_NoMemory();
        return -1;
    }

    for (Py_ssize_t i = 0; i < c->n_threads; i++) {
        Thread *th = &c->threads[i];
        th->obj = Py_NewRef(PyList_GET_ITEM(c->thread_list, i));
        th->send = Py_NewRef(Py_None);
        th->pending = -1;
        if ((th->key_obj = PyObject_GetAttr(th->obj, S_key)) == NULL
            || (th->gen = PyObject_GetAttr(th->obj, S_gen)) == NULL)
            return -1;
        th->key = PyLong_AsLongLong(th->key_obj);
        th->sm = as_int64(th->obj, S_sm);
        if (PyErr_Occurred())
            return -1;
        if (th->key != i || th->sm < 0 || th->sm >= c->n_sms) {
            PyErr_SetString(PyExc_ValueError,
                            "engine core: thread keys must number the grid's "
                            "threads in order, on the chip's SMs");
            return -1;
        }
    }
    int64_t *cursor = c->members;
    for (Py_ssize_t w = 0; w < c->n_warps; w++) {
        Warp *warp = &c->warps[w];
        warp->obj = PyList_GET_ITEM(c->warp_list, w);
        if ((warp->members = members_of(c, warp->obj, &cursor, &warp->n))
            == NULL)
            return -1;
        warp->n_active = as_int64(warp->obj, S_n_active);
        warp->block = as_int64(warp->obj, S_block_id);
        if (PyErr_Occurred())
            return -1;
        if (warp->block < 0 || warp->block >= c->n_blocks) {
            PyErr_SetString(PyExc_ValueError,
                            "engine core: a warp outside the grid's blocks");
            return -1;
        }
        for (int64_t k = 0; k < warp->n; k++)
            c->threads[warp->members[k]].warp = w;
        if (warp->n_active)
            c->runnable[c->n_runnable++] = w;
    }
    for (Py_ssize_t b = 0; b < c->n_blocks; b++) {
        Block *block = &c->blocks[b];
        PyObject *obj = PyList_GET_ITEM(c->block_list, b);
        if ((block->members = members_of(c, obj, &cursor, &block->n)) == NULL
            || (block->id = PyLong_FromSsize_t(b)) == NULL)
            return -1;
        block->sm = as_int64(obj, S_sm);
        if (block->sm == -1 && PyErr_Occurred())
            return -1;
        if (block->sm < 0 || block->sm >= c->n_sms) {
            PyErr_SetString(PyExc_ValueError,
                            "engine core: a block outside the chip's SMs");
            return -1;
        }
    }

    if ((c->mem = PyObject_GetAttr(c->memsys, S_mem)) == NULL
        || (c->fencing_set = PyObject_GetAttr(c->memsys, S_fencing)) == NULL)
        return -1;
    if (!PyDict_Check(c->mem) || !PySet_Check(c->fencing_set)) {
        PyErr_SetString(PyExc_TypeError,
                        "engine core: MemorySystem.mem must be a dict and "
                        "_fencing a set");
        return -1;
    }
    c->tick = as_int64(c->memsys, S_tick);
    c->n_drains = as_int64(c->memsys, S_n_drains);
    c->n_swaps = as_int64(c->memsys, S_n_swaps);
    c->n_bypasses = as_int64(c->memsys, S_n_bypasses);
    c->n_slow = as_int64(c->memsys, S_n_slow_loads);
    if (PyErr_Occurred())
        return -1;
    /* A key of another launch can stay in _fencing after a timeout; it
     * names no thread of this one, and write-back leaves it there. */
    for (Py_ssize_t i = 0; PySet_GET_SIZE(c->fencing_set) && i < c->n_threads;
         i++) {
        int in = PySet_Contains(c->fencing_set, c->threads[i].key_obj);
        if (in < 0)
            return -1;
        c->fencing[i] = (char)in;
        c->n_fencing += in;
    }
    if ((c->barrier = PySet_New(NULL)) == NULL
        || (c->keep = PyList_New(0)) == NULL)
        return -1;
    if (c->randomise && c->n_units && redraw(c) < 0)
        return -1;
    return 0;
}

static int set_flag(PyObject *obj, PyObject *name, int on)
{
    return PyObject_SetAttr(obj, name, on ? Py_True : Py_False);
}

/* Write the launch's state back to the Python objects. */
static int writeback(Core *c)
{
    for (Py_ssize_t i = 0; i < c->n_threads; i++) {
        Thread *th = &c->threads[i];
        PyObject *o = th->obj;
        if (o == NULL)
            break;
        if ((th->done && set_flag(o, S_done, 1) < 0)
            || (th->at_barrier && set_flag(o, S_at_barrier, 1) < 0)
            || (th->op && PyObject_SetAttr(o, S_op, th->op) < 0)
            || (th->send != Py_None
                && PyObject_SetAttr(o, S_to_send, th->send) < 0)
            || (th->sleep_until && set_int(o, S_sleep_until, th->sleep_until) < 0)
            || (th->latency && set_int(o, S_latency, th->latency) < 0))
            return -1;
        if (th->waiting || th->pending >= 0) {
            PyObject *state = PyObject_GetAttr(o, S_op_state);
            int rc = state == NULL || !PyDict_Check(state) ? -1 : 0;
            if (rc == 0 && th->waiting)
                rc = PyDict_SetItem(state, S_waiting, Py_True);
            if (rc == 0 && th->pending >= 0)
                rc = PyDict_SetItem(state, S_pending,
                                    th->pending ? Py_True : Py_False);
            Py_XDECREF(state);
            if (rc < 0) {
                if (!PyErr_Occurred())
                    PyErr_SetString(PyExc_TypeError,
                                    "engine core: op_state must be a dict");
                return -1;
            }
        }
        if (!c->n_fencing && !PySet_GET_SIZE(c->fencing_set))
            continue;
        int was = PySet_Contains(c->fencing_set, th->key_obj);
        if (was < 0)
            return -1;
        if (c->fencing[i] && !was
            && PySet_Add(c->fencing_set, th->key_obj) < 0)
            return -1;
        if (!c->fencing[i] && was
            && PySet_Discard(c->fencing_set, th->key_obj) < 0)
            return -1;
    }
    for (Py_ssize_t w = 0; w < c->n_warps; w++)
        if (c->warps[w].members
            && set_int(c->warps[w].obj, S_n_active, c->warps[w].n_active) < 0)
            return -1;
    if (set_int(c->grid, S_n_live, c->n_live) < 0
        || set_int(c->memsys, S_tick, c->tick) < 0
        || set_int(c->memsys, S_n_drains, c->n_drains) < 0
        || set_int(c->memsys, S_n_swaps, c->n_swaps) < 0
        || set_int(c->memsys, S_n_bypasses, c->n_bypasses) < 0
        || set_int(c->memsys, S_n_slow_loads, c->n_slow) < 0)
        return -1;
    return 0;
}

static void release(Core *c)
{
    if (c->threads)
        for (Py_ssize_t i = 0; i < c->n_threads; i++) {
            Thread *th = &c->threads[i];
            Py_XDECREF(th->obj);
            Py_XDECREF(th->key_obj);
            Py_XDECREF(th->gen);
            Py_XDECREF(th->op);
            Py_XDECREF(th->send);
        }
    if (c->blocks)
        for (Py_ssize_t b = 0; b < c->n_blocks; b++)
            Py_XDECREF(c->blocks[b].id);
    if (c->entries && c->blen)
        for (int64_t sm = 0; sm < c->n_sms; sm++)
            for (int64_t j = 0; j < c->blen[sm]; j++)
                drop(&buf_of(c, sm)[j]);
    for (Py_ssize_t i = 0; i < c->n_loads; i++) {
        Py_DECREF(c->loads[i].obj);
        Py_DECREF(c->loads[i].key);
    }
    PyMem_Free(c->threads);
    PyMem_Free(c->warps);
    PyMem_Free(c->blocks);
    PyMem_Free(c->members);
    PyMem_Free(c->done_blocks);
    PyMem_Free(c->runnable);
    PyMem_Free(c->cdf);
    PyMem_Free(c->entries);
    PyMem_Free(c->tmp);
    PyMem_Free(c->blen);
    PyMem_Free(c->fencing);
    PyMem_Free(c->loads);
    PyMem_Free(c->deferred);
    Py_XDECREF(c->thread_list);
    Py_XDECREF(c->warp_list);
    Py_XDECREF(c->block_list);
    Py_XDECREF(c->mem);
    Py_XDECREF(c->fencing_set);
    Py_XDECREF(c->barrier);
    Py_XDECREF(c->keep);
}

PyDoc_STRVAR(run_doc,
"run(grid, memory, eng_gen, mem_gen, alpha, n_stress_units, randomise,\n"
"    max_ticks, words, factors, tables)\n"
"--\n\n"
"Run one freshly (re)launched grid to completion or timeout and flush\n"
"the memory system; returns (timed_out, ticks, fence_stall_cycles,\n"
"n_fences).  words: burst, atomic latency, reshuffle period and fence\n"
"stall cycles, then memory.core_words' words; factors: its factors;\n"
"tables: MemoryTables.packed.");

static PyObject *run(PyObject *self, PyObject *args)
{
    Core c;
    memset(&c, 0, sizeof c);
    PyObject *mem_gen, *words, *factors, *result = NULL;
    Py_buffer tables;
    long long stress, max_ticks, w[13];
    double f[2];
    (void)self;
    if (!PyArg_ParseTuple(args, "OOOOOLpLOOy*", &c.grid, &c.memsys,
                          &c.eng_gen, &mem_gen, &c.alpha, &stress,
                          &c.randomise, &max_ticks, &words, &factors,
                          &tables))
        return NULL;
    int ok = PyTuple_Check(words) && PyTuple_GET_SIZE(words) == 13
        && PyTuple_Check(factors) && PyTuple_GET_SIZE(factors) == 2;
    for (int i = 0; ok && i < 13; i++)
        ok = (w[i] = PyLong_AsLongLong(PyTuple_GET_ITEM(words, i))) != -1
            || !PyErr_Occurred();
    for (int i = 0; ok && i < 2; i++)
        ok = (f[i] = PyFloat_AsDouble(PyTuple_GET_ITEM(factors, i))) != -1.0
            || !PyErr_Occurred();
    if (ok) {
        c.burst = w[0];
        c.atomic_latency = w[1];
        c.reshuffle = w[2];
        c.fence_cycles = w[3];
        c.n_ch = w[4];
        c.buf_cap = w[5];
        c.min_dist = w[6];
        c.min_age = w[7];
        c.drain_width = w[8];
        c.n_sms = w[9];
        c.shift = w[10];
        c.mask = w[11];
        c.patch = w[12];
        c.leak = f[0];
        c.parked_drain = f[1];
        ok = c.n_sms > 0 && c.n_ch > 0 && c.buf_cap >= 0 && c.patch > 0
            && tables.len == (Py_ssize_t)((4 + c.n_ch) * c.n_ch
                                          * sizeof(double));
    }
    if (!ok) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError,
                            "engine core: malformed words, factors or tables");
        goto done;
    }
    c.drain_p = tables.buf;
    c.bypass_p = c.drain_p + c.n_ch;
    c.slow_p = c.drain_p + 2 * c.n_ch;
    c.resolve_p = c.drain_p + 3 * c.n_ch;
    c.swap_p = c.drain_p + 4 * c.n_ch;
    c.max_ticks = max_ticks;
    c.n_units = stress > 0 ? stress : 0;
    if ((c.eng = bitgen_of(c.eng_gen)) == NULL
        || (c.mbg = bitgen_of(mem_gen)) == NULL || setup(&c) < 0)
        goto done;

    int64_t ticks = 0;
    int timed_out = 0;
    while (c.n_live) {
        ticks++;
        if (ticks > c.max_ticks) {
            timed_out = 1;
            break;
        }
        int64_t picked = pick(&c);
        if (picked == -2)
            goto fail;
        if (picked >= 0) {
            const Warp *warp = &c.warps[picked];
            for (int64_t k = 0; k < warp->n; k++) {
                Thread *th = &c.threads[warp->members[k]];
                if (th->sleep_until > ticks || th->done || th->at_barrier)
                    continue;
                if (burst(&c, th, ticks) < 0)
                    goto fail;
            }
        }
        if (step(&c) < 0)
            goto fail;
        if (PySet_GET_SIZE(c.barrier) && release_barriers(&c) < 0)
            goto fail;
    }
    if (flush_all(&c) < 0)
        goto fail;
    if (writeback(&c) == 0)
        result = Py_BuildValue("(OLLL)", timed_out ? Py_True : Py_False,
                               (long long)ticks, (long long)c.fence_stalls,
                               (long long)c.n_fences);
    goto done;
fail:
    {
        /* The kernel's exception stands; the state is written back. */
        PyObject *type, *value, *tb;
        PyErr_Fetch(&type, &value, &tb);
        if (writeback(&c) < 0)
            PyErr_Clear();
        PyErr_Restore(type, value, tb);
    }
done:
    release(&c);
    PyBuffer_Release(&tables);
    return result;
}

static PyMethodDef methods[] = {
    {"run", run, METH_VARARGS, run_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_core",
    "Native core of repro.gpu.engine: one kernel launch per call.", -1,
    methods,
};

static PyObject *attr(PyObject *mod, const char *name)
{
    return PyObject_GetAttrString(mod, name);
}

PyMODINIT_FUNC PyInit__core(void)
{
    static const char *kinds[N_KINDS] = {
        "OP_LOAD", "OP_NOOP", "OP_RMW", "OP_STORE", "OP_FENCE",
        "OP_BARRIER", "OP_ISSUE", "OP_POLL",
    };
    PyObject *events = PyImport_ImportModule("repro.gpu.events");
    PyObject *memory = PyImport_ImportModule("repro.gpu.memory");
    if (events == NULL || memory == NULL)
        goto fail;
    for (int i = 0; i < N_KINDS; i++)
        if ((KIND[i] = attr(events, kinds[i])) == NULL)
            goto fail;
    if ((STALL = attr(events, "STALL")) == NULL
        || (FENCE_OP = attr(events, "FENCE")) == NULL
        || (DEFERRED_LOAD = attr(memory, "DeferredLoad")) == NULL
        || (ZERO = PyLong_FromLong(0)) == NULL)
        goto fail;
#define INTERN(var, text) \
    if ((var = PyUnicode_InternFromString(text)) == NULL) goto fail;
    INTERN(S_done, "done") INTERN(S_op, "op") INTERN(S_op_state, "op_state")
    INTERN(S_to_send, "to_send") INTERN(S_at_barrier, "at_barrier")
    INTERN(S_sleep_until, "sleep_until") INTERN(S_latency, "latency")
    INTERN(S_n_active, "n_active") INTERN(S_n_live, "n_live")
    INTERN(S_resolved, "resolved") INTERN(S_value, "value")
    INTERN(S_waiting, "waiting") INTERN(S_pending, "pending")
    INTERN(S_dirichlet, "dirichlet") INTERN(S_key, "key") INTERN(S_sm, "sm")
    INTERN(S_gen, "gen") INTERN(S_threads, "threads")
    INTERN(S_warps, "warps") INTERN(S_blocks, "blocks")
    INTERN(S_block_id, "block_id") INTERN(S_mem, "mem")
    INTERN(S_fencing, "_fencing") INTERN(S_tick, "tick")
    INTERN(S_n_drains, "n_drains") INTERN(S_n_swaps, "n_swaps")
    INTERN(S_n_bypasses, "n_bypasses") INTERN(S_n_slow_loads, "n_slow_loads")
    INTERN(S_bit_generator, "bit_generator") INTERN(S_capsule, "capsule")
#undef INTERN
    Py_DECREF(events);
    Py_DECREF(memory);
    return PyModule_Create(&module);
fail:
    Py_XDECREF(events);
    Py_XDECREF(memory);
    return NULL;
}
