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
 *     ending with flush_all, through the memory model both native
 *     cores include (memsys.h), on this file's hooks over Python
 *     objects.
 *
 * It consumes both generators draw for draw as the Python loop does,
 * through numpy's bitgen_t (BitGenerator.capsule): next_double where
 * Python calls random(), numpy's Lemire rejection over next_uint32
 * where it calls integers(n), and the generator's own dirichlet() for
 * the scheduler's weight redraw.  So every statistic is identical for
 * any bit generator; change this file with engine.py and scheduler.py,
 * and memsys.h with memory.py (tests/test_engine_core.py and
 * tests/test_native_litmus.py hold them equal).
 *
 * State: the launch's memory model, runnable list and per-thread op
 * state live here for the call.  MemorySystem.mem is read and written
 * in place; the buffers are empty on entry (Engine.run checks) and
 * again on a normal return.  Before returning, normally or
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

/* ---------------------------------------------------------------------
 * The memory model (memsys.h) over Python objects: keys and values are
 * the kernel's objects, memory is MemorySystem.mem, and a load delivers
 * its value to the DeferredLoad handle the kernel holds.
 * ------------------------------------------------------------------ */

typedef PyObject *ms_key, *ms_value, *ms_handle, *ms_memory;
typedef bitgen_t *ms_rng;
#define MS_HOLD(obj) Py_INCREF(obj)
#define MS_DROP(obj) Py_DECREF(obj)

/* next_double: the memory model's draw, and the scheduler's. */
static inline double ms_double(bitgen_t **bg)
{
    return (*bg)->next_double((*bg)->state);
}

/* mem.get(key, 0), a new reference. */
static PyObject *mem_get(PyObject *mem, PyObject *key)
{
    PyObject *v = PyDict_GetItemWithError(mem, key);
    if (v == NULL) {
        if (PyErr_Occurred())
            return NULL;
        v = ZERO;
    }
    Py_INCREF(v);
    return v;
}

static inline int ms_store(PyObject *mem, PyObject *key, PyObject *val)
{
    return PyDict_SetItem(mem, key, val);
}

/* handle.value = value, then handle.resolved = True. */
static int settle(PyObject *h, PyObject *value)
{
    if (PyObject_SetAttr(h, S_value, value) < 0
        || PyObject_SetAttr(h, S_resolved, Py_True) < 0)
        return -1;
    return 0;
}

/* _resolve_pending */
static inline int ms_resolve(PyObject *mem, PyObject *h, PyObject *key)
{
    PyObject *v = mem_get(mem, key);
    int rc = v == NULL ? -1 : settle(h, v);
    Py_XDECREF(v);
    return rc;
}

#include "memsys.h"

typedef struct {
    /* model constants */
    int64_t burst, atomic_latency, reshuffle, fence_cycles;
    int64_t shift, mask, patch;
    /* draws */
    bitgen_t *eng;
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
    /* memory system: the model on ms.mem, the MemorySystem's dict */
    MemSys ms;
    PyObject *memsys, *fencing_set;
    PyObject *keep;       /* items of non-tuple ops, kept alive */
} Core;

/* ---------------------------------------------------------------------
 * Draws.
 * ------------------------------------------------------------------ */

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
    int64_t m = q % c->ms.n_ch;
    return m < 0 ? m + c->ms.n_ch : m;
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
    int64_t j = ms_read(&c->ms, th->sm, th->key, addr, channel(c, addr),
                        &th->waiting);
    if (j == MS_STALL)
        return Py_NewRef(STALL);
    if (j == MS_MEMORY)
        return mem_get(c->ms.mem, key);
    return Py_NewRef(ms_buf(&c->ms, th->sm)[j].val);  /* SM-local forwarding */
}

/* write: 1 when buffered, 0 when the buffer is full, -1 on error. */
static int mem_write(Core *c, Thread *th, PyObject *key, PyObject *val)
{
    int64_t addr;
    if (ms_full(&c->ms, th->sm))
        return 0;
    if (addr_of(key, &addr) < 0
        || ms_write(&c->ms, th->sm, th->key, key, val, addr,
                    channel(c, addr)) < 0)
        return -1;
    return 1;
}

/* rmw: the old value or STALL, a new reference. */
static PyObject *mem_rmw(Core *c, Thread *th, PyObject *key, PyObject *fn)
{
    int64_t addr;
    if (addr_of(key, &addr) < 0)
        return NULL;
    int rc = ms_rmw(&c->ms, th->sm, th->key, addr, &th->waiting);
    if (rc == MS_STALL)
        return Py_NewRef(STALL);
    PyObject *old = rc < 0 ? NULL : mem_get(c->ms.mem, key);
    if (old == NULL)
        return NULL;
    PyObject *new = PyObject_CallOneArg(fn, old);
    if (new == NULL || PyDict_SetItem(c->ms.mem, key, new) < 0) {
        Py_XDECREF(new);
        Py_DECREF(old);
        return NULL;
    }
    Py_DECREF(new);
    return old;
}

/* issue_load: a new DeferredLoad handle, with the block mode and slow
 * flag of the model's decision. */
static PyObject *mem_issue(Core *c, Thread *th, PyObject *key)
{
    Load h = {.key = key, .thread = th->key, .sm = th->sm};
    if (addr_of(key, &h.addr) < 0)
        return NULL;
    h.ch = channel(c, h.addr);
    int wait = ms_issue_load(&c->ms, &h);
    PyObject *mode = wait == WAIT_LOAD
        ? Py_BuildValue("(sO)", "load", c->ms.loads[h.arg].handle)
        : wait == WAIT_CHANNEL
        ? Py_BuildValue("(sL)", "channel", (long long)h.ch)
        : wait == WAIT_STORES ? Py_BuildValue("(sO)", "stores", Py_None)
        : Py_NewRef(Py_None);
    h.handle = PyObject_CallFunction(DEFERRED_LOAD, "LLOLON",
                                     (long long)h.thread, (long long)h.sm,
                                     key, (long long)h.ch,
                                     wait == WAIT_NONE ? Py_True : Py_False,
                                     mode);
    if (h.handle == NULL)
        return NULL;
    int rc;
    if (wait == ISSUE_FORWARD)
        rc = settle(h.handle, ms_buf(&c->ms, h.sm)[h.arg].val);
    else if (wait == ISSUE_NOW)
        rc = ms_resolve(c->ms.mem, h.handle, key);
    else if ((rc = ms_defer(&c->ms, &h)) < 0)
        PyErr_NoMemory();
    if (rc < 0)
        Py_CLEAR(h.handle);
    return h.handle;
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
        double roll = ms_double(&c->eng);
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
            if (ms_commit_out(&c->ms, block->sm, BY_THREAD, t->key) < 0)
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
                th->pending = ms_thread_pending(&c->ms, th->sm, th->key);
                if (ms_fence_begin(&c->ms, th->key) < 0)
                    goto fail;
            }
            if (!ms_fence_done(&c->ms, th->sm, th->key))
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
    size_t n_b = (size_t)c->n_blocks;
    c->threads = PyMem_Calloc(n_t ? n_t : 1, sizeof(Thread));
    c->warps = PyMem_Calloc(n_w ? n_w : 1, sizeof(Warp));
    c->blocks = PyMem_Calloc(n_b ? n_b : 1, sizeof(Block));
    c->members = PyMem_Calloc(2 * n_t + 1, sizeof(int64_t));
    c->members_end = c->members + 2 * n_t;
    c->done_blocks = PyMem_Calloc(n_b + 1, sizeof(int64_t));
    c->runnable = PyMem_Calloc(n_w + 1, sizeof(int64_t));
    c->cdf = PyMem_Calloc((size_t)c->n_units + 1, sizeof(double));
    if (!c->threads || !c->warps || !c->blocks || !c->members
        || !c->done_blocks || !c->runnable || !c->cdf
        || ms_alloc(&c->ms, c->ms.buf_cap, c->n_threads, 16, 0) == NULL) {
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
        if (th->key != i || th->sm < 0 || th->sm >= c->ms.n_sms) {
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
        if (block->sm < 0 || block->sm >= c->ms.n_sms) {
            PyErr_SetString(PyExc_ValueError,
                            "engine core: a block outside the chip's SMs");
            return -1;
        }
    }

    if ((c->ms.mem = PyObject_GetAttr(c->memsys, S_mem)) == NULL
        || (c->fencing_set = PyObject_GetAttr(c->memsys, S_fencing)) == NULL)
        return -1;
    if (!PyDict_Check(c->ms.mem) || !PySet_Check(c->fencing_set)) {
        PyErr_SetString(PyExc_TypeError,
                        "engine core: MemorySystem.mem must be a dict and "
                        "_fencing a set");
        return -1;
    }
    c->ms.tick = as_int64(c->memsys, S_tick);
    c->ms.n_drains = as_int64(c->memsys, S_n_drains);
    c->ms.n_swaps = as_int64(c->memsys, S_n_swaps);
    c->ms.n_bypasses = as_int64(c->memsys, S_n_bypasses);
    c->ms.n_slow = as_int64(c->memsys, S_n_slow_loads);
    if (PyErr_Occurred())
        return -1;
    /* A key of another launch can stay in _fencing after a timeout; it
     * names no thread of this one, and write-back leaves it there. */
    for (Py_ssize_t i = 0; PySet_GET_SIZE(c->fencing_set) && i < c->n_threads;
         i++) {
        int in = PySet_Contains(c->fencing_set, c->threads[i].key_obj);
        if (in < 0)
            return -1;
        c->ms.fencing[i] = (char)in;
        c->ms.n_fencing += in;
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
        if (!c->ms.n_fencing && !PySet_GET_SIZE(c->fencing_set))
            continue;
        int was = PySet_Contains(c->fencing_set, th->key_obj);
        if (was < 0)
            return -1;
        if (c->ms.fencing[i] && !was
            && PySet_Add(c->fencing_set, th->key_obj) < 0)
            return -1;
        if (!c->ms.fencing[i] && was
            && PySet_Discard(c->fencing_set, th->key_obj) < 0)
            return -1;
    }
    for (Py_ssize_t w = 0; w < c->n_warps; w++)
        if (c->warps[w].members
            && set_int(c->warps[w].obj, S_n_active, c->warps[w].n_active) < 0)
            return -1;
    if (set_int(c->grid, S_n_live, c->n_live) < 0
        || set_int(c->memsys, S_tick, c->ms.tick) < 0
        || set_int(c->memsys, S_n_drains, c->ms.n_drains) < 0
        || set_int(c->memsys, S_n_swaps, c->ms.n_swaps) < 0
        || set_int(c->memsys, S_n_bypasses, c->ms.n_bypasses) < 0
        || set_int(c->memsys, S_n_slow_loads, c->ms.n_slow) < 0)
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
    ms_free(&c->ms);
    PyMem_Free(c->threads);
    PyMem_Free(c->warps);
    PyMem_Free(c->blocks);
    PyMem_Free(c->members);
    PyMem_Free(c->done_blocks);
    PyMem_Free(c->runnable);
    PyMem_Free(c->cdf);
    Py_XDECREF(c->thread_list);
    Py_XDECREF(c->warp_list);
    Py_XDECREF(c->block_list);
    Py_XDECREF(c->ms.mem);
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
    long long stress, max_ticks;
    int64_t w[13];
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
        ms_bind(&c.ms, &w[4], f, tables.buf, w[9]);
        c.shift = w[10];
        c.mask = w[11];
        c.patch = w[12];
        ok = c.ms.n_sms > 0 && c.ms.n_ch > 0 && c.ms.buf_cap >= 0
            && c.patch > 0
            && tables.len == (Py_ssize_t)((4 + c.ms.n_ch) * c.ms.n_ch
                                          * sizeof(double));
    }
    if (!ok) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError,
                            "engine core: malformed words, factors or tables");
        goto done;
    }
    c.max_ticks = max_ticks;
    c.n_units = stress > 0 ? stress : 0;
    if ((c.eng = bitgen_of(c.eng_gen)) == NULL
        || (c.ms.rng = bitgen_of(mem_gen)) == NULL || setup(&c) < 0)
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
        if (ms_step(&c.ms) < 0)
            goto fail;
        if (PySet_GET_SIZE(c.barrier) && release_barriers(&c) < 0)
            goto fail;
    }
    if (ms_flush_all(&c.ms, 0) < 0)
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
