/* restricted's orbit walk, cycles.Stepper.walk in C over the tables of
   RestrictedEngine.app. Node i is the pair node[2i], node[2i + 1]: (-1, k)
   is the constant Const(k), else the normal application fn arg. One
   open-addressing table (linear probing, at most 3/4 full) maps an
   application pair to the id of its normal form; app is
   RestrictedEngine.app with its pending list as an explicit stack of
   frames over a stack of argument ids. rr_new starts from a copy of the
   Python engine's nodes, with one pair per node. The tables stay bounded:
   once every nodes have been made since the last compaction, the next
   advance starts by keeping only rr_new's nodes, the walk's x and y and
   what they reach, renumbered in order, and by clearing the pair table in
   place down to one entry per node; restricted.PyStepper does the same in
   Python, so ids, contraction counts and node counts agree with it
   exactly. An id other than x, y and rr_new's is valid only until the
   next rr_walk, and so is the node array rr_nodes returns.
   rr_walk sets made[0..3] to the advances made, the contractions, the
   nodes made in all and the nodes held, and returns 1 on equal states, 0
   after k advances, -1 past the contraction budget and -2 when memory or
   the 32-bit ids run out. */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>

#define BUDGET (-1)
#define NOMEM (-2)

typedef struct { int32_t fn, arg, out; } slot;  /* out < 0: empty */

/* a contraction under way: pair fn arg is the redex; its n arguments
   a1 ... an sit at args[at...], and next is the index of the next piece */
typedef struct { int32_t fn, arg; int64_t at, n, next; } frame;

typedef struct {
    int32_t *node;
    int64_t nodes, node_cap;
    slot *tab;
    int64_t used, cap, shift;  /* cap = 2^(64 - shift) slots */
    int32_t *args;
    int64_t nargs, args_cap;
    frame *pend;
    int64_t npend, pend_cap;
    int64_t steps, max_steps, base;
    int64_t keep, every, mark;  /* rr_new's n nodes, and when to compact */
    int64_t dropped;            /* nodes compaction has dropped */
    int32_t *to;                /* compaction's renumbering */
    int64_t to_cap;
} tables;

static slot *find(const tables *t, int32_t fn, int32_t arg)
{
    uint64_t key = (uint64_t)(uint32_t)fn << 32 | (uint32_t)arg;
    uint64_t i = key * 0x9E3779B97F4A7C15u >> t->shift, mask = (uint64_t)t->cap - 1;
    slot *s;
    while ((s = t->tab + i)->out >= 0 && (s->fn != fn || s->arg != arg))
        i = (i + 1) & mask;
    return s;
}

/* the table is mapped and unmapped directly, so that a freed table goes
   back to the system at once; compaction clears it in place */
static int new_table(tables *t, int64_t cap, int64_t shift)
{
    size_t size = (size_t)cap * sizeof(slot);
    slot *tab = mmap(NULL, size, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (tab == MAP_FAILED) return -1;
    memset(tab, 0xff, size);
    t->tab = tab; t->cap = cap; t->shift = shift;
    return 0;
}

/* fill the empty slot s = find(t, fn, arg), doubling the table first when
   one more entry would make it more than 3/4 full */
static int add(tables *t, slot *s, int32_t fn, int32_t arg, int32_t out)
{
    if (4 * (t->used + 1) > 3 * t->cap) {
        slot *old = t->tab, *o;
        if (new_table(t, 2 * t->cap, t->shift - 1)) return -1;
        for (o = old; o < old + t->cap / 2; o++)
            if (o->out >= 0) *find(t, o->fn, o->arg) = *o;
        munmap(old, (size_t)t->cap / 2 * sizeof *old);
        s = find(t, fn, arg);
    }
    t->used++;
    s->fn = fn; s->arg = arg; s->out = out;
    return 0;
}

/* room for need items of size bytes in *p, which holds *cap */
static int reserve(void **p, int64_t *cap, int64_t need, size_t size)
{
    int64_t c = *cap ? *cap : 64;
    void *q;
    if (need <= *cap) return 0;
    while (c < need) c *= 2;
    if (!(q = realloc(*p, (size_t)c * size))) return -1;
    *p = q; *cap = c;
    return 0;
}

static int push(tables *t, int32_t a)
{
    if (reserve((void **)&t->args, &t->args_cap, t->nargs + 1, sizeof *t->args)) return -1;
    t->args[t->nargs++] = a;
    return 0;
}

/* the id of the normal form of fn arg, or BUDGET or NOMEM */
static int64_t app(tables *t, int32_t fn, int32_t arg)
{
    int64_t out;
    for (;;) {
        slot *s = find(t, fn, arg);
        if (s->out >= 0) out = s->out;
        else {
            /* arg, then fn's spine; the last value pushed is its head's k */
            int64_t at = t->nargs, n, k;
            int32_t head = fn, a = arg;
            for (;;) {
                if (push(t, a)) return NOMEM;
                if (head < 0) break;
                a = t->node[2 * head + 1];
                head = t->node[2 * head];
            }
            k = t->args[--t->nargs];
            n = t->nargs - at;
            if (n < k + 3) {
                t->nargs = at;
                if (t->nodes == INT32_MAX
                    || reserve((void **)&t->node, &t->node_cap, 2 * t->nodes + 2,
                               sizeof *t->node))
                    return NOMEM;
                t->node[2 * t->nodes] = fn;
                t->node[2 * t->nodes + 1] = arg;
                out = t->nodes++;
                if (add(t, s, fn, arg, (int32_t)out)) return NOMEM;
            } else {
                int32_t *lo = t->args + at, *hi = lo + n - 1, x;
                if (++t->steps > t->max_steps) return BUDGET;
                for (; lo < hi; lo++, hi--) { x = *lo; *lo = *hi; *hi = x; }
                if (reserve((void **)&t->pend, &t->pend_cap, t->npend + 1, sizeof *t->pend))
                    return NOMEM;
                t->pend[t->npend++] = (frame){fn, arg, at, n, 3};
                fn = t->args[at + 1];
                arg = t->args[at + 2];
                continue;
            }
        }
        /* out is the next piece of the innermost contraction: a1 (a2 ... an)
           is built as a2 a3, then applied to a4 ... an, then a1 applied to it */
        for (;;) {
            frame *f;
            if (!t->npend) return out;
            f = t->pend + t->npend - 1;
            if (f->next <= f->n) {
                int32_t *a = t->args + f->at;
                if (f->next < f->n) { fn = (int32_t)out; arg = a[f->next]; }
                else { fn = a[0]; arg = (int32_t)out; }
                f->next++;
                break;
            }
            s = find(t, f->fn, f->arg);
            if (s->out >= 0) s->out = (int32_t)out;
            else if (add(t, s, f->fn, f->arg, (int32_t)out)) return NOMEM;
            t->nargs = f->at;
            t->npend--;
        }
    }
}

/* clear the pair table in place, then map each node's pair to its id */
static int index_nodes(tables *t)
{
    memset(t->tab, 0xff, (size_t)t->cap * sizeof *t->tab);
    t->used = 0;
    for (int64_t i = 0; i < t->nodes; i++) {
        int32_t fn = t->node[2 * i], arg = t->node[2 * i + 1];
        if (add(t, find(t, fn, arg), fn, arg, (int32_t)i)) return NOMEM;
    }
    return 0;
}

/* keep the nodes below keep, *x, *y and every node they reach, renumbered
   in increasing order; the table then holds one entry per node, and every
   other memo is gone. A node's children have smaller ids, so one sweep
   down marks and one sweep up renumbers. */
static int compact(tables *t, int64_t *x, int64_t *y)
{
    int32_t *node = t->node, *to;
    int64_t i, n = t->keep;
    if (reserve((void **)&t->to, &t->to_cap, t->nodes, sizeof *t->to)) return NOMEM;
    to = t->to;
    memset(to + n, 0, (size_t)(t->nodes - n) * sizeof *to);
    to[*x] = 1;
    if (y) to[*y] = 1;
    for (i = t->nodes - 1; i >= n; i--)
        if (to[i] && node[2 * i] >= 0) to[node[2 * i]] = to[node[2 * i + 1]] = 1;
    for (i = 0; i < n; i++) to[i] = (int32_t)i;
    for (i = n; i < t->nodes; i++)
        if (to[i]) {
            int32_t fn = node[2 * i], arg = node[2 * i + 1];
            node[2 * n] = fn < 0 ? fn : to[fn];
            node[2 * n + 1] = fn < 0 ? arg : to[arg];
            to[i] = (int32_t)n++;
        }
    *x = to[*x];
    if (y) *y = to[*y];
    t->dropped += t->nodes - n;
    t->nodes = t->mark = n;
    return index_nodes(t);
}

/* the node array, node i at 2i and 2i + 1, for reading terms back */
const int32_t *rr_nodes(const tables *t)
{
    return t->node;
}

void rr_free(tables *t)
{
    if (!t) return;
    if (t->tab) munmap(t->tab, (size_t)t->cap * sizeof *t->tab);
    free(t->node); free(t->args); free(t->pend); free(t->to);
    free(t);
}

/* tables holding the n nodes node[0..2n), with steps contractions made of
   max_steps, that compact once every nodes have been made since the last
   compaction; NULL when memory runs out */
tables *rr_new(const int64_t *node, int64_t n, int64_t base, int64_t steps,
               int64_t max_steps, int64_t every)
{
    tables *t = calloc(1, sizeof *t);
    if (!t) return NULL;
    if (new_table(t, 1024, 54)
        || reserve((void **)&t->node, &t->node_cap, 2 * n, sizeof *t->node)) {
        rr_free(t);
        return NULL;
    }
    for (int64_t i = 0; i < 2 * n; i++) t->node[i] = (int32_t)node[i];
    t->nodes = t->keep = t->mark = n; t->every = every;
    t->steps = steps; t->max_steps = max_steps; t->base = base;
    if (index_nodes(t)) {
        rr_free(t);
        return NULL;
    }
    return t;
}

/* cycles.Stepper.walk: advance x, and y too when both is set, up to k
   times by one application to the base, stopping at the first x equal to
   y (never when y is NULL); each advance starts with a compaction once
   every nodes have been made since the last one */
int rr_walk(tables *t, int64_t *x, int64_t *y, int both, int64_t k, int64_t *made)
{
    int64_t i = 0, a = 0;
    int hit = 0;
    for (; i < k && !hit; i++) {
        if (t->nodes - t->mark >= t->every && (a = compact(t, x, y)) < 0) break;
        if ((a = app(t, (int32_t)*x, (int32_t)t->base)) < 0) break;
        *x = a;
        if (both) {
            if ((a = app(t, (int32_t)*y, (int32_t)t->base)) < 0) break;
            *y = a;
        }
        hit = y && *x == *y;
    }
    made[0] = i; made[1] = t->steps; made[2] = t->nodes + t->dropped; made[3] = t->nodes;
    if (a < 0) {
        t->nargs = t->npend = 0;
        return (int)a;
    }
    return hit;
}
