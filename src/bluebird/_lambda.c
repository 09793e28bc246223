/* lambda_oracle's _normal in C: beta by Cregut's strongly reducing Krivine
   machine (KN), then _eta_reduce's two passes. A term is its prefix codes:
   0 an application, then function and argument; 1 an abstraction, then
   body; i + 2 the variable of de Bruijn index i. The machine is _normal's
   step for step, with the same environments, extended in place if no one
   else has, else copied, so it takes the same beta steps. Environments may
   refer to themselves, so they are traced, not counted: every one is on
   one list, and once they hold more than twice what the last trace kept,
   plus GC_BYTES, the next copy sets those the machine can no longer reach
   aside as spares, for copies until the trace after, which frees them.
   ln_normal sets *out to the normal form's codes (free them with ln_free)
   and returns their number, or BUDGET past max_steps beta steps, NOMEM when
   memory runs out, BAD when the codes are not one term and WIDE when an
   index of the normal form passes U+10FFFF. */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define APP 0
#define ABS 1
#define TOP 0x10FFFF
#define BUDGET (-1)
#define NOMEM (-2)
#define BAD (-3)
#define WIDE (-4)
#define GC_BYTES (1 << 22)

typedef struct env env;
typedef struct { int64_t t, n; env *e; } cell;  /* e == NULL: the output level t */
struct env { env *next; int64_t len, cap, mark; cell *c; };
typedef struct { int64_t t, n, level; env *e; } clo;  /* term t under env's first n */

typedef struct {
    env *all, *spare, **marks;
    int64_t bytes, limit;
    clo *todo;
    int64_t ntodo, todo_cap;
} heap;

static int grow(void **p, int64_t *cap, int64_t need, size_t size)
{
    if (need <= *cap) return 0;
    int64_t cap2 = 2 * *cap > need ? 2 * *cap : need;
    void *q = realloc(*p, (size_t)cap2 * size);
    if (!q) return -1;
    *p = q; *cap = cap2;
    return 0;
}

static void free_envs(env *e)
{
    for (env *next; e; e = next) {
        next = e->next;
        free(e->c); free(e);
    }
}

static env *env_new(heap *h, int64_t cap)
{
    env *e = h->spare;
    if (e && e->cap >= cap) {
        h->spare = e->next;
        cap = e->cap;
    } else {
        cell *c = malloc((size_t)cap * sizeof *c);
        if (!(e = malloc(sizeof *e)) || !c) { free(e); free(c); return NULL; }
        e->c = c; e->cap = cap;
    }
    e->len = 0; e->mark = 0;
    e->next = h->all; h->all = e;
    h->bytes += (int64_t)(sizeof *e + (size_t)cap * sizeof *e->c);
    return e;
}

/* frees the spares, and makes spares of the environments that neither cur
   nor the stack reaches */
static int trace(heap *h, env *cur)
{
    int64_t n = 0, count = 0;
    env *e, **link;
    for (e = h->all; e; e = e->next) count++;
    env **marks = realloc(h->marks, (size_t)count * sizeof *marks);
    if (!marks) return -1;
    h->marks = marks;
    cur->mark = 1; marks[n++] = cur;
    for (int64_t i = 0; i < h->ntodo; i++)
        if (!h->todo[i].e->mark) { h->todo[i].e->mark = 1; marks[n++] = h->todo[i].e; }
    while (n) {
        e = marks[--n];
        for (int64_t i = 0; i < e->len; i++)
            if (e->c[i].e && !e->c[i].e->mark) { e->c[i].e->mark = 1; marks[n++] = e->c[i].e; }
    }
    h->bytes = 0;
    free_envs(h->spare);
    h->spare = NULL;
    for (link = &h->all; (e = *link);) {
        if (e->mark) {
            e->mark = 0;
            h->bytes += (int64_t)(sizeof *e + (size_t)e->cap * sizeof *e->c);
            link = &e->next;
        } else {
            *link = e->next;
            e->next = h->spare; h->spare = e;
        }
    }
    h->limit = 2 * h->bytes + GC_BYTES;
    return 0;
}

/* _normal's env = env if len(env) == n else env[:n]; env.append(v) */
static int extend(heap *h, env **pe, int64_t n, cell v)
{
    env *e = *pe;
    if (e->len != n) {
        if (h->bytes > h->limit && trace(h, e)) return -1;
        env *f = env_new(h, n + n / 2 + 4);
        if (!f) return -1;
        memcpy(f->c, e->c, (size_t)n * sizeof *f->c);
        f->len = n;
        *pe = e = f;
    } else if (e->len == e->cap) {
        int64_t cap = e->cap;
        if (grow((void **)&e->c, &e->cap, cap + 1, sizeof *e->c)) return -1;
        h->bytes += (e->cap - cap) * (int64_t)sizeof *e->c;
    }
    e->c[e->len++] = v;
    return 0;
}

static int64_t beta(const int32_t *code, int64_t len, int64_t max_steps, heap *h,
                    int32_t **pout)
{
    int64_t *arg = malloc((size_t)len * sizeof *arg), *stack = malloc((size_t)len * sizeof *stack);
    int64_t nstack = 0, steps = 0, nout = 0, out_cap = len, status = 0;
    int32_t *out = malloc((size_t)len * sizeof *out);
    env *e = NULL;
    if (!arg || !stack || !out) { status = NOMEM; goto done; }
    /* the tree: an application's function follows it, its argument at arg[i] */
    for (int64_t i = len - 1; i >= 0; i--) {
        if (code[i] == APP) {
            if (nstack < 2) { status = BAD; goto done; }
            nstack--;
            arg[i] = stack[nstack - 1];
            stack[nstack - 1] = i;
        } else if (code[i] == ABS) {
            if (nstack < 1) { status = BAD; goto done; }
            stack[nstack - 1] = i;
        } else if (code[i] < 0) {
            status = BAD; goto done;
        } else {
            stack[nstack++] = i;
        }
    }
    if (nstack != 1 || !(e = env_new(h, 4))) { status = nstack != 1 ? BAD : NOMEM; goto done; }
    h->todo[0] = (clo){0, 0, 0, e};
    h->ntodo = 1;
    while (h->ntodo) {
        clo k = h->todo[--h->ntodo];
        int64_t t = k.t, n = k.n, level = k.level, base = h->ntodo;
        e = k.e;
        for (;;) {
            int32_t x = code[t];
            if (x == APP) {
                if (grow((void **)&h->todo, &h->todo_cap, h->ntodo + 1, sizeof *h->todo)) {
                    status = NOMEM; goto done;
                }
                h->todo[h->ntodo++] = (clo){arg[t], n, level, e};
                t++;
            } else if (x == ABS) {
                cell v;
                if (h->ntodo > base) {
                    if (++steps > max_steps) { status = BUDGET; goto done; }
                    clo a = h->todo[h->ntodo - 1];
                    v = (cell){a.t, a.n, a.e};
                } else {
                    v = (cell){level, 0, NULL};
                }
                /* the argument stays on the stack, a root, until it is stored */
                if (extend(h, &e, n, v)) { status = NOMEM; goto done; }
                if (v.e) h->ntodo--;
                else {
                    if (grow((void **)&out, &out_cap, nout + 1, sizeof *out)) {
                        status = NOMEM; goto done;
                    }
                    out[nout++] = ABS;
                    level++;
                }
                n++; t++;
            } else {
                int64_t j = n - 1 - (x - 2), c = j;
                if (j >= 0) {
                    cell v = e->c[j];
                    if (v.e) { t = v.t; n = v.n; e = v.e; continue; }
                    c = v.t;
                }
                if (level + 1 - c > TOP) { status = WIDE; goto done; }
                int64_t apps = h->ntodo - base;
                if (grow((void **)&out, &out_cap, nout + apps + 1, sizeof *out)) {
                    status = NOMEM; goto done;
                }
                while (apps--) out[nout++] = APP;
                out[nout++] = (int32_t)(level + 1 - c);
                break;
            }
        }
    }
done:
    free(arg); free(stack);
    if (status) { free(out); return status; }
    *pout = out;
    return nout;
}

/* an argument read: its start, and the level of the variable it reduces to, else -1 */
typedef struct { int64_t at, level; } seen;
typedef struct { int64_t p, m, d, s, n, got; } frame;
typedef struct { int64_t d, k; } spot;

/* _eta_reduce: the eta normal form of the beta normal form code[0 .. len) */
static int64_t eta(const int32_t *code, int64_t len, int32_t **pout)
{
    int64_t *uses = malloc((size_t)(len + 1) * sizeof *uses);
    int64_t *skip = malloc((size_t)(len + 1) * sizeof *skip);  /* dropped text: end, or -1 */
    int64_t *skipped = malloc((size_t)(len + 1) * sizeof *skipped);  /* binders in it */
    int64_t *below = malloc((size_t)(len + 1) * sizeof *below);
    seen *got = malloc((size_t)(len + 1) * sizeof *got);
    frame *frames = malloc((size_t)(len + 1) * sizeof *frames);
    spot *todo = malloc((size_t)(len + 1) * sizeof *todo);
    int32_t *out = NULL;
    int64_t status = NOMEM, any = 0, nf = 1, ngot = 0, i = 0;
    if (!uses || !skip || !skipped || !below || !got || !frames || !todo) goto done;
    for (int64_t x = 0; x <= len; x++) { skip[x] = -1; below[x] = x; }
    frames[0] = (frame){0, 0, 0, -1, 1, 0};
    while (nf) {
        frame *f = frames + nf - 1;
        if (ngot - f->got == f->n) {
            frame g = *f;
            seen *a = got + g.got;
            int64_t r = 0;
            nf--;
            while (r < g.m && r < g.n && a[g.n - 1 - r].level == g.d - 1 - r
                   && uses[g.d - 1 - r] == 1)
                r++;
            if (r) {
                skip[g.p + g.m - r] = g.p + g.m + r; skipped[g.p + g.m - r] = r;
                skip[a[g.n - r].at] = i; skipped[a[g.n - r].at] = 0;
                any = 1;
            }
            ngot = g.got;
            if (nf) got[ngot++] = (seen){g.p, r == g.m && r == g.n ? g.s : -1};
            continue;
        }
        int64_t d = f->d, p = i, s;
        if (code[i] > ABS) {
            if ((s = d + 1 - code[i]) >= 0) uses[s]++;
            got[ngot++] = (seen){i, s};
            i++;
            continue;
        }
        while (code[i] == ABS) i++;
        int64_t m = i - p, q = i;
        while (code[i] == APP) i++;
        for (int64_t x = d; x < d + m; x++) uses[x] = 0;
        if ((s = d + m + 1 - code[i]) >= 0) uses[s]++;
        frames[nf++] = (frame){p, m, d + m, s, i - q, ngot};
        i++;
    }
    if (!(out = malloc((size_t)len * sizeof *out))) goto done;
    if (!any) {
        memcpy(out, code, (size_t)len * sizeof *out);
        status = len;
        goto done;
    }
    int64_t nt = 1, nout = 0;
    todo[0] = (spot){0, 0};
    i = 0;
    while (nt) {
        spot u = todo[--nt];
        while (skip[i] >= 0) { u.d += skipped[i]; i = skip[i]; }
        int64_t c = code[i++];
        if (c == APP) { todo[nt++] = u; todo[nt++] = u; }
        else if (c == ABS) { below[u.d] = u.k; todo[nt++] = (spot){u.d + 1, u.k + 1}; }
        else {
            int64_t s = u.d + 1 - c;
            c = u.k + 1 - (s >= 0 ? below[s] : s);
        }
        out[nout++] = (int32_t)c;
    }
    status = nout;
done:
    free(uses); free(skip); free(skipped); free(below); free(got); free(frames); free(todo);
    if (status < 0) free(out);
    else *pout = out;
    return status;
}

int64_t ln_normal(const int32_t *code, int64_t len, int64_t max_steps, int32_t **out)
{
    heap h = {NULL, NULL, NULL, 0, GC_BYTES, NULL, 0, 0};
    int32_t *nf = NULL;
    int64_t n;
    if (grow((void **)&h.todo, &h.todo_cap, 64, sizeof *h.todo)) return NOMEM;
    n = len > 0 ? beta(code, len, max_steps, &h, &nf) : BAD;
    free_envs(h.all);
    free_envs(h.spare);
    free(h.marks); free(h.todo);
    if (n < 0) return n;
    n = eta(nf, n, out);
    free(nf);
    return n;
}

void ln_free(int32_t *codes)
{
    free(codes);
}
