/* The compiled side of canonical: cycle_detect's orbit walk,
   cycles.Stepper.walk in C, and canonicalize's fold. A state s is
   n = s[0], offset t = s[1] and n ints [D0 + t, m0, D1 + t, m1, ...];
   apply is canonical._apply_into, the one merge, and same is
   DegreeSeq.__eq__. bb_walk's states sit in buffers of cap ints and b is
   the base; it sets *made and returns 1 on equal states, 0 after k
   advances and -1 before a merge that might overflow a buffer. bb_fold
   runs a term's post-order over a stack of states (below). */

#include <stdint.h>
#include <string.h>

#define ROOM(s) (2 + (s)[0] + b[0] <= cap)

/* s becomes the state of (s b). b may start right after s's n ints: the
   merge reads each run of b before s has grown far enough to reach it. */
static void apply(int64_t *s, const int64_t *b)
{
    int64_t *a = s + 2, n = s[0], t = s[1], lift = t + 1 - b[1], end = b[0] + 2;
    for (int64_t j = 2; j < end; j += 2) {
        int64_t x = b[j] + lift, i = n;
        while (i && a[i - 2] < x) { x += a[i - 1]; i -= 2; }
        if (i && a[i - 2] == x) a[i - 1] += b[j + 1];
        else {
            memmove(a + i + 2, a + i, (size_t)(n - i) * sizeof *a);
            a[i] = x; a[i + 1] = b[j + 1]; n += 2;
        }
    }
    s[0] = a[n - 2] == t ? n - 2 : n;
    s[1] = t + 1;
}

static int same(const int64_t *s, const int64_t *c)
{
    if (s[0] != c[0]) return 0;
    for (int64_t i = s[0]; i > 0; i -= 2)
        if (s[i + 1] != c[i + 1] || s[i] - c[i] != s[1] - c[1]) return 0;
    return 1;
}

/* cycles.Stepper.walk: advance x, and y too when both is set, up to k
   times, stopping at the first x equal to y (never when y is NULL) */
int bb_walk(int64_t *x, int64_t *y, int both, const int64_t *b,
            int64_t cap, int64_t k, int64_t *made)
{
    int64_t i = 0, hit = 0;
    for (; i < k && !hit && ROOM(x) && (!both || ROOM(y)); i++) {
        apply(x, b);
        if (both) apply(y, b);
        hit = y && same(x, y);
    }
    *made = i;
    return hit ? 1 : i < k ? -1 : 0;
}

/* canonical.canonicalize: codes[0..n) is a term in post-order, 0 for a
   leaf B and 1 for the application of the state below the top of the stack
   to the top one. The states lie one after another from out[0], and the
   start of each from out[cap - 1] down; apply merges the top state into the
   one below in place. A term of L leaves needs at most 5L ints. Returns 0
   with the term's state at out[0], or -1 when the codes are not one term
   or out is too small. */
int bb_fold(const unsigned char *codes, int64_t n, int64_t *out, int64_t cap)
{
    int64_t k = 0, end = 0;  /* states on the stack, ints they use */
    for (int64_t i = 0; i < n; i++) {
        if (codes[i] == 0) {
            if (end + 4 + k + 1 > cap) return -1;
            out[cap - 1 - k++] = end;
            out[end] = 2; out[end + 1] = 0; out[end + 2] = 0; out[end + 3] = 1;
            end += 4;
        } else {
            if (k < 2) return -1;
            int64_t *s = out + out[cap - k + 1];
            apply(s, out + out[cap - k--]);
            end = s - out + 2 + s[0];
        }
    }
    return k == 1 ? 0 : -1;
}
