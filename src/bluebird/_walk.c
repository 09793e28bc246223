/* cycle_detect's orbit walk, cycles.Stepper.walk in C. A state s is
   n = s[0], offset t = s[1] and n ints [D0 + t, m0, D1 + t, m1, ...] in a
   buffer of cap ints; b is the base. apply is canonical._apply_into, same
   is DegreeSeq.__eq__. bb_walk sets *made and returns 1 on equal states, 0
   after k advances and -1 before a merge that might overflow a buffer. */

#include <stdint.h>
#include <string.h>

#define ROOM(s) (2 + (s)[0] + b[0] <= cap)

static void apply(int64_t *s, const int64_t *b)
{
    int64_t *a = s + 2, n = s[0], t = s[1], lift = t + 1 - b[1];
    for (int64_t j = 2; j < b[0] + 2; j += 2) {
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
