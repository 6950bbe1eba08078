/* The spatial machine's clock recurrence over a batch of CSR rounds.
 *
 * Same integer recurrence as repro.machine.machine.advance_clocks, applied
 * round after round: a sender's j-th message of a round departs on chain
 * clock[s] + j + 1 and its clock advances by its send count; a receiver of
 * m messages processes their chains in ascending order, ending at
 * max(clock[d] + m, max_j(chain_j + m - 1 - j)).
 *
 * Scratch (owned by the calling machine, never shared between threads):
 *   count, head: n entries, all 0 and -1 on entry; restored before return
 *   work:        3 * (largest round) entries, contents irrelevant
 *
 * Returns the largest clock among the endpoints touched; *rounds receives
 * the number of non-empty rounds. Returns -1, touching nothing, when an
 * offset or a processor id is out of range.
 */
#include <stdint.h>
#include <stdlib.h>

static int cmp_i64(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

int64_t advance_rounds(int64_t n, int64_t *clock, int64_t len, const int64_t *src,
                       const int64_t *dst, const int64_t *off, int64_t nround,
                       int64_t *count, int64_t *head, int64_t *work, int64_t *rounds)
{
    for (int64_t r = 0; r < nround; r++)
        if (off[r] < 0 || off[r] > off[r + 1] || off[r + 1] > len)
            return -1;
    for (int64_t i = 0; i < len; i++)
        if ((uint64_t)src[i] >= (uint64_t)n || (uint64_t)dst[i] >= (uint64_t)n)
            return -1;
    int64_t top = 0, done = 0;
    for (int64_t r = 0; r < nround; r++) {
        const int64_t a = off[r], k = off[r + 1] - a;
        if (k <= 0)
            continue;
        const int64_t *s = src + a, *d = dst + a;
        int64_t *next = work, *chain = work + k, *buf = work + 2 * k;
        done++;
        for (int64_t i = 0; i < k; i++)
            chain[i] = clock[s[i]] + count[s[i]]++ + 1;
        for (int64_t i = 0; i < k; i++) {
            const int64_t p = s[i];
            if (count[p]) {
                clock[p] += count[p];
                count[p] = 0;
                if (clock[p] > top)
                    top = clock[p];
            }
        }
        for (int64_t i = 0; i < k; i++) {
            next[i] = head[d[i]];
            head[d[i]] = i;
        }
        for (int64_t i = 0; i < k; i++) {
            const int64_t q = d[i];
            int64_t m = 0;
            for (int64_t j = head[q]; j >= 0; j = next[j])
                buf[m++] = chain[j];
            if (m == 0)
                continue;
            head[q] = -1;
            if (m > 16) {
                qsort(buf, (size_t)m, sizeof *buf, cmp_i64);
            } else {
                for (int64_t j = 1; j < m; j++) {
                    const int64_t v = buf[j];
                    int64_t t = j;
                    for (; t > 0 && buf[t - 1] > v; t--)
                        buf[t] = buf[t - 1];
                    buf[t] = v;
                }
            }
            int64_t t = clock[q] + m;
            for (int64_t j = 0; j < m; j++)
                if (buf[j] + m - 1 - j > t)
                    t = buf[j] + m - 1 - j;
            clock[q] = t;
            if (t > top)
                top = t;
        }
    }
    *rounds = done;
    return top;
}
