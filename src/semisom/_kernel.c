/*
 * Compiled kernels of semisom's SomMap and of its training loop.
 *
 * Each function reproduces, bit for bit, the numpy kernels of model.py and
 * the Python presentation loop of training.py that it replaces: the same
 * float operations on the same operands in the same order. min/max
 * propagate NaN and the logistic curve is 1 / (1 + exp(-z)) as in scipy's
 * expit, with the C library's exp, one value at a time.
 *
 * Every sum is numpy's pairwise summation, in one leaf (sum0): the eight
 * accumulators numpy keeps for each block of 8 terms are the lanes of two
 * 4-wide vectors, and each term is computed in those lanes straight from
 * the operand rows. A lane operation is the IEEE operation the scalar code
 * would make, so the order and the rounding are numpy's.
 *
 * On x86-64 with glibc, the winner search and the link recomputation are
 * built twice, for AVX2 and for the baseline ISA, and the loader picks one
 * when the library loads (target_clones); defining SOM_DEFAULT_ONLY builds
 * the baseline alone, which the tests compare with the clones. Built with
 * -ffp-contract=off so no multiply-add is fused; never build it with
 * -ffast-math or -march=native.
 *
 * Matrices are C-contiguous rows of length m, one row per node. The
 * adjacency holds one bit row of `words` uint64 per node: bit i % 64 of
 * word i / 64 of row j is set when nodes i and j are linked. Bits outside
 * the n x n block of present nodes are always zero.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>

#define NO_CLASS (-1)

/* One map's storage: node rows (centers, rel, dist), per-node relevance
 * sums, activations, wins and labels, the adjacency bit rows, and scratch
 * for the pattern (x, m doubles) and the rates and rows of an update (lr,
 * idx). */
struct som_view {
    ptrdiff_t m, words;
    double eps;
    double *centers, *rel, *dist, *sums, *acts, *x, *lr;
    ptrdiff_t *idx;
    int64_t *wins, *labels;
    uint64_t *adj;
};

/* The HyperParams a presentation reads, and whether it may insert. */
struct som_params {
    double a_t, e_b, e_n, push_rate, beta, slope, minwd;
    int64_t n_max, age_wins, allow_insert;
};

/* Why som_train returned, and the slots of its counter array. */
enum { SOM_END, SOM_INSERT, SOM_SWEEP };
enum { C_POS, C_NWINS, C_T, C_SUPERVISED, C_UNSUPERVISED, C_PUSHES };

/* An AVX2 body and a baseline one for a hot function, chosen once by the
 * CPU when the library loads. Both make the same IEEE operations, so they
 * agree bit for bit. */
#if defined(__x86_64__) && defined(__GLIBC__) && !defined(SOM_DEFAULT_ONLY)
#define CLONES __attribute__((target_clones("avx2", "default")))
#else
#define CLONES
#endif

#define INLINE static inline __attribute__((always_inline))

/* Four doubles; two of them hold the eight accumulators of a sum. */
typedef double v4d __attribute__((vector_size(32)));

/* The terms a sum adds up: a[q], (a[q] - b[q])^2 or w[q] * (a[q] - b[q])^2,
 * each computed as numpy computes the array it reduces. */
enum { SUM_PLAIN, SUM_SQUARES, SUM_WEIGHTED };

INLINE double term(int kind, const double *a, const double *b,
                   const double *w, ptrdiff_t q)
{
    if (kind == SUM_PLAIN)
        return a[q];
    double d = a[q] - b[q];
    return kind == SUM_SQUARES ? d * d : w[q] * (d * d);
}

/* Terms q .. q + 3 into *t, lane by lane the operations of term(). */
INLINE void terms4(int kind, const double *a, const double *b,
                   const double *w, ptrdiff_t q, v4d *t)
{
    v4d x, y;
    __builtin_memcpy(&x, a + q, sizeof x);
    if (kind != SUM_PLAIN) {
        __builtin_memcpy(&y, b + q, sizeof y);
        x -= y;
        x *= x;
        if (kind == SUM_WEIGHTED) {
            __builtin_memcpy(&y, w + q, sizeof y);
            x = y * x;
        }
    }
    *t = x;
}

/* numpy's pairwise_sum for float64 and n <= 128 terms: sequential below 8
 * terms, else eight accumulators r0..r7, one per term of each block of 8,
 * combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) before the
 * sequential tail. Lanes 0-3 of `lo` are r0..r3 and those of `hi` r4..r7,
 * so each lane makes the additions of its accumulator. */
INLINE double sum_leaf(int kind, const double *a, const double *b,
                       const double *w, ptrdiff_t n)
{
    ptrdiff_t q;
    double res = 0.0;
    if (n < 8) {
        for (q = 0; q < n; q++)
            res += term(kind, a, b, w, q);
        return res;
    }
    v4d lo, hi, t;
    terms4(kind, a, b, w, 0, &lo);
    terms4(kind, a, b, w, 4, &hi);
    for (q = 8; q < n - n % 8; q += 8) {
        terms4(kind, a, b, w, q, &t);
        lo += t;
        terms4(kind, a, b, w, q + 4, &t);
        hi += t;
    }
    res = ((lo[0] + lo[1]) + (lo[2] + lo[3])) +
          ((hi[0] + hi[1]) + (hi[2] + hi[3]));
    for (; q < n; q++)
        res += term(kind, a, b, w, q);
    return res;
}

/* numpy's pairwise_sum above 128 terms: the two halves, split at a
 * multiple of 8, summed apart. */
CLONES static double sum_split(int kind, const double *a, const double *b,
                               const double *w, ptrdiff_t n)
{
    ptrdiff_t n2 = n / 2;
    n2 -= n2 % 8;
    double left = n2 <= 128 ? sum_leaf(kind, a, b, w, n2)
                            : sum_split(kind, a, b, w, n2);
    a += n2, b += n2, w += n2, n -= n2;
    return left + (n <= 128 ? sum_leaf(kind, a, b, w, n)
                            : sum_split(kind, a, b, w, n));
}

/* np.add.reduce of the n terms: the reduction starts from the identity, so
 * the result is 0.0 + the pairwise sum. Operands a kind does not read may
 * be any row. */
INLINE double sum0(int kind, const double *a, const double *b,
                   const double *w, ptrdiff_t n)
{
    return 0.0 + (n <= 128 ? sum_leaf(kind, a, b, w, n)
                           : sum_split(kind, a, b, w, n));
}

/* sum0 for callers outside the library: the tests compare it with numpy. */
double som_sum(int kind, const double *a, const double *b, const double *w,
               ptrdiff_t n)
{
    return sum0(kind, a, b, w, n);
}

/* Activations of nodes [0, n) for x into v->acts; the argmax as np.argmax
 * (lowest index on ties, the first NaN if any). */
CLONES static ptrdiff_t winner(const struct som_view *v, ptrdiff_t n,
                               const double *x)
{
    const ptrdiff_t m = v->m;
    const double *mass = v->sums;
    double *acts = v->acts;
    for (ptrdiff_t i = 0; i < n; i++) {
        double dist = sqrt(sum0(SUM_WEIGHTED, v->centers + i * m, x,
                                v->rel + i * m, m));
        acts[i] = mass[i] / ((dist + mass[i]) + v->eps);
    }
    ptrdiff_t best = 0;
    for (ptrdiff_t i = 0; i < n; i++) {
        if (isnan(acts[i]))
            return i;
        if (acts[i] > acts[best])
            best = i;
    }
    return best;
}

/* Node update of row j toward x at rate l, in place on centers, dist, rel
 * and sums. */
static void update_row(const struct som_view *v, ptrdiff_t j, const double *x,
                       double l, double beta, double slope)
{
    const ptrdiff_t m = v->m;
    double rate = l * beta;
    double keep = 1.0 - rate;
    double *c = v->centers + j * m;
    double *d = v->dist + j * m;
    double *r = v->rel + j * m;
    /* distance average, clamped at zero like np.maximum(d, 0.0): NaN stays
     * NaN, -0.0 becomes 0.0 */
    for (ptrdiff_t q = 0; q < m; q++) {
        double t = d[q] * keep + fabs(x[q] - c[q]) * rate;
        d[q] = (t > 0.0 || isnan(t)) ? t : 0.0;
    }
    /* relevances from the distance average */
    double lo = d[0], hi = d[0];
    for (ptrdiff_t q = 1; q < m && !isnan(lo); q++) {
        if (isnan(d[q]))
            lo = hi = d[q];
        else if (d[q] < lo)
            lo = d[q];
        else if (d[q] > hi)
            hi = d[q];
    }
    double spread = hi - lo;
    int flat = spread == 0.0;
    double den = slope * (flat ? 1.0 : spread);
    double mean = sum0(SUM_PLAIN, d, d, d, m) / (double)m;
    for (ptrdiff_t q = 0; q < m; q++)
        r[q] = flat ? 1.0 : 1.0 / (1.0 + exp(-((mean - d[q]) / den)));
    /* convex step of the center toward x */
    double stay = 1.0 - l;
    for (ptrdiff_t q = 0; q < m; q++)
        c[q] = c[q] * stay + l * x[q];
    v->sums[j] = sum0(SUM_PLAIN, r, r, r, m);
}

/* Recompute the links between node j, 0 <= j < n, and each node of
 * [lo, n), in both bit rows. Two nodes link when their labels are
 * compatible and the Euclidean gap of their relevance rows lies below
 * minwd * sqrt(m). */
CLONES void som_link(const struct som_view *v, ptrdiff_t n, ptrdiff_t j,
                     ptrdiff_t lo, double minwd)
{
    const ptrdiff_t m = v->m, words = v->words;
    const double *rj = v->rel + j * m;
    const int64_t lj = v->labels[j];
    const double bound = minwd * sqrt((double)m);
    const uint64_t bit_j = (uint64_t)1 << (j % 64);
    uint64_t *row = v->adj + j * words;
    for (ptrdiff_t i = lo; i < n; i++) {
        const int64_t li = v->labels[i];
        int on = 0;
        if (i != j && (li == lj || li == NO_CLASS || lj == NO_CLASS))
            on = sqrt(sum0(SUM_SQUARES, v->rel + i * m, rj, rj, m)) < bound;
        const uint64_t bit_i = (uint64_t)1 << (i % 64);
        uint64_t *col = v->adj + i * words + j / 64;
        if (on) {
            row[i / 64] |= bit_i;
            *col |= bit_j;
        } else {
            row[i / 64] &= ~bit_i;
            *col &= ~bit_j;
        }
    }
}

/* Attract node j at rate e_b, then its neighbors in ascending order at
 * rate e_n, and count the win. */
static void attract(const struct som_view *v, ptrdiff_t j, const double *x,
                    const struct som_params *p)
{
    update_row(v, j, x, p->e_b, p->beta, p->slope);
    const uint64_t *row = v->adj + j * v->words;
    for (ptrdiff_t w = 0; w < v->words; w++)
        for (uint64_t bits = row[w]; bits; bits &= bits - 1)
            update_row(v, w * 64 + __builtin_ctzll(bits), x, p->e_n, p->beta,
                       p->slope);
    v->wins[j]++;
}

/* The most activated node of [0, n) whose label is `label` or NO_CLASS and
 * whose activation reaches a_t, from the activations in v->acts; -1 when
 * none qualifies. */
static ptrdiff_t second_winner(const struct som_view *v, ptrdiff_t n,
                               int64_t label, double a_t)
{
    const double *acts = v->acts;
    ptrdiff_t best = -1;
    for (ptrdiff_t i = 0; i < n; i++) {
        int64_t li = v->labels[i];
        if ((li == label || li == NO_CLASS) && acts[i] >= a_t &&
            (best < 0 || acts[i] > acts[best]))
            best = i;
    }
    return best;
}

/*
 * Activation of nodes [0, n) for the pattern in v->x, written to v->acts;
 * returns the index of the largest activation, the lowest on ties and the
 * first NaN if any, as np.argmax.
 */
ptrdiff_t som_winner(const struct som_view *v, ptrdiff_t n)
{
    return winner(v, n, v->x);
}

/*
 * Node update of the k rows v->idx[0..k) for the pattern in v->x, row i at
 * rate v->lr[i * lr_step] (lr_step 0 gives every row the rate v->lr[0]), in
 * place on centers, dist, rel and sums. Rows are updated one after another.
 * Returns -1, having written nothing, when an index lies outside [0, n);
 * 0 otherwise.
 */
int som_update(const struct som_view *v, ptrdiff_t n, ptrdiff_t k,
               ptrdiff_t lr_step, double beta, double slope)
{
    for (ptrdiff_t i = 0; i < k; i++)
        if (v->idx[i] < 0 || v->idx[i] >= n)
            return -1;
    for (ptrdiff_t i = 0; i < k; i++)
        update_row(v, v->idx[i], v->x, v->lr[i * lr_step], beta, slope);
    return 0;
}

/*
 * Presentations draws[count[C_POS]..k) of the rows of `patterns` (m
 * columns) and `labels`, as the Python loop of training.py runs them on a
 * map of n nodes: winner search, the supervised or unsupervised step, the
 * cycle counter count[C_NWINS] and the presentation counter count[C_T].
 * count[C_SUPERVISED], [C_UNSUPERVISED] and [C_PUSHES] add up the steps.
 *
 * Returns SOM_END with count[C_POS] = k when every presentation ran. It
 * stops early, with count[C_POS] at the presentation concerned and before
 * that presentation's cycle and presentation counts, on a step that
 * inserts a node (SOM_INSERT, nothing written for the step but its step
 * counter) or when the cycle is complete (SOM_SWEEP, the step done). The
 * caller then inserts, sweeps if count[C_NWINS] == age_wins, counts the
 * presentation and resumes at the next position.
 */
int som_train(const struct som_view *v, ptrdiff_t n,
              const struct som_params *p, const double *patterns,
              const int64_t *labels, const int64_t *draws, ptrdiff_t k,
              int64_t *count)
{
    for (ptrdiff_t pos = count[C_POS]; pos < k; pos++) {
        const double *x = patterns + draws[pos] * v->m;
        const int64_t label = labels[draws[pos]];
        const ptrdiff_t w = winner(v, n, x);
        const double act = v->acts[w];
        count[C_POS] = pos;
        if (label == NO_CLASS) {
            count[C_UNSUPERVISED]++;
            /* below a_t: insert if allowed and there is room, attract if
             * only the room is missing, skip if inserting is not allowed */
            if (act < p->a_t && p->allow_insert && n < p->n_max)
                return SOM_INSERT;
            if (!(act < p->a_t) || p->allow_insert)
                attract(v, w, x, p);
        } else {
            count[C_SUPERVISED]++;
            const int64_t wl = v->labels[w];
            if (wl == label || wl == NO_CLASS) {
                if (!(act < p->a_t)) {
                    attract(v, w, x, p);
                    v->labels[w] = label;
                    som_link(v, n, w, 0, p->minwd);
                } else if (p->allow_insert && n < p->n_max) {
                    return SOM_INSERT;
                }
            } else {
                const ptrdiff_t s = second_winner(v, n, label, p->a_t);
                if (s >= 0) {
                    attract(v, s, x, p);
                    update_row(v, w, x, -p->push_rate, p->beta, p->slope);
                    count[C_PUSHES]++;
                } else if (p->allow_insert && n < p->n_max) {
                    return SOM_INSERT;
                }
            }
        }
        if (count[C_NWINS] == p->age_wins)
            return SOM_SWEEP;
        count[C_NWINS]++;
        count[C_T]++;
    }
    count[C_POS] = k;
    return SOM_END;
}
