/*
 * Compiled kernels of semisom's SomMap and of its training loop.
 *
 * Each function reproduces, bit for bit, the numpy kernels of model.py and
 * the Python presentation loop of training.py that it replaces: the same
 * float operations on the same operands in the same order. Sums follow
 * numpy's pairwise summation, min/max propagate NaN and the logistic curve
 * is 1 / (1 + exp(-z)) as in scipy's expit. Built with -ffp-contract=off so
 * no multiply-add is fused; never build it with -ffast-math or
 * -march=native.
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
 * for the pattern (x, m doubles), the summation terms (work, m), and the
 * rates and rows of an update (lr, idx). */
struct som_view {
    ptrdiff_t m, words;
    double eps;
    double *centers, *rel, *dist, *sums, *acts, *x, *work, *lr;
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

/* numpy's pairwise_sum for float64: sequential below 8 terms, eight
 * accumulators up to 128, halves (at multiples of 8) above. The reduction
 * starts from the identity, so the result is 0.0 + sum. */
static double pairwise_sum(const double *a, ptrdiff_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (ptrdiff_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        ptrdiff_t i;
        for (i = 0; i < 8; i++)
            r[i] = a[i];
        for (i = 8; i < n - (n % 8); i += 8) {
            r[0] += a[i + 0];
            r[1] += a[i + 1];
            r[2] += a[i + 2];
            r[3] += a[i + 3];
            r[4] += a[i + 4];
            r[5] += a[i + 5];
            r[6] += a[i + 6];
            r[7] += a[i + 7];
        }
        double res = ((r[0] + r[1]) + (r[2] + r[3])) +
                     ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    ptrdiff_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

static double sum0(const double *a, ptrdiff_t n)
{
    return 0.0 + pairwise_sum(a, n);
}

/* Activations of nodes [0, n) for x into v->acts; the argmax as np.argmax
 * (lowest index on ties, the first NaN if any). */
static ptrdiff_t winner(const struct som_view *v, ptrdiff_t n, const double *x)
{
    const ptrdiff_t m = v->m;
    const double *mass = v->sums;
    double *acts = v->acts, *work = v->work;
    for (ptrdiff_t i = 0; i < n; i++) {
        const double *c = v->centers + i * m;
        const double *r = v->rel + i * m;
        for (ptrdiff_t q = 0; q < m; q++) {
            double d = c[q] - x[q];
            work[q] = r[q] * (d * d);
        }
        double dist = sqrt(sum0(work, m));
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
    double mean = sum0(d, m) / (double)m;
    for (ptrdiff_t q = 0; q < m; q++)
        r[q] = flat ? 1.0 : 1.0 / (1.0 + exp(-((mean - d[q]) / den)));
    /* convex step of the center toward x */
    double stay = 1.0 - l;
    for (ptrdiff_t q = 0; q < m; q++)
        c[q] = c[q] * stay + l * x[q];
    v->sums[j] = sum0(r, m);
}

/* Recompute the links between node j, 0 <= j < n, and each node of
 * [lo, n), in both bit rows. Two nodes link when their labels are
 * compatible and the Euclidean gap of their relevance rows lies below
 * minwd * sqrt(m). */
void som_link(const struct som_view *v, ptrdiff_t n, ptrdiff_t j,
              ptrdiff_t lo, double minwd)
{
    const ptrdiff_t m = v->m, words = v->words;
    const double *rj = v->rel + j * m;
    const int64_t lj = v->labels[j];
    const double bound = minwd * sqrt((double)m);
    const uint64_t bit_j = (uint64_t)1 << (j % 64);
    uint64_t *row = v->adj + j * words;
    double *work = v->work;
    for (ptrdiff_t i = lo; i < n; i++) {
        const int64_t li = v->labels[i];
        int on = 0;
        if (i != j && (li == lj || li == NO_CLASS || lj == NO_CLASS)) {
            const double *ri = v->rel + i * m;
            for (ptrdiff_t q = 0; q < m; q++) {
                double d = ri[q] - rj[q];
                work[q] = d * d;
            }
            on = sqrt(sum0(work, m)) < bound;
        }
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
