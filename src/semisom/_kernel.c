/*
 * Compiled presentation kernels of semisom's SomMap.
 *
 * Each function reproduces, bit for bit, the numpy kernels of model.py that
 * it replaces: the same float operations on the same operands in the same
 * order. Sums follow numpy's pairwise summation, min/max propagate NaN and
 * the logistic curve is 1 / (1 + exp(-z)) as in scipy's expit. Built with
 * -ffp-contract=off so no multiply-add is fused; never build it with
 * -ffast-math or -march=native.
 *
 * Matrices are C-contiguous rows of length m, one row per node.
 */

#include <math.h>
#include <stddef.h>

/* One map's storage: node rows (centers, rel, dist), per-node relevance
 * sums and activations, and scratch for the pattern (x, m doubles), the
 * summation terms (work, m), and the rates and rows of an update (lr, idx). */
struct som_view {
    ptrdiff_t m;
    double eps;
    double *centers, *rel, *dist, *sums, *acts, *x, *work, *lr;
    ptrdiff_t *idx;
};

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

/*
 * Activation of nodes [0, n) for the pattern in v->x, written to v->acts;
 * returns the index of the largest activation, the lowest on ties and the
 * first NaN if any, as np.argmax.
 */
ptrdiff_t som_winner(const struct som_view *v, ptrdiff_t n)
{
    const ptrdiff_t m = v->m;
    const double *x = v->x, *mass = v->sums;
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
    const ptrdiff_t m = v->m;
    const ptrdiff_t *idx = v->idx;
    const double *x = v->x;
    for (ptrdiff_t i = 0; i < k; i++)
        if (idx[i] < 0 || idx[i] >= n)
            return -1;
    for (ptrdiff_t i = 0; i < k; i++) {
        ptrdiff_t j = idx[i];
        double l = v->lr[i * lr_step];
        double rate = l * beta;
        double keep = 1.0 - rate;
        double *c = v->centers + j * m;
        double *d = v->dist + j * m;
        double *r = v->rel + j * m;
        /* distance average, clamped at zero like np.maximum(d, 0.0): NaN
         * stays NaN, -0.0 becomes 0.0 */
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
    return 0;
}
