/*
 * Compiled kernels of semisom's SomMap, of its training loop and of bulk
 * classification.
 *
 * Each function reproduces, bit for bit, the numpy kernels of model.py
 * (the training loop's twin, with the insertions and sweeps training.py
 * makes, included) or the numpy block pass of inference.py that it
 * replaces: the same float operations on the same
 * operands in the same order. min/max propagate NaN and the logistic
 * curve is 1 / (1 + exp(-z)) as in scipy's expit, with the C library's
 * exp, one value at a time. som_classify takes another route to the same
 * outcome: it computes the screen's bounds with the numpy pass's
 * operations, but tests most pairs against them in the squared-distance
 * domain, and every activation that decides is computed as winner() does.
 *
 * Every sum is numpy's pairwise summation, in one leaf (sum0): the eight
 * accumulators numpy keeps for each block of 8 terms are the lanes of two
 * 4-wide vectors, and each term is computed in those lanes straight from
 * the operand rows. A lane operation is the IEEE operation the scalar code
 * would make, so the order and the rounding are numpy's.
 *
 * On x86-64 with glibc, the winner search, the link recomputation and the
 * classification pass are built twice, for AVX2 and for the baseline ISA,
 * and the loader picks one when the library loads (target_clones); defining SOM_DEFAULT_ONLY builds
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
#include <string.h>

#define NO_CLASS (-1)

/* One map's storage, rows for `capacity` nodes: node rows (centers, rel,
 * dist), per-node relevance sums, activations, wins and labels, the
 * adjacency bit rows, and scratch for the pattern (x, m doubles) and the
 * rates and rows of an update (lr, idx). */
struct som_view {
    ptrdiff_t m, words, capacity;
    double eps;
    double *centers, *rel, *dist, *sums, *acts, *x, *lr;
    ptrdiff_t *idx;
    int64_t *wins, *labels;
    uint64_t *adj;
};

/* The HyperParams a presentation and a pruning sweep read, and whether a
 * presentation may insert. */
struct som_params {
    double a_t, e_b, e_n, push_rate, beta, slope, minwd, lp;
    int64_t n_max, age_wins, allow_insert;
};

/* Why som_train returned, and the slots of its counter array. */
enum { SOM_END, SOM_INSERT };
enum { C_POS, C_NWINS, C_T, C_SUPERVISED, C_UNSUPERVISED, C_PUSHES,
       C_INSERTIONS, C_REMOVALS, C_RESETS, C_N };

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

/* Activation of the node with center row c, relevance row w and relevance
 * sum `mass` for x: mass / ((sqrt(sum w (c - x)^2) + mass) + eps). */
INLINE double activation(const double *c, const double *w, double mass,
                         const double *x, ptrdiff_t m, double eps)
{
    double dist = sqrt(sum0(SUM_WEIGHTED, c, x, w, m));
    return mass / ((dist + mass) + eps);
}

/* Activations of nodes [0, n) for x into v->acts; the argmax as np.argmax
 * (lowest index on ties, the first NaN if any). */
CLONES static ptrdiff_t winner(const struct som_view *v, ptrdiff_t n,
                               const double *x)
{
    const ptrdiff_t m = v->m;
    double *acts = v->acts;
    for (ptrdiff_t i = 0; i < n; i++)
        acts[i] = activation(v->centers + i * m, v->rel + i * m, v->sums[i],
                             x, m, v->eps);
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

/* A fresh node n at x, as SomMap.add_node adds it (relevances one,
 * distance averages zero, no wins, the label), linked as rewire_node links
 * it. The caller checks that row n lies below the capacity. */
static void insert(const struct som_view *v, ptrdiff_t n, const double *x,
                   int64_t label, double minwd)
{
    const ptrdiff_t m = v->m;
    for (ptrdiff_t q = 0; q < m; q++) {
        v->centers[n * m + q] = x[q];
        v->rel[n * m + q] = 1.0;
        v->dist[n * m + q] = 0.0;
    }
    v->sums[n] = (double)m;
    v->wins[n] = 0;
    v->labels[n] = label;
    som_link(v, n + 1, n, 0, minwd);
}

/* Node i's rows, sums, wins and label into row k <= i. */
static void move_node(const struct som_view *v, ptrdiff_t i, ptrdiff_t k)
{
    const ptrdiff_t m = v->m;
    if (i == k)
        return;
    memcpy(v->centers + k * m, v->centers + i * m, m * sizeof(double));
    memcpy(v->rel + k * m, v->rel + i * m, m * sizeof(double));
    memcpy(v->dist + k * m, v->dist + i * m, m * sizeof(double));
    v->sums[k] = v->sums[i];
    v->wins[k] = v->wins[i];
    v->labels[k] = v->labels[i];
}

/* The pruning sweep of training.handle_reset on nodes [0, n): the nodes
 * that won at least lp * age_wins times, or else the first node of most
 * wins, move to the front in ascending order and are linked anew, and
 * every win count returns to zero. Returns the number of nodes kept. */
static ptrdiff_t sweep(const struct som_view *v, ptrdiff_t n,
                       const struct som_params *p)
{
    const double threshold = p->lp * (double)p->age_wins;
    ptrdiff_t k = 0, best = 0;
    int64_t most = v->wins[0];
    for (ptrdiff_t i = 0; i < n; i++) {
        const int64_t wins = v->wins[i];
        if (wins > most) {
            most = wins;
            best = i;
        }
        if ((double)wins >= threshold)
            move_node(v, i, k++);
    }
    if (k == 0)
        move_node(v, best, k++);
    memset(v->adj, 0, (size_t)(n * v->words) * sizeof(uint64_t));
    for (ptrdiff_t j = 0; j + 1 < k; j++)
        som_link(v, k, j, j + 1, p->minwd);
    memset(v->wins, 0, (size_t)k * sizeof(int64_t));
    return k;
}

/*
 * Presentations draws[count[C_POS]..k) of the rows of `patterns` (m
 * columns) and `labels` on a map of n nodes, as model._train_numpy and
 * training.py run them: winner search, the supervised or unsupervised step
 * with its insertion, the pruning sweep that ends a cycle of age_wins + 1
 * presentations, the cycle counter count[C_NWINS] and the presentation
 * counter count[C_T]. count[C_SUPERVISED], [C_UNSUPERVISED], [C_PUSHES],
 * [C_INSERTIONS], [C_REMOVALS] and [C_RESETS] add up the steps, the nodes
 * inserted and removed, and the sweeps; count[C_N] receives the number of
 * nodes when it returns.
 *
 * Returns SOM_END with count[C_POS] = k when every presentation ran. It
 * stops early with SOM_INSERT on a step that inserts a node into a map
 * already holding v->capacity nodes: count[C_POS] is then at that
 * presentation, of which only the step counter has been counted. The
 * caller then grows the storage, inserts, sweeps if count[C_NWINS] ==
 * age_wins, counts the presentation and resumes at the next position.
 */
int som_train(const struct som_view *v, ptrdiff_t n,
              const struct som_params *p, const double *patterns,
              const int64_t *labels, const int64_t *draws, ptrdiff_t k,
              int64_t *count)
{
    const int64_t room = p->allow_insert ? p->n_max : 0;
    for (ptrdiff_t pos = count[C_POS]; pos < k; pos++) {
        const double *x = patterns + draws[pos] * v->m;
        const int64_t label = labels[draws[pos]];
        const ptrdiff_t w = winner(v, n, x);
        const double act = v->acts[w];
        /* whether the step inserts a node: the pattern lies outside every
         * receptive field that could take it, and there is room */
        int add = 0;
        if (label == NO_CLASS) {
            count[C_UNSUPERVISED]++;
            /* below a_t: insert if allowed and there is room, attract if
             * only the room is missing, skip if inserting is not allowed */
            if (act < p->a_t && n < room)
                add = 1;
            else if (!(act < p->a_t) || p->allow_insert)
                attract(v, w, x, p);
        } else {
            count[C_SUPERVISED]++;
            const int64_t wl = v->labels[w];
            if (wl == label || wl == NO_CLASS) {
                if (!(act < p->a_t)) {
                    attract(v, w, x, p);
                    v->labels[w] = label;
                    som_link(v, n, w, 0, p->minwd);
                } else {
                    add = n < room;
                }
            } else {
                const ptrdiff_t s = second_winner(v, n, label, p->a_t);
                if (s >= 0) {
                    attract(v, s, x, p);
                    update_row(v, w, x, -p->push_rate, p->beta, p->slope);
                    count[C_PUSHES]++;
                } else {
                    add = n < room;
                }
            }
        }
        if (add) {
            if (n == v->capacity) {
                count[C_POS] = pos;
                count[C_N] = n;
                return SOM_INSERT;
            }
            insert(v, n++, x, label, p->minwd);
            count[C_INSERTIONS]++;
        }
        if (count[C_NWINS] == p->age_wins) {
            const ptrdiff_t kept = sweep(v, n, p);
            count[C_REMOVALS] += n - kept;
            count[C_RESETS]++;
            count[C_NWINS] = 0;
            n = kept;
        }
        count[C_NWINS]++;
        count[C_T]++;
    }
    count[C_POS] = k;
    count[C_N] = n;
    return SOM_END;
}

/*
 * Bulk classification: the block pass of inference._classify_arrays.
 *
 * The caller multiplies a block of patterns by the node rows in BLAS,
 * q = (x*x) rel^T and d = x (-2 rel*c)^T, and passes the node operands of
 * inference._NodeArrays. For each row, som_classify then makes, in C, the
 * steps of the numpy twin inference._classify_block: the screen's upper
 * bound on every pair's activation, a pivot whose exact activation bounds
 * the winner's from below, the candidate test, the exact activation of
 * each candidate (activation(), as winner() computes it) and the labeled
 * fallback. Any pivot is correct; the twin takes the node of highest
 * bound, this pass the node of least d2 / mass^2, which needs no square
 * root. Both give the outcome of the classification rule on the exact
 * activations, bit for bit.
 *
 * The passes over the nodes run in 2-lane vectors, each lane making the
 * IEEE operations of the scalar code, and leave the rare pairs that
 * survive the squared-distance test below to scalar code, in index order.
 * Two lanes, not four: the baseline x86-64 ISA compares 2-lane vectors
 * natively but scalarizes 4-lane comparisons (the pass ran 3.6 times
 * slower there with 4 lanes), while with AVX2 4 lanes gained at most a
 * tenth of the pass, within the machine's run-to-run spread.
 */

/* A batch's node operands: n nodes of m dimensions, their center and
 * relevance rows, relevance sums (mass), labels, the screen's |c|_r^2
 * (sq), its floored form (sq_floor) and factor (slack), and 1 / mass^2,
 * the pivot proxy's weights. */
struct som_nodes {
    ptrdiff_t n, m;
    double eps, slack;
    const double *centers, *rel, *mass, *sq, *sq_floor, *weight;
    const int64_t *labels;
};

/* The label of a rejected pattern (inference.REJECTED). */
#define REJECTED (-2)

/* Two lanes of doubles and of int64: a comparison of two v2d gives 0 or
 * -1 per lane. */
typedef double v2d __attribute__((vector_size(16)));
typedef int64_t v2di __attribute__((vector_size(16)));

INLINE v2d load2(const double *p)
{
    v2d v;
    __builtin_memcpy(&v, p, sizeof v);
    return v;
}

#define STORE2(p, v) __builtin_memcpy((p), &(v), sizeof(v2d))

/* Lane by lane: a where mask is set, else b. */
#define PICK(mask, a, b) ((v2d)(((v2di)(a) & (mask)) | ((v2di)(b) & ~(mask))))

/* Exact activation of node j for x. */
INLINE double exact(const struct som_nodes *s, ptrdiff_t j, const double *x)
{
    return activation(s->centers + j * s->m, s->rel + j * s->m, s->mass[j],
                      x, s->m, s->eps);
}

/* The screen's bound on the activation from the lower bound d2 on the
 * squared distance, clamped like np.maximum(d2, 0.0) (NaN and -0.0 pass)
 * and rounded as inference._act_of_sq rounds it. */
INLINE double bound(double d2, double mass, double eps)
{
    d2 = (d2 >= 0.0 || isnan(d2)) ? d2 : 0.0;
    return mass / ((sqrt(d2) + mass) + eps);
}

/*
 * Ruling a pair out without a square root or a division.
 *
 * For mass >= 0, bound(d2) does not increase with d2, and each of its four
 * roundings (unit roundoff u) is relative, so
 *     bound(d2) <= mass (1 + u) / ((1 - u)^3 (sqrt(d2) + mass + eps))
 * and bound(d2) < L once sqrt(d2) > R = mass (K / L - 1) - eps, with
 * K = (1 + u) / (1 - u)^3. (For L >= 2^-1000 the quotient lies far enough
 * above the subnormal range that its rounding is relative as well.)
 *
 * cutoff(L) = fl(fl(fl(fl(1 / L) G) - 1) G), with G = 1 + 2^-40, is at
 * least K / L - 1: the first G covers the roundings of 1 / L, of the
 * product and of the subtraction (exact by Sterbenz near L = 1), each of
 * at most u against 2^-40 > 8u. Per node, t = fl(fl(mass g) - e), with
 * e = fl(eps (1 - 2^-40)), is then at least R whenever t > 0: the second
 * G and the 1 - 2^-40 cover the two roundings of mass g - e. A float d2
 * above fl(t t) lies above t^2 itself, since round-to-nearest leaves no
 * float between them, so d2 > fl(t t) with t > 0 gives sqrt(d2) > t >= R
 * and bound(d2) < L: the pair is ruled out.
 *
 * A negative or NaN relevance makes sq, hence d2, NaN. NaN compares false
 * and an overflowed t t is inf, so such pairs are never ruled out here;
 * cutoff is NaN, ruling out nothing, for an L that is NaN, infinite or
 * below 2^-1000. A pair that is not ruled out gets its exact bound.
 */
static double cutoff(double L)
{
    const double grow = 1.0 + 0x1p-40;
    if (!(L >= 0x1p-1000 && L < INFINITY))
        return NAN;
    return ((1.0 / L) * grow - 1.0) * grow;
}

/* e of the test above, from eps. */
INLINE double shrunk(double eps)
{
    return eps * (1.0 - 0x1p-40);
}

/* The test above for nodes j and j + 1: set where the pair is ruled out. */
INLINE v2di ruled2(const double *mass, const double *d, ptrdiff_t j,
                   double g, double e)
{
    const v2d g2 = {g, g}, e2 = {e, e}, zero = {0.0, 0.0};
    v2d t = load2(mass + j) * g2 - e2;
    return (t > zero) & (load2(d + j) > t * t);
}

/* Whether node j's bound reaches L, i.e. !(bound < L) as the numpy twin
 * tests it: NaN bounds reach every L. g = cutoff(L), e = shrunk(eps). */
INLINE int reaches(const struct som_nodes *s, ptrdiff_t j, double d2,
                   double L, double g, double e)
{
    double t = s->mass[j] * g - e;
    if (t > 0.0 && d2 > t * t)
        return 0;
    return !(bound(d2, s->mass[j], s->eps) < L);
}

/* reaches() for callers outside the library: the tests check its margin. */
int som_reaches(double mass, double eps, double d2, double L)
{
    struct som_nodes s = {.n = 1, .eps = eps, .mass = &mass};
    return reaches(&s, 0, d2, L, cutoff(L), shrunk(eps));
}

/* One row's outcome so far: the winner w, its activation top, and the
 * best labeled candidate activation at or above a_t (sure). */
struct row {
    ptrdiff_t w;
    double top, sure;
};

/* Candidate j: its exact activation into the row's winner (np.argmax:
 * the first NaN, else the first maximum; the other nodes count as -inf,
 * which never wins after the initial w = 0, top = -inf) and into `sure`.
 * The pivot's is L. */
INLINE void candidate(const struct som_nodes *s, ptrdiff_t j,
                      const double *x, double L, ptrdiff_t piv, double a_t,
                      struct row *o)
{
    double v = j == piv ? L : exact(s, j, x);
    if (!isnan(o->top) && !(v <= o->top)) {
        o->w = j;
        o->top = v;
    }
    if (s->labels[j] != NO_CLASS && v >= a_t && v > o->sure)
        o->sure = v;
}

/* Labeled candidate j of the fallback: the most activated one at or above
 * a_t is kept in f and *best, the first on ties. */
INLINE void fallback(const struct som_nodes *s, ptrdiff_t j, const double *x,
                     double a_t, ptrdiff_t *f, double *best)
{
    double v = exact(s, j, x);
    if (v >= a_t && (*f < 0 || v > *best)) {
        *f = j;
        *best = v;
    }
}

/* The screen for nodes j and j + 1 (sq, sq_floor, weight and slack of
 * struct som_nodes): d becomes a lower bound on the squared distance,
 * which bound() clamps at zero. The least d / mass^2 seen per lane goes
 * to *low, its node to *at. */
INLINE void screen2(const double *q, double *d, const double *sq,
                    const double *sq_floor, const double *weight,
                    double slack, ptrdiff_t j, v2d *low, v2di *at)
{
    const v2d slack2 = {slack, slack};
    v2d qj = load2(q + j);
    v2d t = ((load2(d + j) + qj) + load2(sq + j)) -
            (qj + load2(sq_floor + j)) * slack2;
    STORE2(d + j, t);
    v2d p = t * load2(weight + j);
    v2di lt = p < *low;
    *low = PICK(lt, p, *low);
    *at = (lt & (v2di){j, j + 1}) | (~lt & *at);
}

/* The labeled node of least d[j] * weight[j], -1 when no product is below
 * inf. */
static ptrdiff_t least_labeled(const struct som_nodes *s, const double *d)
{
    ptrdiff_t best = -1;
    double low = INFINITY;
    for (ptrdiff_t j = 0; j < s->n; j++)
        if (s->labels[j] != NO_CLASS && d[j] * s->weight[j] < low) {
            low = d[j] * s->weight[j];
            best = j;
        }
    return best;
}

/*
 * Classify the `rows` patterns of x (rows x m): q and d are their BLAS
 * products with the node rows (rows x n each); d is overwritten as
 * scratch. Writes, per row, the deciding node (-1 for a rejection), its
 * label (REJECTED for a rejection) and its activation (for a rejection,
 * the winner's), as inference._classify_block does.
 */
CLONES void som_classify(const struct som_nodes *s, ptrdiff_t rows,
                         double a_t, const double *x, const double *q,
                         double *d, ptrdiff_t *node, int64_t *label,
                         double *act)
{
    const ptrdiff_t n = s->n, m = s->m;
    const double *const mass = s->mass, *const sq = s->sq,
                 *const sq_floor = s->sq_floor, *const weight = s->weight;
    const int64_t *const labels = s->labels;
    const double e = shrunk(s->eps), slack = s->slack;
    for (ptrdiff_t r = 0; r < rows; r++, x += m, q += n, d += n) {
        /* The screen, with the pivot: the node of least d / mass^2, kept
         * in two pairs of lanes, then across. */
        const v2d inf2 = {INFINITY, INFINITY};
        v2d low2[2] = {inf2, inf2};
        v2di at2[2] = {{0, 0}, {0, 0}};
        ptrdiff_t j;
        for (j = 0; j + 4 <= n; j += 4) {
            screen2(q, d, sq, sq_floor, weight, slack, j, &low2[0], &at2[0]);
            screen2(q, d, sq, sq_floor, weight, slack, j + 2, &low2[1],
                    &at2[1]);
        }
        if (j + 2 <= n) {
            screen2(q, d, sq, sq_floor, weight, slack, j, &low2[0], &at2[0]);
            j += 2;
        }
        ptrdiff_t piv = 0;
        double low = INFINITY;
        for (int l = 0; l < 4; l++)
            if (low2[l / 2][l % 2] < low) {
                low = low2[l / 2][l % 2];
                piv = at2[l / 2][l % 2];
            }
        for (; j < n; j++) {
            double t = ((d[j] + q[j]) + sq[j]) - (q[j] + sq_floor[j]) * slack;
            d[j] = t;
            if (d[j] * weight[j] < low) {
                low = d[j] * weight[j];
                piv = j;
            }
        }
        /* Candidates: the nodes whose bound reaches the pivot's exact
         * activation L. Sixteen nodes are tested at a time; the rare
         * groups with a pair the squared test keeps go through the
         * scalar test, in index order. */
        const double L = exact(s, piv, x);
        const double g = cutoff(L);
        struct row o = {0, -INFINITY, -INFINITY};
        for (j = 0; j + 16 <= n; j += 16) {
            v2di all = ruled2(mass, d, j, g, e);
            for (ptrdiff_t i = j + 2; i < j + 16; i += 2)
                all &= ruled2(mass, d, i, g, e);
            if (!(all[0] & all[1]))
                for (ptrdiff_t i = j; i < j + 16; i++)
                    if (reaches(s, i, d[i], L, g, e))
                        candidate(s, i, x, L, piv, a_t, &o);
        }
        for (; j < n; j++)
            if (reaches(s, j, d[j], L, g, e))
                candidate(s, j, x, L, piv, a_t, &o);
        int64_t lab = labels[o.w];
        if (lab == NO_CLASS) {
            /* An unlabeled winner: the most activated labeled node at or
             * above a_t decides. Its activation is at least `sure`; with
             * no labeled candidate there, the labeled node of least
             * d / mass^2 may give one. Every labeled node whose bound
             * reaches L2 = max(a_t, sure) is then a candidate, and no
             * other labeled node can decide. */
            if (o.sure == -INFINITY) {
                ptrdiff_t k = least_labeled(s, d);
                if (k >= 0) {
                    double v = exact(s, k, x);
                    if (v >= a_t)
                        o.sure = v;
                }
            }
            const double L2 = o.sure >= a_t ? o.sure : a_t;
            const double g2 = cutoff(L2);
            ptrdiff_t f = -1;
            double best = -INFINITY;
            for (j = 0; j < n; j++)
                if (labels[j] != NO_CLASS && reaches(s, j, d[j], L2, g2, e))
                    fallback(s, j, x, a_t, &f, &best);
            if (f >= 0) {
                o.w = f;
                o.top = best;
                lab = labels[f];
            } else {
                o.w = -1;
                lab = REJECTED;
            }
        }
        node[r] = o.w;
        label[r] = lab;
        act[r] = o.top;
    }
}
