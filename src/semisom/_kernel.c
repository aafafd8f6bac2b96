/*
 * Compiled kernels of semisom: its training loop (som_train, with the
 * winner search, the node update and the link recomputation that exist
 * only inside the loop), bulk classification (som_classify) and the
 * scanner of CSV and ARFF bodies (som_scan, at the end of the file). The
 * library keeps only these long calls, and som_sum and som_reaches for
 * the tests; it is loaded through one ctypes.CDLL handle, so every call
 * releases the interpreter lock. No function touches a Python object, and
 * each reads and writes only the arrays it is passed. The scanner computes
 * most numbers itself, exactly; only the rest go to strtod, the one place
 * the LC_NUMERIC locale reaches (see the scanner's comment).
 *
 * Each function reproduces, bit for bit, its one numpy mirror in model.py
 * (winner: _winner, second_winner: _second_winner, update_row:
 * _update_numpy, relink: _link_numpy, attract: _attract_numpy, insert:
 * _insert_numpy, sweep: _sweep_numpy, som_train: _train_numpy, line for
 * line), which the per-call SomMap methods run under the map's lock, or
 * the numpy block pass of inference.py that it replaces: the same float
 * operations on the same operands in the same order. min/max propagate
 * NaN and the logistic curve is 1 / (1 + exp(-z)) as in scipy's expit,
 * with the C library's exp, one value at a time.
 * som_classify takes another route to the same outcome: it computes the
 * screen's bounds with the numpy pass's operations, but tests most pairs
 * against them in the squared-distance domain, and every activation that
 * decides is computed as winner() does.
 *
 * Every sum is numpy's pairwise summation, in one leaf (sum0): the eight
 * accumulators numpy keeps for each block of 8 terms are the lanes of two
 * 4-wide vectors, and each term is computed in those lanes straight from
 * the operand rows. A lane operation is the IEEE operation the scalar code
 * would make, so the order and the rounding are numpy's.
 *
 * On x86-64 with glibc, the winner search, the link recomputation and the
 * classification pass are built twice, for AVX2 and for the baseline ISA,
 * and the loader picks one when the library loads (target_clones);
 * defining SOM_DEFAULT_ONLY builds the baseline alone, which the tests
 * compare with the clones. Built with -ffp-contract=off so no multiply-add
 * is fused; never build it with -ffast-math or -march=native.
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
 * dist), per-node relevance sums, activations, wins and labels, and the
 * adjacency bit rows. */
struct som_view {
    ptrdiff_t m, words, capacity;
    double eps;
    double *centers, *rel, *dist, *sums, *acts;
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
 * and sums: one row of model._update_numpy. */
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
 * [lo, n), in both bit rows, as model._link_numpy does. Two nodes link
 * when their labels are compatible and the Euclidean gap of their
 * relevance rows lies below minwd * sqrt(m). */
CLONES static void relink(const struct som_view *v, ptrdiff_t n, ptrdiff_t j,
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

/* A fresh node n at x (relevances one, distance averages zero, no wins,
 * the label), linked as rewire_node links it. The caller checks that row n
 * lies below the capacity. */
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
    relink(v, n + 1, n, 0, minwd);
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

/* The pruning sweep that ends a cycle, on nodes [0, n): the nodes
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
        relink(v, k, j, j + 1, p->minwd);
    memset(v->wins, 0, (size_t)k * sizeof(int64_t));
    return k;
}

/*
 * Presentations draws[count[C_POS]..k) of the rows of `patterns` (m
 * columns) and `labels` on a map of n nodes, as model._train_numpy runs
 * them: winner search, the supervised or unsupervised step with its
 * insertion, the pruning sweep that ends a cycle of age_wins + 1
 * presentations, the cycle counter count[C_NWINS] and the presentation
 * counter count[C_T]. count[C_SUPERVISED], [C_UNSUPERVISED], [C_PUSHES],
 * [C_INSERTIONS], [C_REMOVALS] and [C_RESETS] add up the steps, the nodes
 * inserted and removed, and the sweeps; count[C_N] receives the number of
 * nodes when it returns.
 *
 * Returns SOM_END with count[C_POS] = k when every presentation ran. It
 * stops early with SOM_INSERT at a presentation whose step inserts a node
 * into a map holding v->capacity nodes, before it changes a row or counts
 * anything of it: count[C_POS] is at it. The caller grows the storage and
 * calls again with the same counters, and the presentation replays.
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
                    relink(v, n, w, 0, p->minwd);
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
                count[label == NO_CLASS ? C_UNSUPERVISED : C_SUPERVISED]--;
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

/*
 * The scanner of data.py's table reader: the body of a CSV or ARFF file
 * in one pass, numbers into a float matrix and each record's label field
 * as a byte span.
 *
 * It reads a strict subset of what the row reader (the csv module and
 * float()) accepts, and refuses the rest, so every value it keeps is the
 * one float() gives, bit for bit:
 *  - fields are separated by ',' and a record ends in "\n" or "\r\n"; an
 *    empty record is skipped, and any other '\r' is refused;
 *  - a field holds no '"', or is quoted from its first byte to its last,
 *    with "" for a quote and no line break inside;
 *  - a number is [+-]?(digits[.[digits]]|.digits)([eE][+-]?digits)?,
 *    padded only by ASCII spaces and tabs, and its value is finite.
 *
 * A number of at most 19 significant digits whose mantissa w is at most
 * 2^53, with a decimal exponent e of at most 22 in size, is w * 10^e or
 * w / 10^-e: both operands are exact, so the one IEEE operation rounds
 * correctly (Clinger, "How to Read Floating Point Numbers Accurately",
 * 1990). Multiplying by 10^-e instead would not do: that power is not
 * exact. One of at most 19 significant digits with w above 2^53, as in
 * most 17-digit repr()s, and -21 <= e <= 19 is computed exactly in 128-bit
 * integers and rounded once (wide(), where compilers have a 128-bit
 * integer type). Any other token of the number's characters goes to
 * strtod, which rounds correctly too, in a NUL-terminated copy, and counts
 * only if strtod reads the whole of it: more than 19 significant digits,
 * or an exponent outside -22..22 (outside -21..19 for w above 2^53).
 * strtod reads the decimal point of the C library's LC_NUMERIC locale:
 * under a locale whose point is ',' it stops at the '.', and only those
 * tokens are refused. The scanner touches no Python object.
 */

#include <stdlib.h>

/* The longest number the scanner copies for strtod, NUL included. */
#define TOKEN_MAX 128

/* The powers of ten a double holds exactly. */
static const double POW10[] = {
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12,
    1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

INLINE int is_digit(char c)
{
    return (unsigned char)(c - '0') < 10;
}

/* The number [s, e), shorter than TOKEN_MAX, by strtod into *v: 1 if
 * strtod reads all of it, it holds only the characters of a number and the
 * value is finite, else 0. */
static int strtod_number(const char *s, const char *e, double *v)
{
    char buf[TOKEN_MAX], *end;
    const ptrdiff_t len = e - s;
    for (ptrdiff_t i = 0; i < len; i++)
        if (!is_digit(s[i]) && s[i] != '.' && s[i] != 'e' && s[i] != 'E' &&
            s[i] != '+' && s[i] != '-')
            return 0;
    memcpy(buf, s, len);
    buf[len] = '\0';
    *v = strtod(buf, &end);
    return end == buf + len && isfinite(*v);
}

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

/* The number of bits of x, which is not 0. */
INLINE int bit_length(u128 x)
{
    const uint64_t hi = (uint64_t)(x >> 64);
    return hi ? 128 - __builtin_clzll(hi)
              : 64 - __builtin_clzll((uint64_t)x);
}

/*
 * w * 10^e rounded to the nearest double, ties to even, for
 * 2^53 < w < 10^19 and -21 <= e <= 19, in integers alone; exact by
 * construction, so it needs no table of wide powers and no fallback.
 *
 * The value is (q + f) * 2^-shift with an integer q and 0 <= f < 1:
 *  - e >= 0: q = w * 10^e, shift = 0, f = 0. q < 10^19 * 10^19 < 2^127.
 *  - e < 0: w shifted left until its top bit is bit 127 (a shift of 64
 *    to 74), divided by 10^-e <= 10^21 < 2^70: q is the quotient, f the
 *    remainder over 10^-e, nonzero exactly when the remainder is.
 * Either way q holds at least 54 bits: q >= w > 2^53 for e >= 0, and
 * q >= 2^127 / 10^21 > 2^57 for e < 0. Rounding q + f to its top 53 bits
 * drops d >= 1 bits of q: the first of them is the round bit, and the
 * others with f (the sticky bit) decide whether the rest lies above the
 * half. That is round to nearest, ties to even, of the exact value. The
 * rounded mantissa, at most 2^53, is an exact double, and the result lies
 * within [2^53 * 10^-21, 10^38], inside the normal range, so the scaling
 * by 2^(d - shift), a double built from its exponent bits (d - shift lies
 * in -69..74), is exact too. 10^k for k <= 19 is below 2^64 and an exact
 * double of POW10.
 */
static double wide(uint64_t w, int e)
{
    const int k = e < 0 ? -e : e;
    u128 ten = (uint64_t)POW10[k < 19 ? k : 19];
    for (int i = k; i > 19; i--)
        ten *= 10;
    u128 q;
    int shift = 0, sticky = 0;
    if (e >= 0) {
        q = (u128)w * ten;
    } else {
        shift = __builtin_clzll(w) + 64;
        const u128 n = (u128)w << shift;
        q = n / ten;
        sticky = n - q * ten != 0;
    }
    const int d = bit_length(q) - 53;
    const u128 half = (u128)1 << (d - 1), rest = q & ((half << 1) - 1);
    uint64_t mant = (uint64_t)(q >> d);
    if (rest > half || (rest == half && (sticky || (mant & 1))))
        mant++;
    const uint64_t scale_bits = (uint64_t)(1023 + d - shift) << 52;
    double scale;
    memcpy(&scale, &scale_bits, sizeof scale);
    return (double)mant * scale;
}
#endif

/* Read the number field at s into *v. The field ends at e or before the
 * first ',', '"' or line break. Returns its end, or NULL when it holds no
 * number. */
static const char *number(const char *s, const char *e, double *v)
{
    while (s < e && (*s == ' ' || *s == '\t'))
        s++;
    /* The fast path's grammar, read where the number stands: the mantissa
     * w of its significant digits, their count, the count of all its
     * digits, and its decimal exponent. w wraps past 19 digits, where it
     * is not used. */
    const char *p = s;
    const int neg = p < e && *p == '-';
    if (p < e && (*p == '+' || *p == '-'))
        p++;
    const char *m = p;
    while (p < e && *p == '0')
        p++;
    const char *q = p;
    uint64_t w = 0;
    for (; p < e && is_digit(*p); p++)
        w = w * 10 + (uint64_t)(*p - '0');
    ptrdiff_t sig = p - q, digits = p - m, exp = 0;
    if (p < e && *p == '.') {
        const char *f = ++p;
        if (sig == 0)
            while (p < e && *p == '0')
                p++;
        q = p;
        for (; p < e && is_digit(*p); p++)
            w = w * 10 + (uint64_t)(*p - '0');
        sig += p - q;
        digits += p - f;
        exp = f - p;
    }
    int exact = digits > 0;
    if (exact && p < e && (*p == 'e' || *p == 'E')) {
        p++;
        const int down = p < e && *p == '-';
        if (p < e && (*p == '+' || *p == '-'))
            p++;
        q = p;
        ptrdiff_t x = 0;
        for (; p < e && is_digit(*p); p++)
            if (x < 1000)
                x = x * 10 + (*p - '0');
        exact = p > q;
        exp += down ? -x : x;
    }
    /* The field's end, and the token's without its padding. Short tokens
     * only: the exponent above stops growing at 1000, past the reach of
     * the fewer than TOKEN_MAX digits. */
    const char *end = p;
    while (end < e && *end != ',' && *end != '\n' && *end != '\r' &&
           *end != '"')
        end++;
    const char *t = end;
    while (t > s && (t[-1] == ' ' || t[-1] == '\t'))
        t--;
    if (t == s || t - s >= TOKEN_MAX)
        return NULL;
    const int short_token = exact && p == t && sig <= 19;
    double x;
    if (short_token && w <= (UINT64_C(1) << 53) && exp >= -22 && exp <= 22)
        x = exp < 0 ? (double)w / POW10[-exp] : (double)w * POW10[exp];
#ifdef __SIZEOF_INT128__
    else if (short_token && exp >= -21 && exp <= 19)
        x = wide(w, (int)exp);
#endif
    else
        return strtod_number(s, t, v) ? end : NULL;
    *v = neg ? -x : x;
    return end;
}

/* The end of field p: past its closing quote if it is quoted, else before
 * the first ',', '"' or line break. NULL for a quoted field left open at a
 * line break or the end of the text. */
static const char *field_end(const char *p, const char *end)
{
    if (p < end && *p == '"') {
        for (p++;; p++) {
            if (p == end || *p == '\n' || *p == '\r')
                return NULL;
            if (*p == '"' && (++p == end || *p != '"'))
                return p;
        }
    }
    while (p < end && *p != ',' && *p != '\n' && *p != '\r' && *p != '"')
        p++;
    return p;
}

/* The end of the record that p starts, or NULL when p starts neither
 * "\n" nor "\r\n" and is not the end of the text. */
INLINE const char *record_end(const char *p, const char *end)
{
    if (p == end)
        return p;
    if (*p == '\n')
        return p + 1;
    if (*p == '\r' && p + 1 < end && p[1] == '\n')
        return p + 2;
    return NULL;
}

/*
 * Scan the records of the CSV text s[0, len). Each must hold `width`
 * fields. Field `label` (-1 for none) is kept as the offsets of its bytes,
 * quotes included, in spans[2r] and spans[2r + 1]; the others are read as
 * numbers, in order, into the next width - (label >= 0) values of out.
 * Returns the number of records, or -1 when the text leaves the grammar
 * above or holds more than `rows` records. With out NULL it reads nothing
 * and returns the number of '\n' in the text plus one, the most records
 * it can hold, to size out.
 */
ptrdiff_t som_scan(const char *s, ptrdiff_t len, ptrdiff_t width,
                   ptrdiff_t label, ptrdiff_t rows, double *out,
                   int64_t *spans)
{
    const char *p = s, *const end = s + len;
    ptrdiff_t r = 0;
    if (out == NULL) {
        for (; (p = memchr(p, '\n', end - p)) != NULL; p++)
            r++;
        return r + 1;
    }
    while (p < end) {
        const char *next = record_end(p, end);
        if (next) {
            p = next;
            continue;
        }
        if (r == rows)
            return -1;
        for (ptrdiff_t f = 0; f < width; f++) {
            const char *a = p;
            if (f != label && (p == end || *p != '"')) {
                p = number(p, end, out++);
            } else if ((p = field_end(p, end)) != NULL) {
                if (f == label) {
                    spans[2 * r] = a - s;
                    spans[2 * r + 1] = p - s;
                } else if (number(a + 1, p - 1, out++) != p - 1) {
                    return -1;
                }
            }
            if (p == NULL)
                return -1;
            if (f < width - 1) {
                if (p == end || *p != ',')
                    return -1;
                p++;
            } else if ((p = record_end(p, end)) == NULL) {
                return -1;
            }
        }
        r++;
    }
    return r;
}
