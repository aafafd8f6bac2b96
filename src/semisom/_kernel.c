/*
 * Compiled kernels of semisom: its training loop (som_train, with the
 * winner search, the node update and the link recomputation that exist
 * only inside the loop), bulk classification (som_classify), the scanner
 * of CSV and ARFF bodies (som_scan), the reader and the writer of a model
 * file's node list (som_read_nodes, som_write_nodes), from one layout,
 * and the writer of predictions files (som_write_predictions, at the end
 * of the file). The library keeps only these long calls, and som_sum and
 * som_reaches for the tests; it is loaded through one ctypes.CDLL handle,
 * so every call releases the interpreter lock. No function touches a
 * Python object, and each reads and writes only the arrays it is passed
 * and the scratch block som_train allocates for its screened winner
 * search (see search). The scanner and the node reader compute most
 * numbers themselves, exactly; only the rest go to strtod, the one place
 * the LC_NUMERIC locale reaches (see the scanner's comment). The node
 * writer writes each double as Python's repr() does, as json does (see the
 * float formatter's comment), and the predictions writer each activation as
 * Python's "%.6g" does, with digits of its own (see its comment).
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
 * Two functions take another route to the same outcome, through one
 * float32 screen: search, the winner search of som_train from 16
 * dimensions and 32 nodes on, and som_classify (decide). Each bounds every
 * node's activation from two float32 products with the pattern (search
 * from partial products first, chunk by chunk), rules most nodes out with
 * a float32 test and the rest of them with the numpy pass's double bound,
 * and computes only the nodes neither rules out. search
 * returns winner()'s node, so _winner mirrors both, and som_classify the
 * numpy pass's outcome. Every activation that decides is computed as
 * winner() does.
 *
 * Every sum is numpy's pairwise summation, in one leaf (sum0): the eight
 * accumulators numpy keeps for each block of 8 terms are the lanes of two
 * 4-wide vectors, and each term is computed in those lanes straight from
 * the operand rows. A lane operation is the IEEE operation the scalar code
 * would make, so the order and the rounding are numpy's.
 *
 * On x86-64 with glibc, the winner searches, the link recomputation and the
 * classification pass are built twice, for AVX2 and for the baseline ISA,
 * and the loader picks one when the library loads (target_clones);
 * defining SOM_DEFAULT_ONLY builds the baseline alone, which the tests
 * compare with the clones. The define changes only the functions marked
 * CLONES: with that attribute removed, the preprocessed source is the same
 * with and without it, and gcc 12.2 on x86-64 compiles som_scan, number,
 * som_read_nodes, som_write_nodes, scale5, som_write_predictions and
 * som_reaches to the same instructions in both builds. Built with
 * -ffp-contract=off so no multiply-add is fused; never build it with
 * -ffast-math or -march=native.
 *
 * Matrices are C-contiguous rows of length m, one row per node. The
 * adjacency holds one bit row of `words` uint64 per node: bit i % 64 of
 * word i / 64 of row j is set when nodes i and j are linked. Bits outside
 * the n x n block of present nodes are always zero. The adjacency is
 * symmetric, bit i of row j equal to bit j of row i, and its diagonal is
 * zero: relink flips a node's column bit, which keeps a link exact only
 * under that invariant (see relink).
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
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

/*
 * The float32 screen of both winner searches, the training loop's (search)
 * and the classification pass's (som_classify): the node winner() finds
 * for a pattern x, from the exact activations of only the nodes that a
 * bound from two float32 products per node cannot rule out.
 *
 * The bound. Write u = 2^-53 and f = 2^-24 for the unit roundoffs of
 * double and float, gamma_k = k f / (1 - k f), r' for the screen's
 * relevances (a node's r where r >= 2^-126, else 0: a float holds such an
 * r within f of it, relative), and, over them, Q = |x|_r'^2,
 * A = |c|_r'^2 and D' = |c - x|_r'^2 = Q - 2 <x, r'c> + A. The node
 * operands are r32 = fl32(r'), w32 = fl32(fl(-2 r' c)) and sq = fl(A) in
 * double, summed in any order; the products q = (x32 x32) r32 and
 * d = x32 w32, x32 = fl32(x), are summed in float32 in any order, with or
 * without fused multiply-adds (som_classify's caller computes them by
 * sgemm, search on float lanes). In double,
 *     t = fl(fl(fl(d + q) + sq) - fl(fl(q + sq_floor) slack)),
 * with slack = 4 (m + 4) f and sq_floor = fl(sq + fl(F / slack)),
 * F = m 2^-100. Let S be the double sum activation() computes with the
 * node's own relevances and D its exact value; D >= D', since r' <= r.
 * The operands are safe (inference._NodeArrays and _guard, shade()):
 * every |x_q|, |c_q| <= B with 16 m B^2 <= 2^124, every r in [0, 16], and
 * k = (m + 4) f <= 1/8, so gamma_{m+4} <= 8k/7.
 *  - Each float rounding is relative, within f, or, for a result below
 *    2^-126 in magnitude, off by at most h = 2^-126 in absolute terms
 *    (this covers a BLAS that flushes subnormals to zero). A float below
 *    2^-126 squares below 2^-252, to 0.
 *  - q: a term is r' x^2 (1 + theta_4), theta_4 within gamma_4, plus at
 *    most 17.1 h (the square's h times r32 <= 16 (1 + f), the product's
 *    h); the m - 1 additions are relative on nonnegative terms, each
 *    with at most h more. So |q - Q| <= gamma_{m+4} Q + m 2^-121.
 *  - d: a term is x w (1 + theta_3), w = -2 r' c, plus x times the
 *    absolute error of w32 and w times that of x32. w32 is exact (0)
 *    where r' = 0; else r' >= 2^-126, and |x| h <= f r' x^2 + h^2 /
 *    (4 f r') <= f r' x^2 + 2^-104, and likewise h |w| <= f r' c^2 +
 *    2^-223. By Cauchy-Schwarz sum |x w| <= 2 |x|_r' |c|_r' <= Q + A, so
 *    |d + 2 <x, r'c>| <= (gamma_{m+3} + 1.15 f)(Q + A) + m 2^-103.6.
 *  - In double, sq lies within 1.01 (m + 2) u A of A, the two additions
 *    round by at most 7u (Q + A), and S >= (1 - u)^(m+3) D - m 2^-1073
 *    (the m + 3 roundings of a term and its additions are relative on
 *    nonnegative terms, and only a term's two products may underflow),
 *    where D >= D' and D' <= 2 (Q + A).
 * Hence fl(fl(d + q) + sq) <= S + E (Q + A) + m 2^-103.5, with
 * E = 2 gamma_{m+4} + 1.15 f + (3m + 15) u <= 2.52 k, since f <= k / 5.
 * The subtracted term is at least (1 - 4u)(slack (q + sq) + F) >=
 * (1 - 4u)(slack (1 - gamma_{m+4})(Q + A) + F - slack m 2^-121), and
 * slack (1 - gamma_{m+4})(1 - 4u) >= 4k (6/7)(1 - 4u) > 3.42 k > E and
 * F (1 - 4u) - slack m 2^-121 > m 2^-103.5, so the exact difference is
 * at most S, and t, its rounding, is too: S is a double and rounding is
 * monotone. bound(t) rounds as activation() does and each of its steps
 * is monotone, so bound(t) is at least the pair's exact activation.
 * Every float value stays finite: a float square is at most
 * B^2 (1 + f)^3, and the terms of q and d at most 2^124 / m and
 * 2^125 / m (|w| <= 32 B), so no partial sum reaches 2^127. And with
 * |c - x| <= 2B no term of S is 0 * inf = NaN. A pattern or a node
 * outside these bounds has a NaN q (som_classify's caller sets it; search
 * leaves such a pattern to winner()) or a NaN sq, so its t is NaN: every
 * comparison with it is false, and every pair stays a candidate.
 *
 * The float test. t is not computed for every node. Each node is first
 * bounded in float32, from its float operands sq32 = fl32(sq),
 * sqf32 = fl32(fl(sq + fl(F / slack32))) and w32 = fl32(weight),
 * weight = fl(1 / fl(mass mass)), and the float slack32 = 4 (m + 8) f,
 * which a float holds exactly:
 *     t32 = fl32(fl32(fl32(d + q) + sq32) - fl32(fl32(q + sqf32) slack32)),
 *     p = fl32(t32 w32).
 *  - t32 <= S. From the bounds above (k <= 1/8), |d + q| <= 2.3 (Q + A),
 *    sq <= 1.01 A and the subtracted term is at most 0.58 (Q + A) + 1.01 F,
 *    so the five float roundings of t32 (relative, within f, or off by at
 *    most h where a result is below 2^-126) add at most 10.6 f (Q + A) +
 *    2^-123 to the exact d + q + sq less the subtracted term. That term is
 *    at least (1 - 3.01 f)(slack32 (q + sq) + F (1 - u)), and
 *    slack32 (1 - gamma_{m+4})(1 - 3.01 f) >= 3.42 k + 13.7 f exceeds
 *    E + 10.6 f, so the argument for t carries over.
 *  - The float test: p > th, th = fl32(fl(fl(g g)(1 + 2^-18))) for
 *    g = cutoff(L) in [2^-60, 2^60] (th is NaN otherwise, and rules out
 *    nothing), proves act < L. A node's w32 is NaN, so that its p > th is
 *    false, unless its mass lies in [2^-60, 2^60]; then w32 lies within
 *    (1 + u)^2 (1 + f) of 1 / mass^2 and is a normal float, and so is
 *    p > th >= 2^-120. Hence t32 > th mass^2 / ((1 + u)^2 (1 + f)^2) >=
 *    (mass g)^2 (1 + 2^-18)(1 - 3 f - 4u) > (mass g)^2, and
 *    sqrt(S) >= sqrt(t32) > mass g > R = mass (K / L - 1) - eps, since
 *    g >= K / L - 1 and eps >= 0; by the derivation at cutoff(),
 *    bound(S), the exact activation, lies below L. (For R <= 0, any
 *    sqrt(S) > 0 is above R.)
 *
 * Partial sums (search alone). Over the first l <= m dimensions, K, write
 * Q_K, A_K and D'_K = Q_K - 2 <x, r'c>_K + A_K = sum_K r' (x - c)^2; the
 * terms D'_K leaves out are >= 0, so D'_K <= D' <= D. From the l terms of
 * K alone take q_K and d_K (float sums in any order), sq_K (the double
 * sum of A's first l terms, in order, which the whole sq continues),
 * sq32_K = fl32(sq_K), sqf32_K = fl32(fl(sq_K + fl(F / slack32))) and,
 * from them as t32 and p from q, d, sq32 and sqf32, t32_K and p_K: each
 * partial sum has its own subtracted term
 * fl32(fl32(q_K + sqf32_K) slack32), with the slack32 and F of m. Each
 * step above holds over K with l for m:
 * |q_K - Q_K| <= gamma_{l+4} Q_K + l 2^-121,
 * |d_K + 2 <x, r'c>_K| <= (gamma_{l+3} + 1.15 f)(Q_K + A_K) + l 2^-103.6,
 * sq_K lies within 1.01 (l + 2) u A_K of A_K, D'_K <= 2 (Q_K + A_K), and
 * S >= (1 - u)^(m+3) D - m 2^-1073 >= (1 - u)^(m+3) D'_K - m 2^-1073.
 * Every such error grows with l, so at l <= m it is at most the bound for
 * m with Q_K + A_K for Q + A, and the subtracted term, from the slack32
 * and F of m, still exceeds their sum and the five float roundings of
 * t32_K (the floats stay finite, each partial sum being at most its whole
 * sum's bound). Hence t32_K <= S, and p_K > th proves act < L as p does.
 * A node whose relevances or centers are unsafe has a NaN sq_K at every
 * l, as its sq.
 *
 * The search (decide). The pivot is the node of least p, and its exact
 * activation L bounds the winner's from below. The float test at L drops
 * most nodes; each node it keeps gets t in double and the double test of
 * reaches(), and each node that passes both gets its exact activation
 * (activation(), as winner() computes it), in ascending order, keeping the
 * first NaN, else the first maximum, as winner() and np.argmax do. A node
 * ruled out has an activation below L, the pivot's, so it is neither.
 * Since eps > 0, a NaN activation needs a NaN or unsafe operand, which
 * makes the node's p and t NaN: such a node is always computed.
 *
 * The float screen and test run in float vectors, each lane making the
 * IEEE operations of the scalar code, on both bodies, and compare 4 lanes
 * at a time (search computes its p in 8-lane vectors and compares their
 * halves): the baseline x86-64 ISA compares 4 floats natively but
 * scalarizes the comparisons of 8-lane vectors, and target_clones
 * compiles one source for both. The nodes the float test keeps go through
 * scalar code, in index order.
 */

/* Eight and four floats, and eight and four int32: the screen's lanes. */
typedef float v8f __attribute__((vector_size(32)));
typedef int32_t v8i __attribute__((vector_size(32)));
typedef float v4f __attribute__((vector_size(16)));
typedef int32_t v4i __attribute__((vector_size(16)));

INLINE v4f load4f(const float *p)
{
    v4f v;
    __builtin_memcpy(&v, p, sizeof v);
    return v;
}

/* The nodes a screened search runs on: n nodes of m dimensions, their
 * center and relevance rows, relevance sums (mass), labels, the screen's
 * |c|_r'^2 (sq), its floored form (sq_floor) and factor (slack), and
 * 1 / mass^2, the pivot proxy's weights (som_classify's batch alone). */
struct som_nodes {
    ptrdiff_t n, m;
    double eps, slack;
    const double *centers, *rel, *mass, *sq, *sq_floor, *weight;
    const int64_t *labels;
};

/* The label of a rejected pattern (inference.REJECTED). */
#define REJECTED (-2)

/* Exact activation of node j for x. */
INLINE double exact(const struct som_nodes *s, ptrdiff_t j, const double *x)
{
    return activation(s->centers + j * s->m, s->rel + j * s->m, s->mass[j],
                      x, s->m, s->eps);
}

/* The screen's bound on the activation from the lower bound d2 on the
 * squared distance, clamped like np.maximum(d2, 0.0) (NaN and -0.0 pass)
 * and rounded as model._act_of_sq rounds it. */
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

/* One pattern's outcome so far: the winner w, its activation top, the
 * best labeled candidate activation at or above a_t (sure), and, unless
 * NULL, the row that receives each exact activation computed. */
struct row {
    ptrdiff_t w;
    double top, sure;
    double *acts;
};

/* Candidate j: its exact activation into o->acts, the row's winner
 * (np.argmax: the first NaN, else the first maximum; the other nodes count
 * as -inf, which never wins after the initial w = 0, top = -inf) and
 * `sure`. The pivot's is L. */
INLINE void candidate(const struct som_nodes *s, ptrdiff_t j,
                      const double *x, double L, ptrdiff_t piv, double a_t,
                      struct row *o)
{
    double v = j == piv ? L : exact(s, j, x);
    if (o->acts)
        o->acts[j] = v;
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

/* The float operands of the pass, in the scratch block: per row, each
 * node's p = t weight, t its float bound; per batch, each node's sq,
 * sq_floor (with the float floor) and pivot weight as floats, and the
 * float slack (see above). */
struct lanes {
    float *p, *sq, *sq_floor, *weight;
    float slack;
};

/* The double bound on node j's squared distance from the float products,
 * as the numpy twin computes it. */
INLINE double bound_sq(const struct som_nodes *s, const float *q,
                       const float *d, ptrdiff_t j)
{
    const double qj = q[j];
    return (((double)d[j] + qj) + s->sq[j]) - (qj + s->sq_floor[j]) * s->slack;
}

/* The p of the four nodes whose indices idx holds: the least p seen per
 * lane goes to *low, its node to *at, the first on ties. */
INLINE void least4(v4f p, v4i idx, v4f *low, v4i *at)
{
    const v4i lt = p < *low;
    *low = (v4f)(((v4i)p & lt) | ((v4i)*low & ~lt));
    *at = (lt & idx) | (~lt & *at);
}

/* The node of the least p in the eight lanes of least4(), the first lane
 * on ties, and that p in *least; node 0 and inf when no p is below inf. */
INLINE ptrdiff_t across(const v4f low[2], const v4i at[2], float *least)
{
    ptrdiff_t piv = 0;
    *least = INFINITY;
    for (int l = 0; l < 8; l++)
        if (low[l / 4][l % 4] < *least) {
            *least = low[l / 4][l % 4];
            piv = at[l / 4][l % 4];
        }
    return piv;
}

/* p of node j .. j + 3, whose indices idx holds, into f->p, and least4(). */
INLINE void screen4(const struct lanes *f, const float *q, const float *d,
                    ptrdiff_t j, v4i idx, v4f *low, v4i *at)
{
    const v4f qj = load4f(q + j);
    const v4f t = ((load4f(d + j) + qj) + load4f(f->sq + j)) -
                  (qj + load4f(f->sq_floor + j)) * f->slack;
    const v4f p = t * load4f(f->weight + j);
    __builtin_memcpy(f->p + j, &p, sizeof p);
    least4(p, idx, low, at);
}

/* p of node j alone. */
INLINE float screen1(const struct lanes *f, const float *q, const float *d,
                     ptrdiff_t j)
{
    const float t = ((d[j] + q[j]) + f->sq[j]) -
                    (q[j] + f->sq_floor[j]) * f->slack;
    return f->p[j] = t * f->weight[j];
}

/* The float test's threshold for g = cutoff(L): a node whose p lies above
 * it is ruled out. NaN, which rules out nothing, for a g outside
 * [2^-60, 2^60]. */
INLINE float threshold(double g)
{
    return g >= 0x1p-60 && g <= 0x1p60 ? (float)(g * g * (1.0 + 0x1p-18))
                                       : NAN;
}

/* Node j, which the float test keeps: when its double bound reaches L, a
 * candidate of the row (o), or with `fall` a labeled candidate of the
 * fallback (*k, *best). */
INLINE void visit(const struct som_nodes *s, const float *q, const float *d,
                  ptrdiff_t j, const double *x, double L, double g,
                  double e, ptrdiff_t piv, double a_t, int fall,
                  struct row *o, ptrdiff_t *k, double *best)
{
    if (fall && s->labels[j] == NO_CLASS)
        return;
    if (!reaches(s, j, bound_sq(s, q, d, j), L, g, e))
        return;
    if (fall)
        fallback(s, j, x, a_t, k, best);
    else
        candidate(s, j, x, L, piv, a_t, o);
}

/* visit() each node of [0, n) whose p the float test at L cannot rule
 * out, in ascending order. Sixteen nodes are tested at a time; the rare
 * groups with a node the test keeps go through visit() lane by lane. */
INLINE void walk(const struct som_nodes *s, const float *p, const float *q,
                 const float *d, const double *x, double L, ptrdiff_t piv,
                 double a_t, int fall, struct row *o, ptrdiff_t *k,
                 double *best)
{
    const ptrdiff_t n = s->n;
    const double g = cutoff(L), e = shrunk(s->eps);
    const float h = threshold(g);
    ptrdiff_t j;
    for (j = 0; j + 16 <= n; j += 16) {
        const v4i no0 = load4f(p + j) > h, no1 = load4f(p + j + 4) > h,
                  no2 = load4f(p + j + 8) > h, no3 = load4f(p + j + 12) > h;
        const v4i all = (no0 & no1) & (no2 & no3);
        if ((all[0] & all[1]) & (all[2] & all[3]))
            continue;
        for (ptrdiff_t i = j; i < j + 16; i++)
            if (!(p[i] > h))
                visit(s, q, d, i, x, L, g, e, piv, a_t, fall, o, k, best);
    }
    for (; j < n; j++)
        if (!(p[j] > h))
            visit(s, q, d, j, x, L, g, e, piv, a_t, fall, o, k, best);
}

/* The screen of one pattern x against the nodes of s from its float
 * products q and d: each node's p into f->p, the pivot of least p, kept
 * in two sets of four lanes, then across, and walk() at the pivot's exact
 * activation, which leaves the first maximum in *o. */
INLINE void decide(const struct som_nodes *s, const struct lanes *f,
                   const float *q, const float *d, const double *x,
                   double a_t, struct row *o)
{
    const ptrdiff_t n = s->n;
    const v4f inf4 = {INFINITY, INFINITY, INFINITY, INFINITY};
    v4f low[2] = {inf4, inf4};
    v4i at[2] = {{0, 0, 0, 0}, {0, 0, 0, 0}};
    v4i idx = {0, 1, 2, 3};
    ptrdiff_t j;
    for (j = 0; j + 8 <= n; j += 8, idx += 8) {
        screen4(f, q, d, j, idx, &low[0], &at[0]);
        screen4(f, q, d, j + 4, idx + 4, &low[1], &at[1]);
    }
    if (j + 4 <= n) {
        screen4(f, q, d, j, idx, &low[0], &at[0]);
        j += 4;
    }
    float least;
    ptrdiff_t piv = across(low, at, &least);
    for (; j < n; j++)
        if (screen1(f, q, d, j) < least) {
            least = f->p[j];
            piv = j;
        }
    walk(s, f->p, q, d, x, exact(s, piv, x), piv, a_t, 0, o, NULL, NULL);
}

/*
 * The screened winner search of the training loop (search): the screen
 * above on one pattern, summed a chunk of 8 dimensions at a time.
 *
 * The shadow. som_train keeps the screen's node operands, private to this
 * file: r32 and w32 in chunks of 8 dimensions, padded with zeros to mp
 * dimensions, and blocks of 8 nodes, one node per vector lane: chunk c
 * holds, block after block, the 8 rows of dimensions 8c .. 8c + 7 of each
 * block, node j in lane j % 8 of block j / 8, so that a pass over one
 * chunk of every block reads one run of memory; per node sq and sq_floor
 * in double and the weight of the float test; and per block and stop the
 * float test's sq32 and sqf32 of its 8 nodes. Stop k lies after the first
 * 8 (k + 2) dimensions, k = 0 .. mp / 8 - 2; the last stop is after all
 * m, and its operands are the whole sq's. A stop's operands come from the
 * running sum of sq in double at that dimension (sq_K of the derivation).
 * shade() computes them from the node's rows as inference._NodeArrays and
 * som_classify do: a node whose relevances lie outside [0, 16] or whose
 * centers lie beyond the guard (inference._guard) has zero rows and a NaN
 * sq at every stop, and a relevance below 2^-126 counts as 0. The shadow
 * is one malloc'd block, built when som_train starts (shadow_open) and
 * freed when it returns; update_row, insert and sweep keep it current. The
 * loop runs winner() alone when the block cannot be allocated, or the map
 * has fewer than SCREEN_MIN_DIMS dimensions or more than the proof allows,
 * or its storage fewer than SCREEN_MIN_NODES rows, or the call presents
 * one draw. The shadow is passed explicitly, so maps trained on several
 * threads share nothing.
 *
 * The search. With n >= SCREEN_MIN_NODES nodes and a pattern whose every
 * value lies within the guard, search() sums q and d of every block of 8
 * nodes over its first 16 dimensions, on float lanes, and takes each
 * node's p at stop 0. The node of least p is the pivot; its exact
 * activation L sets the float test's threshold h. The blocks the float
 * test keeps then go on a chunk of 8 dimensions at a time, with the p of
 * each stop, until the test rules all 8 nodes of a block out or its sums
 * are whole. Each stop sums one chunk of each block in a list of the
 * blocks still kept; the node of least p there is a new pivot where its
 * exact activation lies above L and its threshold is not above h, so that
 * it rules out every node h ruled out; then the test at the pivot's h
 * writes the list anew, without a branch. A block that stops early keeps
 * the p that ruled its nodes out, so walk() skips them (see "Partial
 * sums" in the derivation); every other node has its whole sums and p.
 * walk() then gives each node the float test keeps the double bound and
 * the exact activation as decide() does, writing each exact activation it
 * computes to v->acts.
 * Its node is winner()'s, bit for bit. A map of 16 dimensions has one
 * stop, so its search is decide()'s. A pattern beyond the guard goes to
 * winner().
 *
 * The activation row. winner() leaves every activation of the map in
 * v->acts, search() only those of the nodes it computes. The loop reads
 * the row in two more places, and completes it first: second_winner reads
 * the nodes of the pattern's class or NO_CLASS, which complete() computes,
 * and an INSERT return leaves the row to the caller, so winner() runs
 * again. The last presentation of each som_train call runs winner(), so
 * the row after SOM_END is the one winner() leaves.
 */

/* Gates of the screened search. On random maps with patterns near a node
 * (16 and 32 dimensions, both builds, the gate lowered in a scratch
 * harness), the search of whole sums took 0.74-0.78 times the cycles of
 * winner() at 16 nodes, 0.64-0.73 at 24 and 0.58-0.69 at 32. Maps of fewer
 * nodes, and maps of few dimensions, the c5 sweep's, keep winner() until
 * the screen is measured there end to end. Summing by chunks pays where
 * relevances gather on a few dimensions: on train-subspace (32
 * dimensions, each class on 12 of them, ~630 nodes; seed 3) a block sums
 * 18.9 of the 32 on average and the search computes 1.38 nodes exactly,
 * and som_train takes 0.74-0.75 of its time with whole sums on the AVX2
 * body and 0.62-0.67 on the baseline one (paired in-process runs, seeds 3
 * and 901). */
#define SCREEN_MIN_DIMS 16
#define SCREEN_MIN_NODES 32

/* inference._MAX_DIMS: the proof needs (m + 4) 2^-24 <= 1/8. */
#define MAX_DIMS ((1 << 21) - 4)

/* inference._guard(m): the largest |x| and |c| the screen takes. */
static double guard(ptrdiff_t m)
{
    const int bits = m > 1 ? 64 - __builtin_clzll((uint64_t)(m - 1)) : 0;
    return ldexp(1.0, (120 - bits) / 2);
}

/* The float slack of the float test. */
INLINE float slack32(ptrdiff_t m)
{
    return (float)(4 * (m + 8)) * 0x1p-24f;
}

/* The float test's weight of a node of relevance sum `mass`: `weight`, its
 * 1 / mass^2, as a float, NaN unless mass lies in [2^-60, 2^60]. */
INLINE float weight32(double mass, double weight)
{
    return mass >= 0x1p-60 && mass <= 0x1p60 ? (float)weight : NAN;
}

/* Node j's operands of the float test into f: sq, sq_floor from the
 * floor F / slack32, and the pivot weight. */
INLINE void set_lanes(const struct lanes *f, ptrdiff_t j, double sq,
                      double floor, double mass, double weight)
{
    f->sq[j] = (float)sq;
    f->sq_floor[j] = (float)(sq + floor);
    f->weight[j] = weight32(mass, weight);
}

/* The shadow of the node rows (see above): mp padded dimensions, the
 * blocks of 8 nodes the storage holds, the stops, the guard, slack,
 * F / slack, F / slack32 and slack32, and the block mem, which holds sq,
 * sq_floor, the list of live blocks, the rows r and w in chunks and
 * blocks, the products q and d, the pattern x and its squares xx, each
 * node's p and weight, and ops, the stops' operands: per block, per stop,
 * the sq32 of its 8 nodes, then their sqf32. Every per-node array holds
 * the storage's capacity rounded up to 8 nodes. */
struct shadow {
    ptrdiff_t mp, blocks, stops;
    double guard, slack, floor, floor32;
    float slack32;
    void *mem;
    double *sq, *sq_floor;
    ptrdiff_t *live;
    float *r, *w, *q, *d, *x, *xx, *p, *weight, *ops;
};

/* Node j of the shadow from its rows. */
static void shade(struct shadow *s, const struct som_view *v, ptrdiff_t j)
{
    const ptrdiff_t m = v->m;
    const double *c = v->centers + j * m, *r = v->rel + j * m;
    const double mass = v->sums[j];
    const ptrdiff_t lane = j / 8 * 64 + j % 8;
    float *ops = s->ops + j / 8 * s->stops * 16 + j % 8;
    int safe = 1;
    for (ptrdiff_t q = 0; q < m; q++)
        safe &= r[q] >= 0.0 && r[q] <= 16.0 && fabs(c[q]) <= s->guard;
    double sq = safe ? 0.0 : NAN;
    for (ptrdiff_t q = 0; q < m; q++) {
        const double rc = safe && r[q] >= 0x1p-126 ? r[q] * c[q] : 0.0;
        const ptrdiff_t at = q / 8 * s->blocks * 64 + q % 8 * 8 + lane;
        s->r[at] = safe && r[q] >= 0x1p-126 ? (float)r[q] : 0.0f;
        s->w[at] = (float)(-2.0 * rc);
        sq += rc * c[q];
        if (q >= 15 && (q % 8 == 7 || q == m - 1)) {
            ops[(q / 8 - 1) * 16] = (float)sq;
            ops[(q / 8 - 1) * 16 + 8] = (float)(sq + s->floor32);
        }
    }
    s->sq[j] = sq;
    s->sq_floor[j] = sq + s->floor;
    s->weight[j] = weight32(mass, 1.0 / (mass * mass));
}

/* The shadow of a map of n nodes into *s, for a call of som_train that
 * presents `draws` draws; NULL, with nothing allocated, where the map
 * takes winner() alone. A call of one draw, as each of an observed run,
 * runs winner() for it and builds no shadow. */
static struct shadow *shadow_open(struct shadow *s, const struct som_view *v,
                                  ptrdiff_t n, ptrdiff_t draws)
{
    const ptrdiff_t m = v->m, slots = (v->capacity + 7) / 8 * 8;
    if (m < SCREEN_MIN_DIMS || m > MAX_DIMS ||
        v->capacity < SCREEN_MIN_NODES || draws < 2)
        return NULL;
    const ptrdiff_t mp = (m + 7) / 8 * 8;
    s->mp = mp;
    s->blocks = slots / 8;
    s->stops = mp / 8 - 1;
    s->guard = guard(m);
    s->slack = 4.0 * (double)(m + 4) * 0x1p-24;
    s->slack32 = slack32(m);
    s->floor = (double)m * 0x1p-100 / s->slack;
    s->floor32 = (double)m * 0x1p-100 / s->slack32;
    const size_t floats =
        (size_t)(2 * slots * mp + 2 * mp + 4 * slots + 2 * slots * s->stops);
    s->mem = calloc(2 * (size_t)slots * sizeof(double) +
                    (size_t)slots / 8 * sizeof(ptrdiff_t) +
                    floats * sizeof(float), 1);
    if (s->mem == NULL)
        return NULL;
    s->sq = s->mem;
    s->sq_floor = s->sq + slots;
    s->live = (ptrdiff_t *)(s->sq_floor + slots);
    s->r = (float *)(s->live + slots / 8);
    s->w = s->r + slots * mp;
    s->q = s->w + slots * mp;
    s->d = s->q + slots;
    s->x = s->d + slots;
    s->xx = s->x + mp;
    s->p = s->xx + mp;
    s->weight = s->p + slots;
    s->ops = s->weight + slots;
    for (ptrdiff_t j = 0; j < n; j++)
        shade(s, v, j);
    return s;
}

/* a times the 8 floats at p, added to *acc. */
INLINE void add8(v8f *acc, float a, const float *p)
{
    v8f v;
    __builtin_memcpy(&v, p, sizeof v);
    *acc += a * v;
}

/* q and d of block b over `chunks` chunks of 8 dimensions from chunk c,
 * added to *q and *d, with a second accumulator per lane for the odd
 * dimensions. */
INLINE void sum_chunks(const struct shadow *s, ptrdiff_t b, ptrdiff_t c,
                       int chunks, v8f *q, v8f *d)
{
    v8f q1 = {0.0f}, d1 = q1;
#pragma GCC unroll 2
    for (int i = 0; i < chunks; i++, c++) {
        const ptrdiff_t at = (c * s->blocks + b) * 64;
        const float *r = s->r + at, *w = s->w + at, *xx = s->xx + c * 8,
                    *x = s->x + c * 8;
#pragma GCC unroll 4
        for (int k = 0; k < 8; k += 2) {
            add8(q, xx[k], r + k * 8);
            add8(d, x[k], w + k * 8);
            add8(&q1, xx[k + 1], r + k * 8 + 8);
            add8(&d1, x[k + 1], w + k * 8 + 8);
        }
    }
    *q += q1;
    *d += d1;
}

/* The p of block b's nodes at stop k into *p, from their sums q and d
 * there; the lanes of nodes from n on get +inf, so that they are never a
 * pivot and never keep a block going. */
INLINE void stop(const struct shadow *s, ptrdiff_t b, ptrdiff_t k,
                 ptrdiff_t n, const v8f *q, const v8f *d, v8f *p)
{
    const float *ops = s->ops + (b * s->stops + k) * 16;
    v8f sq, sqf, weight;
    __builtin_memcpy(&sq, ops, sizeof sq);
    __builtin_memcpy(&sqf, ops + 8, sizeof sqf);
    __builtin_memcpy(&weight, s->weight + b * 8, sizeof weight);
    *p = (((*d + *q) + sq) - (*q + sqf) * s->slack32) * weight;
    if (n - b * 8 < 8) {
        const v8i lane = {0, 1, 2, 3, 4, 5, 6, 7};
        const v8i pad = lane >= (int32_t)(n - b * 8);
        const v8f inf = {INFINITY, INFINITY, INFINITY, INFINITY,
                         INFINITY, INFINITY, INFINITY, INFINITY};
        *p = (v8f)(((v8i)*p & ~pad) | ((v8i)inf & pad));
    }
}

/* Whether the float test at threshold h rules out all 8 lanes of p, four
 * lanes at a time. */
INLINE int ruled_out8(const v8f *p, float h)
{
    const v4i no = (__builtin_shufflevector(*p, *p, 0, 1, 2, 3) > h) &
                   (__builtin_shufflevector(*p, *p, 4, 5, 6, 7) > h);
    uint64_t all[2];
    __builtin_memcpy(all, &no, sizeof all);
    return (all[0] & all[1]) == UINT64_MAX;
}

/* least4() of block b's 8 p, in two sets of four lanes. */
INLINE void least8(const v8f *p, ptrdiff_t b, v4f low[2], v4i at[2])
{
    const v4i idx = {0, 1, 2, 3};
    least4(__builtin_shufflevector(*p, *p, 0, 1, 2, 3),
           idx + (int32_t)(b * 8), &low[0], &at[0]);
    least4(__builtin_shufflevector(*p, *p, 4, 5, 6, 7),
           idx + (int32_t)(b * 8 + 4), &low[1], &at[1]);
}

/* winner() through the screen of shadow sh, when the map and the pattern
 * pass its gates; *partial is set when v->acts holds only the activations
 * of the nodes computed. */
CLONES static ptrdiff_t search(const struct som_view *v,
                               const struct shadow *sh, ptrdiff_t n,
                               const double *x, int *partial)
{
    /* a copy that no store to the arrays can change */
    const struct shadow copy = *sh, *const s = &copy;
    const ptrdiff_t m = v->m, blocks = (n + 7) / 8;
    *partial = 0;
    if (n < SCREEN_MIN_NODES)
        return winner(v, n, x);
    for (ptrdiff_t q = 0; q < m; q++) {
        if (!(fabs(x[q]) <= s->guard))
            return winner(v, n, x);
        s->x[q] = (float)x[q];
        s->xx[q] = s->x[q] * s->x[q];
    }
    /* stop 0 of every block, and its node of least p: the pivot */
    const v4f inf4 = {INFINITY, INFINITY, INFINITY, INFINITY};
    v4f low[2] = {inf4, inf4};
    v4i at[2] = {{0, 0, 0, 0}, {0, 0, 0, 0}};
    for (ptrdiff_t b = 0; b < blocks; b++) {
        v8f q = {0.0f}, d = q, p;
        sum_chunks(s, b, 0, 2, &q, &d);
        stop(s, b, 0, n, &q, &d, &p);
        __builtin_memcpy(s->q + b * 8, &q, sizeof q);
        __builtin_memcpy(s->d + b * 8, &d, sizeof d);
        __builtin_memcpy(s->p + b * 8, &p, sizeof p);
        least8(&p, b, low, at);
    }
    float least;
    ptrdiff_t piv = across(low, at, &least);
    /* no fallback reads a_t here: NaN leaves o.sure alone */
    const struct som_nodes nodes = {n, m, v->eps, s->slack, v->centers,
                                    v->rel, v->sums, s->sq, s->sq_floor,
                                    NULL, v->labels};
    double L = exact(&nodes, piv, x);
    float h = threshold(cutoff(L));
    /* the blocks the float test at L keeps go on, a chunk at a time, in a
     * list of live blocks that each stop filters without a branch; with
     * one stop there is none to go on to */
    ptrdiff_t live = 0;
    for (ptrdiff_t b = 0; s->stops > 1 && b < blocks; b++) {
        v8f p;
        __builtin_memcpy(&p, s->p + b * 8, sizeof p);
        s->live[live] = b;
        live += !ruled_out8(&p, h);
    }
    for (ptrdiff_t k = 1; k < s->stops; k++) {
        low[0] = low[1] = inf4;
        for (ptrdiff_t i = 0; i < live; i++) {
            const ptrdiff_t b = s->live[i];
            v8f q, d, p;
            __builtin_memcpy(&q, s->q + b * 8, sizeof q);
            __builtin_memcpy(&d, s->d + b * 8, sizeof d);
            sum_chunks(s, b, k + 1, 1, &q, &d);
            stop(s, b, k, n, &q, &d, &p);
            __builtin_memcpy(s->q + b * 8, &q, sizeof q);
            __builtin_memcpy(s->d + b * 8, &d, sizeof d);
            __builtin_memcpy(s->p + b * 8, &p, sizeof p);
            least8(&p, b, low, at);
        }
        /* the node of least p at this stop is the pivot from now on where
         * its activation lies above L and its threshold is not above h, so
         * that it rules out every node h ruled out */
        const ptrdiff_t next = across(low, at, &least);
        if (least < INFINITY && next != piv) {
            const double L2 = exact(&nodes, next, x);
            const float h2 = threshold(cutoff(L2));
            if (L2 > L && h2 <= h) {
                L = L2;
                h = h2;
                piv = next;
            }
        }
        ptrdiff_t kept = 0;
        for (ptrdiff_t i = 0; i < live; i++) {
            const ptrdiff_t b = s->live[i];
            v8f p;
            __builtin_memcpy(&p, s->p + b * 8, sizeof p);
            s->live[kept] = b;
            kept += !ruled_out8(&p, h);
        }
        live = kept;
    }
    struct row o = {0, -INFINITY, -INFINITY, v->acts};
    walk(&nodes, s->p, s->q, s->d, x, L, piv, NAN, 0, &o, NULL, NULL);
    *partial = 1;
    return o.w;
}

/* The activations of the nodes of [0, n) whose label is `label` or
 * NO_CLASS, which second_winner reads, after a partial search. Nodes
 * search() computed get the same value again. */
CLONES static void complete(const struct som_view *v, ptrdiff_t n,
                            const double *x, int64_t label)
{
    const ptrdiff_t m = v->m;
    for (ptrdiff_t i = 0; i < n; i++)
        if (v->labels[i] == label || v->labels[i] == NO_CLASS)
            v->acts[i] = activation(v->centers + i * m, v->rel + i * m,
                                    v->sums[i], x, m, v->eps);
}

/* Node update of row j toward x at rate l, in place on centers, dist, rel
 * and sums, and on the shadow sh if there is one: one row of
 * model._update_numpy. */
static void update_row(const struct som_view *v, struct shadow *sh,
                       ptrdiff_t j, const double *x, double l, double beta,
                       double slope)
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
    if (sh)
        shade(sh, v, j);
}

/* Whether any of the 8 labels l[0..7] is `label` or NO_CLASS. */
INLINE int any_compatible8(const int64_t *l, int64_t label)
{
    int any = 0;
    for (int k = 0; k < 8; k++)
        any |= (l[k] == label) | (l[k] == NO_CLASS);
    return any;
}

/* Recompute the links between node j, 0 <= j < n, and each node of
 * [lo, n), in both bit rows, as model._link_numpy does. Two nodes link
 * when their labels are compatible and the Euclidean gap of their
 * relevance rows lies below minwd * sqrt(m).
 *
 * Row j is built a word of 64 nodes at a time. The gap is computed only
 * for the nodes other than j whose label is compatible; when j has a
 * class, a whole block of 8 nodes (8-aligned) none of which has j's label
 * or NO_CLASS is skipped after one test. On a map of many classes nearly
 * every block is. The word's new bits, `fresh`, are compared with the old
 * ones on the span of [lo, n) the word covers, so bits below lo (the
 * sweep's call) and bits from n on stay as they are: `diff` holds the
 * nodes whose link changed. Row j takes the new bits, and each node i of
 * `diff` has bit j of its own row flipped. The adjacency is symmetric,
 * so bit j of row i held bit i of row j's old value, and the flip gives
 * it the new one: the same set or clear as a write of every node's bit,
 * with writes to only the rows that change. */
CLONES static void relink(const struct som_view *v, ptrdiff_t n, ptrdiff_t j,
                          ptrdiff_t lo, double minwd)
{
    const ptrdiff_t m = v->m, words = v->words;
    const double *rj = v->rel + j * m;
    const int64_t *labels = v->labels;
    const int64_t lj = labels[j];
    const double bound = minwd * sqrt((double)m);
    const uint64_t bit_j = (uint64_t)1 << (j % 64);
    uint64_t *row = v->adj + j * words;
    for (ptrdiff_t w = lo / 64; w * 64 < n; w++) {
        const ptrdiff_t start = w * 64 > lo ? w * 64 : lo;
        const ptrdiff_t end = w * 64 + 64 < n ? w * 64 + 64 : n;
        uint64_t fresh = 0;
        for (ptrdiff_t i = start; i < end; i++) {
            if (lj != NO_CLASS && i % 8 == 0 && end - i >= 8 &&
                !any_compatible8(labels + i, lj)) {
                i += 7;
                continue;
            }
            const int64_t li = labels[i];
            if (i != j && (li == lj || li == NO_CLASS || lj == NO_CLASS) &&
                sqrt(sum0(SUM_SQUARES, v->rel + i * m, rj, rj, m)) < bound)
                fresh |= (uint64_t)1 << (i % 64);
        }
        const ptrdiff_t width = end - start;
        const uint64_t span = (width == 64 ? ~(uint64_t)0
                                           : ((uint64_t)1 << width) - 1)
                              << (start % 64);
        const uint64_t diff = (row[w] ^ fresh) & span;
        row[w] ^= diff;
        for (uint64_t bits = diff; bits; bits &= bits - 1)
            v->adj[(w * 64 + __builtin_ctzll(bits)) * words + j / 64] ^= bit_j;
    }
}

/* Attract node j at rate e_b, then its neighbors in ascending order at
 * rate e_n, and count the win. */
static void attract(const struct som_view *v, struct shadow *sh,
                    ptrdiff_t j, const double *x, const struct som_params *p)
{
    update_row(v, sh, j, x, p->e_b, p->beta, p->slope);
    const uint64_t *row = v->adj + j * v->words;
    for (ptrdiff_t w = 0; w < v->words; w++)
        for (uint64_t bits = row[w]; bits; bits &= bits - 1)
            update_row(v, sh, w * 64 + __builtin_ctzll(bits), x, p->e_n,
                       p->beta, p->slope);
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
static void insert(const struct som_view *v, struct shadow *sh,
                   ptrdiff_t n, const double *x, int64_t label, double minwd)
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
    if (sh)
        shade(sh, v, n);
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
static ptrdiff_t sweep(const struct som_view *v, struct shadow *sh,
                       ptrdiff_t n, const struct som_params *p)
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
    for (ptrdiff_t j = 0; sh && j < k; j++)
        shade(sh, v, j);
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
 * The winner search is search() on the shadow som_train builds when it
 * starts, and winner() for the last draw of the call and where there is no
 * shadow (see search).
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
    struct shadow shadow;
    struct shadow *const sh = shadow_open(&shadow, v, n, k - count[C_POS]);
    int code = SOM_END;
    ptrdiff_t pos;
    for (pos = count[C_POS]; pos < k; pos++) {
        const double *x = patterns + draws[pos] * v->m;
        const int64_t label = labels[draws[pos]];
        int partial = 0;
        const ptrdiff_t w = sh && pos + 1 < k ? search(v, sh, n, x, &partial)
                                              : winner(v, n, x);
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
                attract(v, sh, w, x, p);
        } else {
            count[C_SUPERVISED]++;
            const int64_t wl = v->labels[w];
            if (wl == label || wl == NO_CLASS) {
                if (!(act < p->a_t)) {
                    attract(v, sh, w, x, p);
                    v->labels[w] = label;
                    relink(v, n, w, 0, p->minwd);
                } else {
                    add = n < room;
                }
            } else {
                if (partial)
                    complete(v, n, x, label);
                const ptrdiff_t s = second_winner(v, n, label, p->a_t);
                if (s >= 0) {
                    attract(v, sh, s, x, p);
                    update_row(v, sh, w, x, -p->push_rate, p->beta,
                               p->slope);
                    count[C_PUSHES]++;
                } else {
                    add = n < room;
                }
            }
        }
        if (add) {
            if (n == v->capacity) {
                if (partial)
                    winner(v, n, x);
                count[label == NO_CLASS ? C_UNSUPERVISED : C_SUPERVISED]--;
                code = SOM_INSERT;
                break;
            }
            insert(v, sh, n++, x, label, p->minwd);
            count[C_INSERTIONS]++;
        }
        if (count[C_NWINS] == p->age_wins) {
            const ptrdiff_t kept = sweep(v, sh, n, p);
            count[C_REMOVALS] += n - kept;
            count[C_RESETS]++;
            count[C_NWINS] = 0;
            n = kept;
        }
        count[C_NWINS]++;
        count[C_T]++;
    }
    if (sh)
        free(sh->mem);
    count[C_POS] = pos;
    count[C_N] = n;
    return code;
}

/*
 * Bulk classification: the block pass of inference._classify_arrays.
 *
 * The caller multiplies a block of patterns by the node rows in float32
 * BLAS (sgemm), q = (x32*x32) r32^T and d = x32 w32^T, and passes the node
 * operands of inference._NodeArrays. For each row, som_classify then
 * makes, in C, the steps of the numpy twin inference._classify_block: the
 * screen's bounds (above), a pivot whose exact activation bounds the
 * winner's from below, the candidate test, the exact activation of each
 * candidate and the labeled fallback. It computes the double bound only
 * for the pairs the float test cannot rule out. Any pivot is correct; the
 * twin takes the node of highest double bound, this pass the node of
 * least p, which needs no square root. Both give the outcome of the
 * classification rule on the exact activations, bit for bit.
 */

/* The labeled node of least p, -1 when no p is below inf. */
static ptrdiff_t least_labeled(const struct som_nodes *s,
                               const struct lanes *f)
{
    ptrdiff_t best = -1;
    float low = INFINITY;
    for (ptrdiff_t j = 0; j < s->n; j++)
        if (s->labels[j] != NO_CLASS && f->p[j] < low) {
            low = f->p[j];
            best = j;
        }
    return best;
}

/*
 * Classify the `rows` patterns of x (rows x m): q and d are their float32
 * BLAS products with the node rows (rows x n each), and scratch a block
 * of 4 n floats. Writes, per row, the deciding node (-1 for a rejection),
 * its label (REJECTED for a rejection) and its activation (for a
 * rejection, the winner's), as inference._classify_block does.
 */
CLONES void som_classify(const struct som_nodes *s, ptrdiff_t rows,
                         double a_t, const double *x, const float *q,
                         const float *d, float *scratch, ptrdiff_t *node,
                         int64_t *label, double *act)
{
    const ptrdiff_t n = s->n, m = s->m;
    const int64_t *const labels = s->labels;
    const struct lanes f = {scratch, scratch + n, scratch + 2 * n,
                            scratch + 3 * n, slack32(m)};
    const double floor = (double)m * 0x1p-100 / f.slack;
    for (ptrdiff_t j = 0; j < n; j++)
        set_lanes(&f, j, s->sq[j], floor, s->mass[j], s->weight[j]);
    for (ptrdiff_t r = 0; r < rows; r++, x += m, q += n, d += n) {
        struct row o = {0, -INFINITY, -INFINITY, NULL};
        decide(s, &f, q, d, x, a_t, &o);
        int64_t lab = labels[o.w];
        if (lab == NO_CLASS) {
            /* An unlabeled winner: the most activated labeled node at or
             * above a_t decides. Its activation is at least `sure`; with
             * no labeled candidate there, the labeled node of least p may
             * give one. Every labeled node whose bound reaches
             * L2 = max(a_t, sure) is then a candidate, and no other
             * labeled node can decide. */
            if (o.sure == -INFINITY) {
                ptrdiff_t k = least_labeled(s, &f);
                if (k >= 0) {
                    double v = exact(s, k, x);
                    if (v >= a_t)
                        o.sure = v;
                }
            }
            const double L2 = o.sure >= a_t ? o.sure : a_t;
            ptrdiff_t k = -1;
            double best = -INFINITY;
            walk(s, f.p, q, d, x, L2, -1, a_t, 1, NULL, &k, &best);
            if (k >= 0) {
                o.w = k;
                o.top = best;
                lab = labels[k];
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
 * as a code, one per distinct field.
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
 * A run of digits is read eight bytes at a time while eight remain before
 * the end number() is given, the field's closing quote or the end of the
 * text, so no load reaches past it (digits): one 8-byte load, the first
 * of its bytes that is not an ASCII digit, and the value of the digits
 * before it from three multiplies (Lemire, "Number Parsing at a Gigabyte
 * per Second", 2021), so a short run takes one load too. Only a run that
 * reaches within eight bytes of that end is finished a byte at a time.
 *
 * A number of at most 19 significant digits whose mantissa w is at most
 * 2^53, with a decimal exponent e of at most 22 in size, is w * 10^e or
 * w / 10^-e: both operands are exact, so the one IEEE operation rounds
 * correctly (Clinger, "How to Read Floating Point Numbers Accurately",
 * 1990). Multiplying by 10^-e instead would not do: that power is not
 * exact. One of at most 19 significant digits with w above 2^53, as in
 * most 17-digit repr()s, and e of at most 22 in size is rounded from one
 * product of w with the leading 128 bits of 10^e (eisel_lemire); a
 * compiler without a 128-bit integer type makes that product from 32-bit
 * ones (mul128). Any other token of the number's characters goes to
 * strtod, which rounds correctly too, in a NUL-terminated copy, and
 * counts only if strtod reads the whole of it: more than 19 significant
 * digits, an exponent outside -22..22, and the rare product eisel_lemire
 * cannot round (a tie, or a product too close to one to tell; none of
 * the 235,000 long mantissas of the benchmark's predict-bulk and
 * train-subspace inputs, seed 3, is one). strtod reads the decimal point
 * of the C library's LC_NUMERIC locale: under a locale whose point is ','
 * it stops at the '.', and only those tokens are refused.
 *
 * The label field of each record, its bytes as they stand, quotes and
 * padding included, is looked up in an open-addressing table of the
 * caller's (intern), so the caller decodes each distinct field once. The
 * scanner touches no Python object.
 */

/* The longest number the scanner copies for strtod, NUL included. */
#define TOKEN_MAX 128

/* The powers of ten a double holds exactly. */
static const double POW10[] = {
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12,
    1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

/* The leading 128 bits of 10^q, truncated, for -22 <= q <= 22, low word
 * first (eisel_lemire); scripts/pow10_table.py computes and checks them. */
static const uint64_t POW10_128[][2] = {
    {0x5324c68b12dd6338, 0xf1c90080baf72cb1},
    {0xd3f6fc16ebca5e03, 0x971da05074da7bee},
    {0x88f4bb1ca6bcf584, 0xbce5086492111aea},
    {0x2b31e9e3d06c32e5, 0xec1e4a7db69561a5},
    {0x3aff322e62439fcf, 0x9392ee8e921d5d07},
    {0x09befeb9fad487c2, 0xb877aa3236a4b449},
    {0x4c2ebe687989a9b3, 0xe69594bec44de15b},
    {0x0f9d37014bf60a10, 0x901d7cf73ab0acd9},
    {0x538484c19ef38c94, 0xb424dc35095cd80f},
    {0x2865a5f206b06fb9, 0xe12e13424bb40e13},
    {0xf93f87b7442e45d3, 0x8cbccc096f5088cb},
    {0xf78f69a51539d748, 0xafebff0bcb24aafe},
    {0xb573440e5a884d1b, 0xdbe6fecebdedd5be},
    {0x31680a88f8953030, 0x89705f4136b4a597},
    {0xfdc20d2b36ba7c3d, 0xabcc77118461cefc},
    {0x3d32907604691b4c, 0xd6bf94d5e57a42bc},
    {0xa63f9a49c2c1b10f, 0x8637bd05af6c69b5},
    {0x0fcf80dc33721d53, 0xa7c5ac471b478423},
    {0xd3c36113404ea4a8, 0xd1b71758e219652b},
    {0x645a1cac083126e9, 0x83126e978d4fdf3b},
    {0x3d70a3d70a3d70a3, 0xa3d70a3d70a3d70a},
    {0xcccccccccccccccc, 0xcccccccccccccccc},
    {0x0000000000000000, 0x8000000000000000},
    {0x0000000000000000, 0xa000000000000000},
    {0x0000000000000000, 0xc800000000000000},
    {0x0000000000000000, 0xfa00000000000000},
    {0x0000000000000000, 0x9c40000000000000},
    {0x0000000000000000, 0xc350000000000000},
    {0x0000000000000000, 0xf424000000000000},
    {0x0000000000000000, 0x9896800000000000},
    {0x0000000000000000, 0xbebc200000000000},
    {0x0000000000000000, 0xee6b280000000000},
    {0x0000000000000000, 0x9502f90000000000},
    {0x0000000000000000, 0xba43b74000000000},
    {0x0000000000000000, 0xe8d4a51000000000},
    {0x0000000000000000, 0x9184e72a00000000},
    {0x0000000000000000, 0xb5e620f480000000},
    {0x0000000000000000, 0xe35fa931a0000000},
    {0x0000000000000000, 0x8e1bc9bf04000000},
    {0x0000000000000000, 0xb1a2bc2ec5000000},
    {0x0000000000000000, 0xde0b6b3a76400000},
    {0x0000000000000000, 0x8ac7230489e80000},
    {0x0000000000000000, 0xad78ebc5ac620000},
    {0x0000000000000000, 0xd8d726b7177a8000},
    {0x0000000000000000, 0x878678326eac9000}};

INLINE int is_digit(char c)
{
    return (unsigned char)(c - '0') < 10;
}

/* The 8 bytes at p, the first in the lowest byte. */
INLINE uint64_t load8(const char *p)
{
    uint64_t v;
    memcpy(&v, p, sizeof v);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    v = __builtin_bswap64(v);
#endif
    return v;
}

/* 10^n for n <= 19: the n <= 8 digits one load reads, and the decimal
 * lengths and scales of the predictions writer. */
static const uint64_t TENS[] = {
    1, 10, 100, 1000, 10000, 100000, 1000000, 10000000, 100000000,
    1000000000, 10000000000, 100000000000, 1000000000000, 10000000000000,
    100000000000000, 1000000000000000, 10000000000000000,
    100000000000000000, 1000000000000000000, 10000000000000000000u};

/* The value of the 8 decimal digits of v, one per byte, the first in the
 * lowest: pairs of digits, then pairs of pairs, then the two halves. */
INLINE uint64_t eight_value(uint64_t v)
{
    const uint64_t mask = UINT64_C(0x000000ff000000ff);
    v = v * 10 + (v >> 8);
    return ((v & mask) * (100 + (UINT64_C(1000000) << 32)) +
            (v >> 16 & mask) * (1 + (UINT64_C(10000) << 32))) >> 32;
}

/* Read the run of digits at p, before e, into *w, as w * 10 + digit for
 * each (wrapping past 19 digits); returns the run's end. */
INLINE const char *digits(const char *p, const char *e, uint64_t *w)
{
    uint64_t v = *w;
    while (e - p >= 8) {
        /* The bytes b - '0', digit values below the first byte that is
         * not a digit; no borrow or carry leaves those. The first other
         * byte gets its top bit set, by b - '0' for b < '0' or b >= 0xb0
         * and by b + 0x46 for '9' < b < 0xba; the bytes above it, which
         * a borrow or carry may change, are not read. */
        const uint64_t b = load8(p), d = b - UINT64_C(0x3030303030303030),
                       other = (d | (b + UINT64_C(0x4646464646464646))) &
                               UINT64_C(0x8080808080808080);
        if (other == 0) {
            v = v * 100000000 + eight_value(d);
            p += 8;
            continue;
        }
        const int n = __builtin_ctzll(other) >> 3;
        /* the n digits, moved up behind 8 - n leading zeros */
        v = v * TENS[n] + (n ? eight_value(d << (64 - 8 * n)) : 0);
        p += n;
        break;
    }
    if (e - p < 8)
        for (; p < e && is_digit(*p); p++)
            v = v * 10 + (uint64_t)(*p - '0');
    *w = v;
    return p;
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

/* The 128-bit product a * b: the low word, the high one into *hi. */
INLINE uint64_t mul128(uint64_t a, uint64_t b, uint64_t *hi)
{
#ifdef __SIZEOF_INT128__
    const unsigned __int128 p = (unsigned __int128)a * b;
    *hi = (uint64_t)(p >> 64);
    return (uint64_t)p;
#else
    const uint64_t a0 = (uint32_t)a, a1 = a >> 32, b0 = (uint32_t)b,
                   b1 = b >> 32, p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0,
                   mid = (p00 >> 32) + (uint32_t)p01 + (uint32_t)p10;
    *hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32);
    return mid << 32 | (uint32_t)p00;
#endif
}

/* The bit length of 5^e (1 for e = 0), for the e a double reaches. */
INLINE int pow5bits(int e)
{
    return (int)(((uint32_t)e * 1217359) >> 19) + 1;
}

/*
 * w * 10^q rounded to the nearest double, ties to even, into *x, for
 * 2^53 < w < 2^64 and -22 <= q <= 22; Eisel and Lemire's method (Lemire,
 * "Number Parsing at a Gigabyte per Second", 2021). Returns 0, with *x
 * unset, when the product it rounds from cannot decide the rounding.
 *
 * w is shifted left by lz bits until its top bit is bit 63, and
 * multiplied by t, the leading 128 bits of 10^q, truncated: 10^q =
 * (t + g) * 2^(E - 127) with 0 <= g < 1 and E = floor(log2(10^q)), g = 0
 * for q >= 0. The upper 128 bits (hi, lo) of the 192-bit product are
 * first taken from t's high word alone; the rest of w * t adds less than
 * w to them, and w * g less again. The top 54 bits of hi, the bits kept
 * and the round bit, are exact unless such an addition can carry into
 * them: only when the 9 bits of hi below them are all ones and lo + w
 * overflows, and then the low word's product is added, leaving less than
 * w units of its own low word, which can carry only through an all-ones
 * lo. That case fails. So does a product whose round bit is set, whose
 * last kept bit is even (rounding up is right for an odd one either way)
 * and whose bits below are zeros as far as the 9 low bits of hi and all
 * of lo show: it may be an exact halfway point, where the tie goes down
 * to the even mantissa, or lie just above one (g > 0). Every value
 * returned rounds up exactly when its round bit is set.
 *
 * hi has its top bit at 63 (top = 1) or 62, so hi >> (9 + top) holds 54
 * bits and the value is that times 2^(E + 10 + top - lz); rounded to 53
 * bits (one more exponent step if it reaches 2^53), the double's biased
 * exponent is E + 1086 + top - lz. The result lies within
 * [2^53 * 10^-22, 2^64 * 10^22], inside the normal range.
 */
static int eisel_lemire(uint64_t w, int q, double *x)
{
    const uint64_t *t = POW10_128[q + 22], low9 = 0x1ff;
    const int lz = __builtin_clzll(w);
    w <<= lz;
    uint64_t hi, lo = mul128(w, t[1], &hi);
    if ((hi & low9) == low9 && lo + w < w) {
        uint64_t carry;
        const uint64_t below = mul128(w, t[0], &carry);
        lo += carry;
        hi += lo < carry;
        if ((hi & low9) == low9 && lo == UINT64_MAX && below + w < w)
            return 0;
    }
    const int top = (int)(hi >> 63);
    uint64_t mant = hi >> (9 + top);
    if (lo == 0 && (hi & low9) == 0 && (mant & 3) == 1)
        return 0;
    mant = (mant + (mant & 1)) >> 1;
    /* E, from the bit length of 5^|q|: 10^q = 5^q * 2^q */
    int biased = (q >= 0 ? q + pow5bits(q) - 1 : q - pow5bits(-q)) + 1086 +
                 top - lz;
    if (mant >> 53) {
        mant >>= 1;
        biased++;
    }
    const uint64_t bits =
        (uint64_t)biased << 52 | (mant & ((UINT64_C(1) << 52) - 1));
    memcpy(x, &bits, sizeof *x);
    return 1;
}

/* Read the number field at s into *v. The field ends at e or before the
 * first ',', '"' or line break. Returns its end, or NULL when it holds no
 * number. */
static const char *number(const char *s, const char *e, double *v)
{
    while (s < e && (*s == ' ' || *s == '\t'))
        s++;
    /* The fast paths' grammar, read where the number stands: the mantissa
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
    if (p < e && is_digit(*p))
        p = digits(p, e, &w);
    ptrdiff_t sig = p - q, all = p - m, exp = 0;
    if (p < e && *p == '.') {
        const char *f = ++p;
        if (sig == 0)
            while (p < e && *p == '0')
                p++;
        q = p;
        p = digits(p, e, &w);
        sig += p - q;
        all += p - f;
        exp = f - p;
    }
    int exact = all > 0;
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
    const int short_token = exact && p == t && sig <= 19 && exp >= -22 &&
                            exp <= 22;
    double x;
    if (short_token && w <= (UINT64_C(1) << 53))
        x = exp < 0 ? (double)w / POW10[-exp] : (double)w * POW10[exp];
    else if (short_token && eisel_lemire(w, (int)exp, &x))
        ;
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

/* The distinct label fields of a scan: `table` holds mask + 1 slots, a
 * power of two, each 0 (free) or a code plus one; spans[2k] and
 * spans[2k + 1] are the offsets of code k's bytes in the text; n codes so
 * far. */
struct labels {
    int64_t *table, *spans;
    uint64_t mask;
    int64_t n;
};

/* The code of the field [a, b) of the text s: that of the first field of
 * the same bytes, else the next one. The table must keep a free slot, so
 * that a probe ends. */
static int64_t intern(const char *s, const char *a, const char *b,
                      struct labels *l)
{
    uint64_t h = UINT64_C(0xcbf29ce484222325); /* FNV-1a */
    for (const char *p = a; p < b; p++)
        h = (h ^ (unsigned char)*p) * UINT64_C(0x100000001b3);
    for (uint64_t i = (h ^ h >> 32) & l->mask;; i = (i + 1) & l->mask) {
        const int64_t k = l->table[i] - 1;
        if (k < 0) {
            l->table[i] = l->n + 1;
            l->spans[2 * l->n] = a - s;
            l->spans[2 * l->n + 1] = b - s;
            return l->n++;
        }
        const int64_t *span = l->spans + 2 * k;
        if (span[1] - span[0] == b - a && memcmp(s + span[0], a, b - a) == 0)
            return k;
    }
}

/*
 * Scan the records of the CSV text s[0, len). Each must hold `width`
 * fields. Field `label` (-1 for none) is interned: codes[r] is record r's
 * code, 0, 1, ... in order of first appearance, and spans[2k] and
 * spans[2k + 1] are the offsets of the bytes of code k's field, quotes
 * included. The others are read as numbers, in order, into the next
 * width - (label >= 0) values of out. `table` is the interning's scratch:
 * `slots` zeroed entries, a power of two of at least 2 * rows, so it is
 * never full. Returns the number of records, or -1 when the text leaves
 * the grammar above or holds more than `rows` records. With out NULL it
 * reads nothing and returns the number of '\n' in the text plus one, the
 * most records it can hold, to size the arrays.
 */
ptrdiff_t som_scan(const char *s, ptrdiff_t len, ptrdiff_t width,
                   ptrdiff_t label, ptrdiff_t rows, double *out,
                   int64_t *codes, int64_t *spans, int64_t *table,
                   ptrdiff_t slots)
{
    const char *p = s, *const end = s + len;
    struct labels labels = {table, spans, (uint64_t)slots - 1, 0};
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
                if (f == label)
                    codes[r] = intern(s, a, p, &labels);
                else if (number(a + 1, p - 1, out++) != p - 1)
                    return -1;
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

/*
 * The layout of a model file's node list, which the node writer
 * (som_write_nodes) writes and the node reader (som_read_nodes) reads: the
 * bytes json.dumps(doc, indent=1, sort_keys=True) writes between the
 * list's "[" and its "\n ]". Nodes are separated by SEPARATOR, and so are
 * a vector's values, each after VALUE_INDENT; an empty vector is
 * VECTOR_OPEN and VECTOR_END. Each byte of the layout is spelled here alone.
 */
#define NODE_INDENT "\n  "
#define FIELD_INDENT "\n   "
#define VALUE_INDENT "\n    "
#define SEPARATOR ","
#define KEY(name) FIELD_INDENT "\"" name "\": "
#define NODE_OPEN NODE_INDENT "{" KEY("center")
#define DIST_AVG SEPARATOR KEY("dist_avg")
#define LABEL SEPARATOR KEY("label")
#define RELEVANCE SEPARATOR KEY("relevance")
#define WINS SEPARATOR KEY("wins")
#define NODE_CLOSE NODE_INDENT "}"
#define VECTOR_OPEN "["
#define VECTOR_END "]"
#define VECTOR_CLOSE FIELD_INDENT VECTOR_END

/*
 * The node reader (som_read_nodes) reads the node list of a model file in
 * exactly that layout, with at least one value in a vector, and label and
 * wins in decimal. It refuses the first byte that leaves that layout, and
 * any token that json.loads would read otherwise or refuse: a vector value
 * must match JSON's number grammar,
 * -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, so 01, +1, .5, 1. and NaN
 * are refused, and read as json.loads and numpy read it: number() gives
 * float()'s value, and a token without fraction or exponent, which json
 * reads as an integer, is that integer's nearest double, +0.0 for -0. A
 * value that is not finite is refused, as is a label or wins of more than
 * 18 digits. persistence.load_model then reads the file through json
 * instead, which gives the same arrays or its own error.
 */

/* Whether the bytes at *p, before e, are the n bytes of `text`; if so,
 * *p moves past them. */
INLINE int literal(const char **p, const char *e, const char *text,
                   size_t n)
{
    if ((size_t)(e - *p) < n || memcmp(*p, text, n) != 0)
        return 0;
    *p += n;
    return 1;
}

#define LITERAL(p, e, text) literal(p, e, text, sizeof text - 1)

/* The end of the JSON number at p, before e, or NULL when p starts none;
 * *integer is set when it has neither fraction nor exponent. */
static const char *json_number(const char *p, const char *e, int *integer)
{
    if (p < e && *p == '-')
        p++;
    if (p == e || !is_digit(*p))
        return NULL;
    if (*p++ != '0')
        while (p < e && is_digit(*p))
            p++;
    *integer = 1;
    if (p < e && *p == '.') {
        if (++p == e || !is_digit(*p))
            return NULL;
        while (p < e && is_digit(*p))
            p++;
        *integer = 0;
    }
    if (p < e && (*p == 'e' || *p == 'E')) {
        if (++p < e && (*p == '+' || *p == '-'))
            p++;
        if (p == e || !is_digit(*p))
            return NULL;
        while (p < e && is_digit(*p))
            p++;
        *integer = 0;
    }
    return p;
}

/* The JSON integer of at most 18 digits at *p, before e, into *v; *p
 * moves past it. A longer one leaves a digit at *p. */
static int json_int(const char **p, const char *e, int64_t *v)
{
    const char *s = *p;
    const int neg = s < e && *s == '-';
    s += neg;
    const char *first = s;
    int64_t x = 0;
    if (s < e && *s == '0')
        s++;
    else
        for (; s < e && is_digit(*s) && s - first < 18; s++)
            x = x * 10 + (*s - '0');
    if (s == first)
        return 0;
    *v = neg ? -x : x;
    *p = s;
    return 1;
}

/* The node vector at *p, before e, in the layout above, into out, which
 * has room for `room` values; *p moves past it. Returns its length, or -1
 * off the layout or past the room. */
static ptrdiff_t node_vector(const char **p, const char *e, double *out,
                             ptrdiff_t room)
{
    const char *s = *p;
    ptrdiff_t k = 0;
    if (!LITERAL(&s, e, VECTOR_OPEN))
        return -1;
    do {
        int integer;
        const char *t;
        if (!LITERAL(&s, e, VALUE_INDENT) || k == room ||
            (t = json_number(s, e, &integer)) == NULL ||
            number(s, t, out + k) != t)
            return -1;
        if (integer && out[k] == 0)
            out[k] = 0.0;
        k++;
        s = t;
    } while (LITERAL(&s, e, SEPARATOR));
    if (!LITERAL(&s, e, VECTOR_CLOSE))
        return -1;
    *p = s;
    return k;
}

/*
 * Read the nodes of the text s[0, len): the bytes between the "[" and the
 * "\n ]" of a model file's node list, with at least one node. Node j's
 * center, dist_avg and relevance go to vectors[3 j m ...], in that order,
 * its label and wins to ints[2 j] and ints[2 j + 1]; each of the two
 * arrays has room for `room` values. *dim is set to m, the length of node
 * 0's center, which every vector must have. Returns the node count, or -1
 * at the first byte off the layout or a token the reader refuses (see
 * above), or when the arrays have too little room.
 */
ptrdiff_t som_read_nodes(const char *s, ptrdiff_t len, ptrdiff_t room,
                         double *vectors, int64_t *ints, ptrdiff_t *dim)
{
    const char *p = s, *const end = s + len;
    ptrdiff_t n = 0, m = 0; /* m = 0 until node 0's center is read */
    do {
        double *v = vectors + 3 * n * m;
        const ptrdiff_t left = room - 3 * n * m;
        if (2 * n + 2 > room || 3 * m > left ||
            (n && !LITERAL(&p, end, SEPARATOR)) ||
            !LITERAL(&p, end, NODE_OPEN))
            return -1;
        const ptrdiff_t k = node_vector(&p, end, v, m ? m : left);
        if (k < 1 || (m && k != m) || 3 * k > left)
            return -1;
        m = k;
        if (!LITERAL(&p, end, DIST_AVG) ||
            node_vector(&p, end, v + m, m) != m ||
            !LITERAL(&p, end, LABEL) ||
            !json_int(&p, end, ints + 2 * n) ||
            !LITERAL(&p, end, RELEVANCE) ||
            node_vector(&p, end, v + 2 * m, m) != m ||
            !LITERAL(&p, end, WINS) ||
            !json_int(&p, end, ints + 2 * n + 1) ||
            !LITERAL(&p, end, NODE_CLOSE))
            return -1;
        n++;
    } while (p < end);
    *dim = m;
    return n;
}

/*
 * The float formatter (write_double) writes each double of the node writer
 * as Python's repr(), and so json, writes it: the shortest digits that read
 * back as the same double, the nearest of them to it (ties to an even last
 * digit), written with an exponent below 1e-4 and from 1e16 up ("1e-05",
 * "1e+16"), "-0.0" for a negative zero. json.dumps of the node list is the
 * node writer's mirror, and the reference the tests compare it with.
 *
 * The digits are Ryu's (Adams, "Ryu: fast float-to-string conversion",
 * PLDI 2018), its d2d with the small tables: the powers 5^i and 2^k / 5^i
 * it scales by, to 125 bits, come from every 26th one times an exact 5^k
 * and a 2-bit correction. scripts/ryu_tables.py computes the tables with
 * exact integers and checks every correction and shift. Products of 64 by
 * 64 bits use the compiler's 128-bit integer type where it has one, and
 * four 32-bit products elsewhere.
 */

/* 5^0 .. 5^25 */
static const uint64_t FIVES[] = {
    1, 5, 25, 125, 625, 3125, 15625, 78125, 390625, 1953125, 9765625,
    48828125, 244140625, 1220703125, 6103515625, 30517578125, 152587890625,
    762939453125, 3814697265625, 19073486328125, 95367431640625,
    476837158203125, 2384185791015625, 11920928955078125, 59604644775390625,
    298023223876953125};
/* 5^i to 125 bits, truncated, for every 26th i, and the corrections of
 * the i between them (pow5). */
static const uint64_t POW5[][2] = {
    {0x0000000000000000, 0x1000000000000000},
    {0x0000000000000000, 0x14adf4b7320334b9},
    {0x0e549208b31adb10, 0x1aba4714957d300d},
    {0x6dc6ad264d8f0866, 0x1145b7e285bf98f5},
    {0xeb1dbd923d8596ca, 0x1652efdc6018a1fc},
    {0xb4c1b80b22ae923c, 0x1cda62055b2d9d83},
    {0x5bb28b4e8f7e4c30, 0x12a5568b9f52f416},
    {0xf08aed437682d4fb, 0x1819651531f9e78f},
    {0xb4ee134ad99bf150, 0x1f25c186a6f04c28},
    {0x16499ecb70c25f03, 0x1420eb449c8842e6},
    {0x85a56ead360865b0, 0x1a03fde214caf085},
    {0x093db1d57999890b, 0x10cfeb353a97dad8},
    {0xcf38bb735e3f36ac, 0x15baaf44fa52673e}};
static const uint32_t POW5_CORR[] = {
    0x00000000, 0x00000000, 0x00000000, 0x00000000, 0x40000000, 0x59695995,
    0x55545555, 0x56555515, 0x41150504, 0x40555410, 0x44555145, 0x44504540,
    0x45555550, 0x40004000, 0x96440440, 0x55565565, 0x54454045, 0x40154151,
    0x55559155, 0x51405555, 0x00000105};
/* 2^k / 5^i to 125 bits, rounded up, for every 26th i, and the
 * corrections of the i between them (inv_pow5). */
static const uint64_t INV_POW5[][2] = {
    {0x0000000000000001, 0x2000000000000000},
    {0x52a6c95fc0655034, 0x18c240c4aecb13bb},
    {0x7ca8d50071dfc806, 0x1327fc58da0f6ff5},
    {0x6520247d3556476e, 0x1da48ce468e7c702},
    {0x6139cdd76802e6e9, 0x16ef5b40c2fc7779},
    {0xf951a7ff43de8c79, 0x11bebdf578b2f391},
    {0x7be8bee8d6e957e8, 0x1b758d848fac54b0},
    {0x8bd3f9e999a423ea, 0x153eda614071a3b7},
    {0x0848f973cb3ee3ce, 0x10701bd527b4978c},
    {0x153285ebb9efbfa2, 0x196fbb9bb44db44d},
    {0xadeee7f86c07b696, 0x13ae3591f5b4d936},
    {0x4d686a4eaf182222, 0x1e74404f3daada91},
    {0x98c0a106e09ebd9f, 0x17900ea4fda7c257}};
static const uint32_t INV_POW5_CORR[] = {
    0x54544554, 0x04055545, 0x10041000, 0x00400414, 0x40010000, 0x41155555,
    0x00000454, 0x00010044, 0x40000000, 0x44000041, 0x50454450, 0x55550054,
    0x51655554, 0x40004000, 0x01000001, 0x00010500, 0x51515411, 0x05555554,
    0x00000000};

/* The low word of the 128-bit (hi, lo) >> s, for 0 < s < 64. */
INLINE uint64_t shr128(uint64_t lo, uint64_t hi, int s)
{
    return hi << (64 - s) | lo >> s;
}

/* out = (t * 5^k >> s) + add, 0 < s < 64, for a 125-bit result: the
 * table entry t scaled by an exact power of five. */
static void scale5(uint64_t t0, uint64_t t1, int k, int s, uint64_t add,
                   uint64_t out[2])
{
    uint64_t h0, h1;
    const uint64_t l0 = mul128(FIVES[k], t0, &h0),
                   l1 = mul128(FIVES[k], t1, &h1), up = l1 << (64 - s);
    uint64_t lo = shr128(l0, h0, s), hi = (h0 >> s) + shr128(l1, h1, s);
    lo += up;
    hi += lo < up;
    lo += add;
    hi += lo < add;
    out[0] = lo;
    out[1] = hi;
}

/* 5^i to 125 bits, truncated. */
static void pow5(int i, uint64_t out[2])
{
    const int base = i / 26, k = i % 26;
    if (k == 0) {
        out[0] = POW5[base][0];
        out[1] = POW5[base][1];
        return;
    }
    scale5(POW5[base][0], POW5[base][1], k, pow5bits(i) - pow5bits(i - k),
           POW5_CORR[i / 16] >> (2 * (i % 16)) & 3, out);
}

/* 2^(pow5bits(i) + 124) / 5^i, rounded up (above, when exact). */
static void inv_pow5(int i, uint64_t out[2])
{
    const int base = (i + 25) / 26, k = base * 26 - i;
    if (k == 0) {
        out[0] = INV_POW5[base][0];
        out[1] = INV_POW5[base][1];
        return;
    }
    scale5(INV_POW5[base][0] - 1, INV_POW5[base][1], k,
           pow5bits(i + k) - pow5bits(i),
           1 + (INV_POW5_CORR[i / 16] >> (2 * (i % 16)) & 3), out);
}

/* m * mul >> j, for m below 2^55 and 64 < j < 128. */
INLINE uint64_t mul_shift(uint64_t m, const uint64_t mul[2], int j)
{
    uint64_t h0, h1;
    mul128(m, mul[0], &h0);
    const uint64_t sum = mul128(m, mul[1], &h1) + h0;
    return shr128(sum, h1 + (sum < h0), j - 64);
}

/* The number of factors 5 of v, which is not 0. */
INLINE int pow5_factor(uint64_t v)
{
    int n = 0;
    for (; v % 5 == 0; v /= 5)
        n++;
    return n;
}

/*
 * The shortest decimal w * 10^*e10 that reads back as the positive double
 * of mantissa field `frac` and biased exponent `biased`, the nearest of
 * those to it, ties to an even w; Ryu's d2d. The double is m2 * 2^e2, held
 * as mv = 4 m2 so that the halfway points to its neighbours, mp above and
 * mm below (nearer at a power of two), are integers too; a double of even
 * m2 reads back from its halfway points as well.
 */
static uint64_t shortest(uint64_t frac, int biased, int *e10)
{
    const int e2 = (biased ? biased : 1) - 1023 - 52 - 2;
    const uint64_t m2 = biased ? frac | UINT64_C(1) << 52 : frac,
                   mv = 4 * m2, mp = mv + 2;
    const int even = (m2 & 1) == 0, mm_shift = frac != 0 || biased <= 1;
    const uint64_t mm = mv - 1 - mm_shift;
    uint64_t mul[2];
    int q, j, vr_zeros = 0, vm_zeros = 0, vp_exact = 0;
    /* vr, vp and vm below are mv, mp and mm times 2^e2 / 10^*e10,
     * truncated. Whether the parts cut off vr and vm are zero, and whether
     * vp is exact, which an odd m2 must stay below. q is floor(log10(2^e2))
     * or floor(log10(5^-e2)), less one above the smallest e2. */
    if (e2 >= 0) {
        q = (int)((uint32_t)e2 * 78913 >> 18) - (e2 > 3);
        *e10 = q;
        inv_pow5(q, mul);
        j = -e2 + q + 124 + pow5bits(q);
        if (q <= 21) {
            if (mv % 5 == 0)
                vr_zeros = pow5_factor(mv) >= q;
            else if (even)
                vm_zeros = pow5_factor(mm) >= q;
            else
                vp_exact = pow5_factor(mp) >= q;
        }
    } else {
        q = (int)((uint32_t)-e2 * 732923 >> 20) - (-e2 > 1);
        *e10 = q + e2;
        pow5(-e2 - q, mul);
        j = q - pow5bits(-e2 - q) + 125;
        if (q <= 1) {
            vr_zeros = 1;
            vm_zeros = even && mm_shift;
            vp_exact = !even;
        } else if (q < 63) {
            vr_zeros = (mv & ((UINT64_C(1) << q) - 1)) == 0;
        }
    }
    uint64_t vr = mul_shift(mv, mul, j), vp = mul_shift(mp, mul, j) - vp_exact,
             vm = mul_shift(mm, mul, j);
    /* Remove digits while the halfway points keep a number between them,
     * then, while the digits removed from vm are zeros, its zeros. */
    int last = 0;
    for (; vp / 10 > vm / 10 || (vm_zeros && vm % 10 == 0); ++*e10) {
        vm_zeros &= vm % 10 == 0;
        vr_zeros &= last == 0;
        last = (int)(vr % 10);
        vr /= 10;
        vp /= 10;
        vm /= 10;
    }
    if (vr_zeros && last == 5 && vr % 2 == 0)
        last = 4; /* exactly halfway: round to even */
    return vr + ((vr == vm && (!even || !vm_zeros)) || last >= 5);
}

/* The digits of w, two at a time, backward from end. */
static const char PAIRS[] =
    "00010203040506070809101112131415161718192021222324"
    "25262728293031323334353637383940414243444546474849"
    "50515253545556575859606162636465666768697071727374"
    "75767778798081828384858687888990919293949596979899";

INLINE void put_digits(char *end, uint64_t w)
{
    for (; w >= 100; w /= 100)
        memcpy(end -= 2, PAIRS + 2 * (w % 100), 2);
    if (w >= 10)
        memcpy(end - 2, PAIRS + 2 * w, 2);
    else
        end[-1] = (char)('0' + w);
}

/* The integer v in decimal, into s; returns its end. */
INLINE char *put_int(char *s, int64_t v)
{
    const uint64_t u = v < 0 ? -(uint64_t)v : (uint64_t)v;
    int n = 1;
    if (v < 0)
        *s++ = '-';
    while (n < 20 && u >= TENS[n])
        n++;
    put_digits(s + n, u);
    return s + n;
}

/* The finite double x as repr() writes it, into s; returns its end. */
static char *write_double(char *s, double x)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    if (bits >> 63)
        *s++ = '-';
    const uint64_t frac = bits & ((UINT64_C(1) << 52) - 1);
    const int biased = (int)(bits >> 52 & 0x7ff);
    if (biased == 0 && frac == 0) {
        memcpy(s, "0.0", 3);
        return s + 3;
    }
    int e;
    const uint64_t w = shortest(frac, biased, &e);
    /* n digits, the point `point` digits after the first one */
    const int t = (64 - __builtin_clzll(w)) * 1233 >> 12,
              n = t + (w >= FIVES[t] << t), point = n + e;
    if (point <= -4 || point > 16) {
        put_digits(s + n + 1, w);
        s[0] = s[1];
        s[1] = '.';
        s += n + (n > 1);
        const int x10 = point > 0 ? point - 1 : 1 - point;
        *s++ = 'e';
        *s++ = point > 0 ? '+' : '-';
        if (x10 >= 100)
            *s++ = (char)('0' + x10 / 100);
        memcpy(s, PAIRS + 2 * (x10 % 100), 2);
        return s + 2;
    }
    if (point <= 0) {
        memcpy(s, "0.000", 5);
        s += 2 - point + n;
        put_digits(s, w);
        return s;
    }
    if (point < n) {
        put_digits(s + n + 1, w);
        memmove(s, s + 1, point);
        s[point] = '.';
        return s + n + 1;
    }
    put_digits(s + n, w);
    memset(s + n, '0', point - n);
    memcpy(s + point, ".0", 2);
    return s + point + 2;
}

#define LEN(text) ((ptrdiff_t)sizeof text - 1)

/* The n bytes of `text` into s; returns their end, as mempcpy does. */
INLINE char *put(char *s, const char *text, ptrdiff_t n)
{
    return (char *)memcpy(s, text, n) + n;
}

#define PUT(s, text) put(s, text, LEN(text))

/* The vector of m finite doubles at x into s in the layout above; returns
 * its end. */
static char *write_vector(char *s, const double *x, ptrdiff_t m)
{
    s = PUT(s, VECTOR_OPEN);
    for (ptrdiff_t c = 0; c < m; c++)
        s = write_double(PUT(c ? PUT(s, SEPARATOR) : s, VALUE_INDENT), x[c]);
    return m ? PUT(s, VECTOR_CLOSE) : PUT(s, VECTOR_END);
}

/*
 * Write the node list of n nodes of m dimensions into out, in the layout
 * above: node j holds row j of centers, dist and rel, labels[j] and
 * wins[j]. Returns the length written, or -1 at a value that is not
 * finite. With out NULL, returns the length out must hold: a double takes
 * at most 24 bytes (-2.2250738585072014e-308), write_double's scratch
 * bytes past its end included, and an integer 20 (-9223372036854775808).
 */
ptrdiff_t som_write_nodes(ptrdiff_t n, ptrdiff_t m, const double *centers,
                          const double *dist, const int64_t *labels,
                          const double *rel, const int64_t *wins, char *out)
{
    if (out == NULL)
        return n * (LEN(SEPARATOR NODE_OPEN DIST_AVG LABEL RELEVANCE WINS
                        NODE_CLOSE) + 2 * 20 +
                    3 * (LEN(VECTOR_OPEN VECTOR_CLOSE) +
                         m * (LEN(SEPARATOR VALUE_INDENT) + 24)));
    for (ptrdiff_t i = 0; i < n * m; i++)
        if (!isfinite(centers[i]) || !isfinite(dist[i]) || !isfinite(rel[i]))
            return -1; /* JSON cannot hold it */
    char *s = out;
    for (ptrdiff_t j = 0; j < n; j++) {
        s = PUT(j ? PUT(s, SEPARATOR) : s, NODE_OPEN);
        s = write_vector(s, centers + j * m, m);
        s = write_vector(PUT(s, DIST_AVG), dist + j * m, m);
        s = PUT(put_int(PUT(s, LABEL), labels[j]), RELEVANCE);
        s = write_vector(s, rel + j * m, m);
        s = PUT(put_int(PUT(s, WINS), wins[j]), NODE_CLOSE);
    }
    return s - out;
}

/*
 * The predictions writer (som_write_predictions) writes the rows of
 * semisom predict's output file, each as "%d,%s,%s,%.6g\r\n" % (index,
 * node id, label text, activation) does in cli._write_predictions, its
 * mirror and the reference the tests compare it with. The "%.6g" digits are made
 * here, not by printf, so no LC_NUMERIC locale reaches them: |x| rounded to
 * six significant digits, ties to even, exactly, for 2^-66 <= |x| < 2^64
 * (six_digits). Outside that range, and for a value that is not finite,
 * the writer returns -1 and the caller writes the file with "%".
 */

/* |x| rounded to six significant digits, ties to even, as d * 10^(*x10 -
 * 5) with 10^5 <= d < 10^6, for 2^-66 <= |x| < 2^64; 0 outside that range.
 *
 * Below 10^6, |x| = m2 2^e scaled by 10^k, k = 5 - x10, is
 * m2 5^k 2^(e + k): one product of at most 53 + 59 bits (k <= 25, as
 * FIVES goes), shifted right by -(e + k) > 0 and rounded on the bits shifted
 * out. x10 starts at floor(log10(2^be)), be = floor(log2|x|), which lies at
 * most one below floor(log10|x|), and steps up once if the product shows
 * 10^6 or more. From 10^6 up, |x| is an integer part below 2^64 and a
 * fraction f: with p = 10^(x10 - 5), the integer part's quotient q and
 * remainder r round up when r > p / 2, or r = p / 2 and either f > 0 or q
 * is odd. */
static uint64_t six_digits(double x, int *x10)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    const int biased = (int)(bits >> 52 & 0x7ff), e = biased - 1075;
    const uint64_t m2 = (bits & ((UINT64_C(1) << 52) - 1)) | UINT64_C(1) << 52;
    if (biased < 1023 - 66 || biased > 1023 + 63)
        return 0;
    uint64_t d;
    int t;
    if (fabs(x) < 1e6) {
        const int be = (biased - 1023) * 78913;
        t = be >= 0 ? be >> 18 : -((-be + (1 << 18) - 1) >> 18);
        int s;
        uint64_t hi, lo;
        for (;;) {
            lo = mul128(m2, FIVES[5 - t], &hi);
            s = -(e + 5 - t);
            d = s < 64 ? shr128(lo, hi, s) : hi >> (s - 64);
            if (d < 1000000)
                break;
            t++;
        }
        /* the round bit, and whether any bit below it is set */
        const int r = s - 1,
                  round = (int)((r < 64 ? lo >> r : hi >> (r - 64)) & 1),
                  sticky = r <= 64 ? lo << (64 - r) != 0
                                   : (lo | hi << (128 - r)) != 0;
        d += round && (sticky || (d & 1));
    } else {
        const uint64_t whole = e >= 0 ? m2 << e : m2 >> -e,
                       frac = e >= 0 ? 0 : m2 & ((UINT64_C(1) << -e) - 1);
        for (t = 6; t < 19 && whole >= TENS[t + 1]; t++)
            ;
        const uint64_t p = TENS[t - 5], q = whole / p, r = whole % p;
        d = q + (r > p / 2 || (r == p / 2 && (frac || (q & 1))));
    }
    if (d == 1000000) {
        d = 100000;
        t++;
    }
    *x10 = t;
    return d;
}

/* The finite double x as "%.6g" writes it, into s; returns its end, or
 * NULL for a value other than 0 outside [2^-66, 2^64) in size. */
static char *write_g6(char *s, double x)
{
    if (signbit(x))
        *s++ = '-';
    if (x == 0) {
        *s = '0';
        return s + 1;
    }
    int x10, n = 6;
    uint64_t d = six_digits(x, &x10);
    if (d == 0)
        return NULL;
    for (; d % 10 == 0; d /= 10)
        n--;
    if (x10 < -4 || x10 >= 6) {
        /* d.ddddde+XX: the digits one place on, the first moved back */
        put_digits(s + n + 1, d);
        s[0] = s[1];
        s[1] = '.';
        s += n + (n > 1);
        memcpy(s, x10 < 0 ? "e-" : "e+", 2);
        memcpy(s + 2, PAIRS + 2 * (x10 < 0 ? -x10 : x10), 2);
        return s + 4;
    }
    if (x10 < 0) {
        memcpy(s, "0.", 2);
        memset(s + 2, '0', -x10 - 1);
        s += 1 - x10 + n;
        put_digits(s, d);
        return s;
    }
    if (x10 + 1 < n) {
        put_digits(s + n + 1, d);
        memmove(s, s + 1, x10 + 1);
        s[x10 + 1] = '.';
        return s + n + 1;
    }
    put_digits(s + n, d);
    memset(s + n, '0', x10 + 1 - n);
    return s + x10 + 1;
}

/*
 * Write the predictions of `rows` patterns into out: row i is i, node[i]
 * (nothing for -1, a rejection), the label text pick[i] and act[i], joined
 * by "," and ended by "\r\n", the activation as "%.6g" writes it. The
 * `count` label texts lie end to end in texts, text k ending at ends[k].
 * out must hold rows * (64 + the longest text) bytes; nothing is written
 * past the length returned. Returns that length, or -1 at a node id below
 * -1, a pick outside the texts, or an activation write_g6 does not write.
 */
ptrdiff_t som_write_predictions(ptrdiff_t rows, const ptrdiff_t *node,
                                const int64_t *pick, const char *texts,
                                const int64_t *ends, ptrdiff_t count,
                                const double *act, char *out)
{
    char *s = out;
    for (ptrdiff_t i = 0; i < rows; i++) {
        const int64_t k = pick[i];
        if (node[i] < -1 || k < 0 || k >= count || !isfinite(act[i]))
            return -1;
        s = put_int(s, i);
        *s++ = ',';
        if (node[i] >= 0)
            s = put_int(s, node[i]);
        *s++ = ',';
        const int64_t a = k ? ends[k - 1] : 0;
        memcpy(s, texts + a, ends[k] - a);
        s += ends[k] - a;
        *s++ = ',';
        if ((s = write_g6(s, act[i])) == NULL)
            return -1;
        memcpy(s, "\r\n", 2);
        s += 2;
    }
    return s - out;
}
