/*
 * Compiled kernels of semisom: its training loop (som_train, with the
 * winner search, the node update and the link recomputation that exist
 * only inside the loop), bulk classification (som_classify), the scanner
 * of CSV and ARFF bodies (som_scan) and the float formatter of model files
 * (som_format, at the end of the file). The library keeps only these long
 * calls, and som_sum and som_reaches for the tests; it is loaded through
 * one ctypes.CDLL handle, so every call releases the interpreter lock. No
 * function touches a Python object, and each reads and writes only the
 * arrays it is passed and the scratch block som_train allocates for its
 * screened winner search (see search). The scanner computes most numbers
 * itself, exactly; only the rest go to strtod, the one place the
 * LC_NUMERIC locale reaches (see the scanner's comment). The formatter
 * writes each double as Python's repr() does, its mirror (see the
 * formatter's comment).
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
 * Two functions take another route to the same outcome. som_classify
 * computes the screen's bounds with the numpy pass's operations, but
 * tests most pairs against them in the squared-distance domain. search,
 * the winner search of som_train from 16 dimensions and 32 nodes on,
 * screens the nodes in float32 and computes only the ones the screen
 * cannot rule out; it returns winner()'s node, so _winner mirrors both.
 * Every activation that decides is computed as winner() does.
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
 * som_format, scale5 and som_reaches to the same instructions in both
 * builds. Built with -ffp-contract=off so no multiply-add is fused; never
 * build it with -ffast-math or -march=native.
 *
 * Matrices are C-contiguous rows of length m, one row per node. The
 * adjacency holds one bit row of `words` uint64 per node: bit i % 64 of
 * word i / 64 of row j is set when nodes i and j are linked. Bits outside
 * the n x n block of present nodes are always zero.
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
 * The screened winner search of the training loop (search): the winner
 * winner() finds, from the exact activations of only the nodes that a
 * float32 screen cannot rule out.
 *
 * The shadow. som_train keeps a float32 copy of the node rows, private to
 * this file: centers and relevances in blocks of 8 nodes, one node per
 * vector lane (lane j % 8 of row q of block j / 8), each row padded with
 * zero relevances to mp, a multiple of 8 dimensions. Beside them it holds
 * each node's mass (relevance sum) and pivot weight 1 / mass^2, and the
 * largest error factors of its nodes (below). It is one malloc'd block,
 * built when som_train starts (shadow_open) and freed when it returns;
 * update_row, insert and sweep keep it current (shade). Building it costs
 * 7 to 10 runs of winner() (16 and 32 dimensions, 32 to 512 nodes), which
 * a call repays within a few dozen draws. The loop runs winner() alone
 * when the block cannot be allocated, or the map has fewer than
 * SCREEN_MIN_DIMS or more than SCREEN_MAX_DIMS dimensions, or its storage
 * fewer than SCREEN_MIN_NODES rows, or the call presents one draw. The
 * shadow is passed explicitly, so maps trained on several threads share
 * nothing.
 *
 * The search. With n >= SCREEN_MIN_NODES nodes and a pattern x whose every
 * |x_q| <= 2^56, it
 *  1. sums D = sum r32 (c32 - x32)^2 in float32, 8 nodes at a time with
 *     four accumulators per lane, and keeps d = fl32(D k1) (below);
 *  2. takes as pivot the safe node (below) of least d / mass^2, and its
 *     exact activation L = activation();
 *  3. tests 8 nodes at a time whether d proves a node's activation below
 *     L (ruled8), and computes each node it does not rule out with
 *     activation(), in ascending order, keeping the first maximum as
 *     winner() does. The pivot, whose activation is L, is never ruled out.
 * A ruled-out node cannot be the first maximum, since its activation lies
 * below the pivot's, so the winner is winner()'s, bit for bit. A NaN
 * activation among the computed ones sends the search to winner(), which
 * returns the first NaN. A pattern outside the gate, or a map without a
 * safe node, goes to winner() at once.
 *
 * Safe nodes. A node is screened only when its centers and relevances are
 * finite, every |c_q| <= 2^56, every r_q is 0 or in [2^-126, 16] (so r32
 * is a normal float within 2^-24 of r, relative: a subnormal one may be
 * twice r) and its mass is finite and > 0. Any other node is always
 * computed: its shadow rows hold zeros and its mass and weight NaN, so
 * the test never rules it out and it is never the pivot.
 *
 * The bound. Write |v|_r = sqrt(sum r_q v_q^2) over the node's relevances,
 * u = 2^-53, and S for the double sum winner() computes, so that the
 * exact activation is bound(S) of som_classify's derivation (at cutoff()).
 * With g = cutoff(L), e = shrunk(eps) and t = fl(fl(mass g) - e) > 0,
 * S > t^2 then proves act < L. And:
 *  - S >= (1 - u)^(m+3) |c - x|_r^2 - m 2^-1073: the m + 3 roundings of a
 *    term and its additions are relative on nonnegative terms, and only
 *    the two products of a term may underflow.
 *  - |c - x|_r >= E - a0 by the triangle inequality, E = |c32 - x32|_r
 *    and a0 = |c32 - c|_r + |x32 - x|_r. Rounding to float moves a value
 *    of magnitude at most 2^56 by at most 2^-24 of it plus 2^-150, and
 *    every r_q <= 16, so a0 <= 2^-24 (|c|_r + sqrt(max r) |x|) +
 *    2^-147 sqrt(m).
 *    Without this term the proof fails where c is near x: there c32 - x32
 *    may be a whole float ulp while c - x is one double ulp.
 *  - E^2 >= D (1 - (mp + 5) 2^-24) - mp 2^-144: a term of D takes at most
 *    5 roundings (r32, the difference counted twice in its square, the
 *    square, the product) and at most mp - 1 additions, all relative on
 *    nonnegative terms, except that the square and the product may
 *    underflow by 2^-150 each (the square's times r32 <= 16). D stays
 *    finite: a term is at most 2^118, and mp <= 1000 of them stay below
 *    2^128. d = fl32(D k1) adds one more relative rounding, or 2^-150.
 * Hence the test of ruled8, on doubles,
 *     d > fl(fl(s s) + F),  s = fl(fl(t + a) G),  t > 0,
 * with k1 = 1 - (m + 16) 2^-23 (a float), G = 1 + 2^-30, F = 2^-100 and
 * a = fl(fl(rrs |x|) + err), where err and rrs are the largest
 * 2^-24 (1 + 2^-20) |c|_r + 2^-120 and 2^-24 (1 + 2^-20) sqrt(max r) of
 * the nodes shaded since the shadow was built, so a >= a0 + 2^-530 for
 * every node present, proves
 *     D (1 - (mp + 5) 2^-24) - mp 2^-144 > ((t + 2^-530)(1 + 2^-41) + a0)^2,
 * so E - a0 > (t + 2^-530)(1 + 2^-41), so S > t^2 and act < L strictly.
 * k1 keeps (m + 20) 2^-24 > 2^-20 of slack over the float roundings, G
 * covers (1 - u)^-(m+3)/2 < 1 + 2^-41 (m <= 1000) with 2^-31 to spare,
 * F is 2^44 times mp 2^-144, and the 2^-20 in err and rrs covers the
 * roundings of |c|_r, sqrt(max r), |x| and a; each of the few double
 * roundings of the test is at most 2^-53 relative, far inside that slack.
 * A t that is NaN (an L outside cutoff's range, an unsafe node) or not
 * above 0 rules out nothing.
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
 * (16 and 32 dimensions, both builds), search took 0.97-1.07 times the
 * cycles of winner() at 16 nodes, 0.80-0.85 at 24 and 0.52-0.81 at 32.
 * Below 16 dimensions it also gained on maps of ~600 nodes (8 to 12
 * dimensions, ~30 % of training time), but maps of few dimensions, the
 * c5 sweep's, keep winner() until that is measured end to end. Above
 * 1000 dimensions a float sum could overflow. */
#define SCREEN_MIN_DIMS 16
#define SCREEN_MAX_DIMS 1000
#define SCREEN_MIN_NODES 32

/* Defined with som_classify, which uses them first. */
static double cutoff(double L);
INLINE double shrunk(double eps);

/* Eight and four floats, and four int32: the screen's lanes. */
typedef float v8f __attribute__((vector_size(32)));
typedef float v4f __attribute__((vector_size(16)));
typedef int32_t v4i __attribute__((vector_size(16)));

/* The shadow of the node rows (see above): mp padded dimensions, k1, the
 * largest error factors err and rrs, the block mem, and in it the mass of
 * each node, the blocked rows c and r, the weights w, the screen sums d
 * and the pattern x. Every per-node array holds the storage's capacity
 * rounded up to 8 nodes. */
struct shadow {
    ptrdiff_t mp;
    float k1;
    double err, rrs;
    void *mem;
    double *mass;
    float *c, *r, *w, *d, *x;
};

/* 2^-24 (1 + 2^-20): the error terms' factor. */
#define ERR_SCALE (0x1p-24 + 0x1p-44)

/* Node j, absent or unsafe: never ruled out, never the pivot. */
INLINE void unshade(struct shadow *s, ptrdiff_t j)
{
    s->mass[j] = NAN;
    s->w[j] = NAN;
}

/* Node j of the shadow from its rows. */
static void shade(struct shadow *s, const struct som_view *v, ptrdiff_t j)
{
    const ptrdiff_t m = v->m;
    const double *c = v->centers + j * m, *r = v->rel + j * m;
    const double mass = v->sums[j];
    float *cs = s->c + (j / 8 * s->mp) * 8 + j % 8;
    float *rs = s->r + (j / 8 * s->mp) * 8 + j % 8;
    int safe = mass > 0.0 && mass < INFINITY;
    for (ptrdiff_t q = 0; q < m; q++)
        safe &= fabs(c[q]) <= 0x1p56 &&
                (r[q] == 0.0 || (r[q] >= 0x1p-126 && r[q] <= 16.0));
    if (!safe) {
        for (ptrdiff_t q = 0; q < m; q++)
            cs[q * 8] = rs[q * 8] = 0.0f;
        unshade(s, j);
        return;
    }
    double norm = 0.0, top = 0.0;
    for (ptrdiff_t q = 0; q < m; q++) {
        cs[q * 8] = (float)c[q];
        rs[q * 8] = (float)r[q];
        norm += r[q] * c[q] * c[q];
        top = r[q] > top ? r[q] : top;
    }
    const double err = sqrt(norm) * ERR_SCALE + 0x1p-120;
    const double rrs = sqrt(top) * ERR_SCALE;
    s->err = err > s->err ? err : s->err;
    s->rrs = rrs > s->rrs ? rrs : s->rrs;
    s->mass[j] = mass;
    s->w[j] = (float)fmin(1.0 / (mass * mass), 0x1p127);
}

/* The shadow of a map of n nodes into *s, for a call of som_train that
 * presents `draws` draws; NULL, with nothing allocated, where the map
 * takes winner() alone. A call of one draw, as each of an observed run,
 * runs winner() for it and builds no shadow. */
static struct shadow *shadow_open(struct shadow *s, const struct som_view *v,
                                  ptrdiff_t n, ptrdiff_t draws)
{
    const ptrdiff_t m = v->m, slots = (v->capacity + 7) / 8 * 8;
    if (m < SCREEN_MIN_DIMS || m > SCREEN_MAX_DIMS ||
        v->capacity < SCREEN_MIN_NODES || draws < 2)
        return NULL;
    s->mp = (m + 7) / 8 * 8;
    s->k1 = 1.0f - (float)(m + 16) * 0x1p-23f;
    s->err = s->rrs = 0.0;
    const size_t floats = (size_t)(2 * slots * s->mp + 2 * slots + s->mp);
    s->mem = calloc((size_t)slots * sizeof(double) + floats * sizeof(float),
                    1);
    if (s->mem == NULL)
        return NULL;
    s->mass = s->mem;
    s->c = (float *)(s->mass + slots);
    s->r = s->c + slots * s->mp;
    s->w = s->r + slots * s->mp;
    s->d = s->w + slots;
    s->x = s->d + slots;
    for (ptrdiff_t j = 0; j < slots; j++)
        if (j < n)
            shade(s, v, j);
        else
            unshade(s, j);
    return s;
}

INLINE v4f load4f(const float *p)
{
    v4f v;
    __builtin_memcpy(&v, p, sizeof v);
    return v;
}

/* Term q of the screen sums of 8 nodes, r32 (c32 - x32)^2 in float, added
 * to *acc. */
INLINE void term8(const float *c, const float *r, float x, ptrdiff_t q,
                  v8f *acc)
{
    v8f cq, rq;
    __builtin_memcpy(&cq, c + q * 8, sizeof cq);
    __builtin_memcpy(&rq, r + q * 8, sizeof rq);
    cq -= x;
    *acc += rq * (cq * cq);
}

/* d = fl32(D k1) of the 8 nodes of block b for the pattern in s->x, D
 * summed with four accumulators per lane, into s->d. */
INLINE void screen8(const struct shadow *s, ptrdiff_t b)
{
    const float *c = s->c + b * s->mp * 8, *r = s->r + b * s->mp * 8;
    const float *x = s->x;
    v8f a0 = {0.0f}, a1 = a0, a2 = a0, a3 = a0;
    for (ptrdiff_t q = 0; q < s->mp; q += 4) {
        term8(c, r, x[q], q, &a0);
        term8(c, r, x[q + 1], q + 1, &a1);
        term8(c, r, x[q + 2], q + 2, &a2);
        term8(c, r, x[q + 3], q + 3, &a3);
    }
    const v8f d = ((a0 + a1) + (a2 + a3)) * s->k1;
    __builtin_memcpy(s->d + b * 8, &d, sizeof d);
}

/* The test of the bound above for nodes j .. j + 7, a pair of lanes at a
 * time: no[h] is set where node j + 2h or j + 2h + 1 is ruled out.
 * g = cutoff(L), e = shrunk(eps), a the error term. Returns whether all
 * eight are ruled out. */
INLINE int ruled8(const struct shadow *s, ptrdiff_t j, double g, double e,
                  double a, v2di no[4])
{
    const v2d zero = {0.0, 0.0}, grow = {1.0 + 0x1p-30, 1.0 + 0x1p-30},
              floor = {0x1p-100, 0x1p-100};
    v2di all = {-1, -1};
    for (int h = 0; h < 4; h++) {
        const ptrdiff_t i = j + 2 * h;
        const v2d t = load2(s->mass + i) * g - e;
        const v2d sc = (t + a) * grow;
        const v2d d = {s->d[i], s->d[i + 1]};
        no[h] = (t > zero) & (d > sc * sc + floor);
        all &= no[h];
    }
    return (all[0] & all[1]) != 0;
}

/* winner() through the screen of shadow s, when the map and the pattern
 * pass its gates; *partial is set when v->acts holds only the activations
 * of the nodes computed. */
CLONES static ptrdiff_t search(const struct som_view *v,
                               struct shadow *s, ptrdiff_t n,
                               const double *x, int *partial)
{
    const ptrdiff_t m = v->m;
    *partial = 0;
    if (n < SCREEN_MIN_NODES)
        return winner(v, n, x);
    double xx = 0.0;
    for (ptrdiff_t q = 0; q < m; q++) {
        if (!(fabs(x[q]) <= 0x1p56))
            return winner(v, n, x);
        s->x[q] = (float)x[q];
        xx += x[q] * x[q];
    }
    /* The screen, with the pivot: the node of least d * weight, per lane
     * of two 4-wide halves, then across. Lanes of absent nodes and unsafe
     * ones have NaN weights. */
    const v4f inf4 = {INFINITY, INFINITY, INFINITY, INFINITY};
    v4f low[2] = {inf4, inf4};
    v4i at[2] = {{0, 0, 0, 0}, {0, 0, 0, 0}};
    for (ptrdiff_t b = 0; b * 8 < n; b++) {
        screen8(s, b);
        for (int h = 0; h < 2; h++) {
            const v4f p = load4f(s->d + b * 8 + h * 4) *
                          load4f(s->w + b * 8 + h * 4);
            const v4i lt = p < low[h];
            low[h] = (v4f)(((v4i)p & lt) | ((v4i)low[h] & ~lt));
            at[h] = (lt & (v4i){b, b, b, b}) | (~lt & at[h]);
        }
    }
    ptrdiff_t piv = -1;
    float least = INFINITY;
    for (int l = 0; l < 8; l++)
        if (low[l / 4][l % 4] < least) {
            least = low[l / 4][l % 4];
            piv = (ptrdiff_t)at[l / 4][l % 4] * 8 + l;
        }
    if (piv < 0)
        return winner(v, n, x);
    /* The exact candidates, in ascending order, from the pivot's L. */
    double *acts = v->acts;
    const double L = activation(v->centers + piv * m, v->rel + piv * m,
                                v->sums[piv], x, m, v->eps);
    const double g = cutoff(L), e = shrunk(v->eps);
    const double a = s->rrs * sqrt(xx) + s->err;
    ptrdiff_t best = piv;
    acts[piv] = L;
    for (ptrdiff_t j = 0; j < n; j += 8) {
        v2di no[4];
        if (ruled8(s, j, g, e, a, no))
            continue;
        for (ptrdiff_t i = j; i < j + 8 && i < n; i++) {
            if (no[(i - j) / 2][(i - j) % 2] || i == piv)
                continue;
            const double act = activation(v->centers + i * m,
                                          v->rel + i * m, v->sums[i], x, m,
                                          v->eps);
            if (isnan(act))
                return winner(v, n, x);
            acts[i] = act;
            if (act > acts[best] || (act == acts[best] && i < best))
                best = i;
        }
    }
    *partial = 1;
    return best;
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
    for (ptrdiff_t j = 0; sh && j < n; j++)
        if (j < k)
            shade(sh, v, j);
        else
            unshade(sh, j);
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

/*
 * The float formatter (som_format) writes the node vectors of a model file,
 * each double as Python's repr() writes it: the shortest digits that read
 * back as the same double, the nearest of them to it (ties to an even last
 * digit), written with an exponent below 1e-4 and from 1e16 up ("1e-05",
 * "1e+16"), "-0.0" for a negative zero. persistence._list over
 * float.__repr__ is its mirror, and the reference the tests compare it with.
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

/* The 128-bit product a * b: the low word, the high one into *hi. */
INLINE uint64_t mul128(uint64_t a, uint64_t b, uint64_t *hi)
{
#ifdef __SIZEOF_INT128__
    const u128 p = (u128)a * b;
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

/* The low word of the 128-bit (hi, lo) >> s, for 0 < s < 64. */
INLINE uint64_t shr128(uint64_t lo, uint64_t hi, int s)
{
    return hi << (64 - s) | lo >> s;
}

/* The bit length of 5^e (1 for e = 0), for the e a double reaches. */
INLINE int pow5bits(int e)
{
    return (int)(((uint32_t)e * 1217359) >> 19) + 1;
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

/*
 * Write the `rows` rows of m doubles at x into out, each as the JSON array
 * persistence._list writes at depth 3: "[", each value on a line of its own
 * after four spaces, all but the last followed by ",", and "]" on a line
 * after three spaces; "[]" for m = 0. ends[r] is the offset in out of the
 * end of row r. out must hold rows * (32 m + 16) bytes. Returns the length
 * written, or -1 at a value that is not finite, which JSON cannot hold.
 */
ptrdiff_t som_format(const double *x, ptrdiff_t rows, ptrdiff_t m, char *out,
                     int64_t *ends)
{
    char *s = out;
    for (ptrdiff_t r = 0; r < rows; r++) {
        *s++ = '[';
        for (ptrdiff_t c = 0; c < m; c++) {
            const double v = x[r * m + c];
            if (!isfinite(v))
                return -1;
            if (c)
                *s++ = ',';
            memcpy(s, "\n    ", 5);
            s = write_double(s + 5, v);
        }
        if (m) {
            memcpy(s, "\n   ", 4);
            s += 4;
        }
        *s++ = ']';
        ends[r] = s - out;
    }
    return s - out;
}
