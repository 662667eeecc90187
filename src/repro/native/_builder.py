"""cffi build recipe for the native fast-path kernels.

Out-of-line API mode: ``ffibuilder`` below is consumed either by the
conditional ``cffi_modules`` hook in ``setup.py`` (install-time build when
cffi is available in the build environment) or by
:func:`repro.native.build_native` (first-use build into the package
directory).  Importing this module only *parses* the recipe — nothing is
compiled until one of those entry points runs it, so environments without
cffi or a compiler never pay (or fail) at import time.

The C source replicates the Python fast paths **operation for operation**:

* ``rstream`` — the :class:`repro.utils.rng.StreamReplica` word-consumption
  discipline (raw-64 blocks, buffered 32-bit half-words, Lemire bounded
  draws, masked-rejection intervals) over raw PCG64 words that stay drawn
  *in Python* through the ``_repro_stream_refill`` callback, preserving the
  generator draw-order contract;
* ``rledger`` — the :class:`repro.mesh.batch.LoadLedger` scalar tier:
  O(1) corner-flip geometry, the graded-power scalar replica, NumPy's
  pairwise summation (sequential < 8, the 8-accumulator 128-block, the
  halving recursion above it), ordered path-swap deltas, and the
  sorted flip-corner / link→comms index maintenance;
* ``rsa`` / ``repro_tabu_candidates`` — the SA chain loop and the TABU
  candidate machinery of :mod:`repro.heuristics`, float-for-float
  (Metropolis clamp, cooling order, stable candidate sort);
* ``rnoc`` — the :class:`repro.noc.engine.ArrayFlitSimulator` cycle loop
  (ejection before traversal, ascending-link / RR-VC / flow-order
  arbitration, budget accrual and idle cap, wormhole ownership, deadlock
  window) over flat numpy state passed by pointer.

``-ffp-contract=off`` is load-bearing: gcc's default ``-ffp-contract=fast``
would fuse ``a * b + c`` into FMAs and break the bit-identity contract the
probe corpora pin.  See ``docs/performance.md`` §7.
"""

from __future__ import annotations

from cffi import FFI

# struct layouts shared verbatim between the cdef (so Python can allocate
# and fill them) and the C source (which cffi does NOT copy the cdef into)
STRUCTS = r"""
typedef struct {
    uint64_t *buf;
    int64_t cap, i, n;
    int32_t has32, err;
    uint32_t u32, _pad;
    uint64_t key;
} rstream;

typedef struct {
    int64_t num_comms, num_links, q, total_len, lc_cap;
    const int64_t *starts;
    const int64_t *lengths;
    const int64_t *cstarts;
    const int64_t *pstarts;
    const int64_t *src_u;
    const int64_t *src_v;
    const int64_t *su;
    const int64_t *sv;
    const int64_t *vbase;
    const int64_t *hbase;
    const double *rates;
    uint8_t *moves;
    int64_t *links;
    int64_t *cumv;
    int64_t *pos;
    int64_t *pos_len;
    int32_t *lc;
    int32_t *lc_len;
    double *loads;
    double *plist;
    double cost;
    const double *freqs;
    const double *lvl;
    const double *scale;
    const uint8_t *dead;
    double pen0, bw, thresh;
    int64_t *scr_links;
    int64_t *scr_dlid;
    double *scr_dval;
    uint8_t *scr_alive;
    int64_t *scr_clid;
    double *scr_cval;
    double *scr_news;
    double *scr_olds;
    int32_t err, _pad;
} rledger;

typedef struct {
    rledger *L;
    rstream *st;
    const int64_t *movable;
    int64_t n_mov, iterations, it;
    double temp, cooling, resample_prob;
    double best_cost;
    uint8_t *best_moves;
    int64_t pending_ci;
    int32_t awaiting, _pad;
} rsa;

typedef struct {
    int64_t nf, nvc, bf, pf, L, window, cycles, warmup;
    int32_t collect, _pad;
    const int64_t *arrivals;
    const int64_t *pkt_ptr;
    const int64_t *pkt_times;
    const int64_t *first_cl;
    const int64_t *next_of;
    const int64_t *feeder_ptr;
    const int64_t *feeder_fi;
    const int64_t *feeder_up;
    const double *speed_l;
    const double *cap_l;
    int64_t *bflow;
    int64_t *bpk;
    int64_t *bk;
    int64_t *bt;
    int64_t *bnext;
    int64_t *hd;
    int64_t *cnt;
    int64_t *ow_f;
    int64_t *ow_p;
    int64_t *iq_head;
    int64_t *iq_k;
    int64_t *iq_n;
    double *budget;
    int64_t *rr;
    int64_t *feed;
    int64_t *occ;
    int64_t *fwd;
    int64_t *injected;
    int64_t *delivered;
    int64_t *delivered_pkts;
    double *latency_sum;
    int64_t *rec_fi;
    int64_t *rec_inj;
    int64_t *rec_done;
    int64_t rec_cap, rec_n;
    int64_t total_delivered, t_final;
    int32_t deadlocked, err;
} rnoc;
"""

CDEF = STRUCTS + r"""
double repro_stream_random(rstream *s);
int64_t repro_stream_integers(rstream *s, int64_t n);
int64_t repro_stream_interval(rstream *s, uint64_t mx);

double repro_flip_dcost(rledger *L, int64_t ci, int64_t j);
void repro_commit_flip(rledger *L, int64_t ci, int64_t j, double dcost);
double repro_resample_eval(rledger *L, int64_t ci, const uint8_t *mv,
                           int64_t plen, int32_t commit);
double repro_pairwise_sum(const double *a, int64_t n);

int repro_sa_run(rsa *sa, const uint8_t *proposal, int64_t plen);
int64_t repro_tabu_candidates(rledger *L, rstream *st,
                              const int64_t *hot, int64_t n_hot,
                              const int64_t *movable, int64_t n_mov,
                              int64_t neighborhood,
                              int64_t *cci, int64_t *cj, double *dcosts,
                              int64_t *order, uint8_t *seen);

int repro_noc_run(rnoc *R);

extern "Python" int _repro_stream_refill(rstream *);
"""

C_SOURCE = r"""
#include <stdint.h>
#include <string.h>
#include <math.h>
""" + STRUCTS + r"""
/* extern "Python" callback — cffi emits the definition after this source */
static int _repro_stream_refill(rstream *);

/* error codes mirrored by repro.native (keep in sync) */
#define RERR_NEGLOAD 1
#define RERR_RNG     2
#define RERR_STATE   3

/* ================================================================== */
/* rstream: StreamReplica word-consumption discipline over raw PCG64   */
/* words refilled from Python (the RNG itself never leaves Python).    */
/* ================================================================== */

static uint64_t rs_raw64(rstream *s) {
    if (s->i >= s->n) {
        if (_repro_stream_refill(s) != 0) {
            s->err = RERR_RNG;
            return 0;
        }
    }
    return s->buf[s->i++];
}

/* numpy's next_uint32 on a 64-bit generator: low half first, high half
   buffered for the next 32-bit draw */
static uint32_t rs_raw32(rstream *s) {
    uint64_t v;
    if (s->has32) {
        s->has32 = 0;
        return s->u32;
    }
    v = rs_raw64(s);
    s->has32 = 1;
    s->u32 = (uint32_t)(v >> 32);
    return (uint32_t)(v & 0xFFFFFFFFu);
}

/* Generator.random(): (word >> 11) * 2**-53, same constant as numpy */
static double rs_random(rstream *s) {
    return (double)(rs_raw64(s) >> 11) * 1.1102230246251565e-16;
}

/* scalar Generator.integers(n) for int64 dtype: Lemire rejection,
   32-bit kernel (half-words) for bounds below 2**32 */
static int64_t rs_integers(rstream *s, int64_t n) {
    uint64_t rng_ = (uint64_t)(n - 1);
    if (n <= 1)
        return 0;
    if (rng_ <= 0xFFFFFFFFu) {
        uint64_t rng_excl = rng_ + 1;
        uint64_t m = (uint64_t)rs_raw32(s) * rng_excl;
        uint64_t leftover = m & 0xFFFFFFFFu;
        if (leftover < rng_excl) {
            uint64_t threshold = (0xFFFFFFFFu - rng_) % rng_excl;
            while (leftover < threshold) {
                m = (uint64_t)rs_raw32(s) * rng_excl;
                leftover = m & 0xFFFFFFFFu;
            }
        }
        return (int64_t)(m >> 32);
    }
    if (rng_ == 0xFFFFFFFFFFFFFFFFULL)
        return (int64_t)rs_raw64(s);
    {
        uint64_t rng_excl = rng_ + 1;
        __uint128_t m = (__uint128_t)rs_raw64(s) * rng_excl;
        uint64_t leftover = (uint64_t)m;
        if (leftover < rng_excl) {
            uint64_t threshold =
                (0xFFFFFFFFFFFFFFFFULL - rng_) % rng_excl;
            while (leftover < threshold) {
                m = (__uint128_t)rs_raw64(s) * rng_excl;
                leftover = (uint64_t)m;
            }
        }
        return (int64_t)(uint64_t)(m >> 64);
    }
}

/* numpy's masked-rejection random_interval (Fisher-Yates kernel) */
static int64_t rs_interval(rstream *s, uint64_t mx) {
    uint64_t mask = mx;
    if (mx == 0)
        return 0;
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    mask |= mask >> 32;
    if (mx <= 0xFFFFFFFFu) {
        for (;;) {
            uint64_t v = (uint64_t)rs_raw32(s) & mask;
            if (v <= mx)
                return (int64_t)v;
            if (s->err)
                return 0;
        }
    }
    for (;;) {
        uint64_t v = rs_raw64(s) & mask;
        if (v <= mx)
            return (int64_t)v;
        if (s->err)
            return 0;
    }
}

double repro_stream_random(rstream *s) { return rs_random(s); }
int64_t repro_stream_integers(rstream *s, int64_t n) {
    return rs_integers(s, n);
}
int64_t repro_stream_interval(rstream *s, uint64_t mx) {
    return rs_interval(s, mx);
}

/* ================================================================== */
/* pairwise summation: np.sum over a contiguous double vector, bit for */
/* bit — sequential < 8, the unrolled 8-accumulator block to 128, the  */
/* halving recursion (n2 = n/2 rounded down to a multiple of 8) above. */
/* ================================================================== */

static double pairwise_sum(const double *a, int64_t n) {
    if (n < 8) {
        double r;
        int64_t i;
        if (n == 0)
            return 0.0;
        r = a[0];
        for (i = 1; i < n; i++)
            r += a[i];
        return r;
    }
    if (n <= 128) {
        double r0 = a[0], r1 = a[1], r2 = a[2], r3 = a[3];
        double r4 = a[4], r5 = a[5], r6 = a[6], r7 = a[7];
        double res;
        int64_t i = 8, stop = n - (n % 8);
        while (i < stop) {
            r0 += a[i];
            r1 += a[i + 1];
            r2 += a[i + 2];
            r3 += a[i + 3];
            r4 += a[i + 4];
            r5 += a[i + 5];
            r6 += a[i + 6];
            r7 += a[i + 7];
            i += 8;
        }
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
        while (i < n) {
            res += a[i];
            i += 1;
        }
        return res;
    }
    {
        int64_t n2 = n / 2;
        n2 -= n2 % 8;
        return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
    }
}

double repro_pairwise_sum(const double *a, int64_t n) {
    return pairwise_sum(a, n);
}

/* ================================================================== */
/* rledger: the LoadLedger scalar tier                                 */
/* ================================================================== */

#define MV_V 'V'

/* _link_power_scalar: one link's graded power, same floats as the
   link_power_graded element */
static double lp_scalar(const rledger *L, double load, int64_t lid) {
    if (!(load > 0.0))
        return 0.0;
    if (L->dead != NULL && L->dead[lid])
        return L->pen0 * (1.0 + load / L->bw);
    if (load > L->thresh)
        return L->pen0 * (1.0 + (load - L->bw) / L->bw);
    {
        double capped = (load < L->bw) ? load : L->bw;
        const double *freqs = L->freqs;
        int64_t k = 0;
        double base;
        while (freqs[k] < capped)
            k++;
        base = L->lvl[k];
        if (L->scale != NULL)
            base = base * L->scale[lid];
        return base;
    }
}

/* O(1) corner-flip geometry (replacement links of hops j, j+1) */
static void flip_new_links(const rledger *L, int64_t ci, int64_t j,
                           int64_t *n1, int64_t *n2) {
    const uint8_t *mv = L->moves + L->starts[ci];
    int64_t cv = L->cumv[L->cstarts[ci] + j];
    int64_t su = L->su[ci], sv = L->sv[ci];
    int64_t u = L->src_u[ci] + su * cv;
    int64_t v = L->src_v[ci] + sv * (j - cv);
    int64_t q = L->q;
    uint8_t a = mv[j], b = mv[j + 1];
    if (b == MV_V) {
        *n1 = L->vbase[ci] + u * q + v;
        u += su;
    } else {
        *n1 = L->hbase[ci] + u * (q - 1) + v;
        v += sv;
    }
    if (a == MV_V)
        *n2 = L->vbase[ci] + u * q + v;
    else
        *n2 = L->hbase[ci] + u * (q - 1) + v;
}

double repro_flip_dcost(rledger *L, int64_t ci, int64_t j) {
    const int64_t *lks = L->links + L->starts[ci];
    int64_t o1 = lks[j], o2 = lks[j + 1], n1, n2;
    double r = L->rates[ci];
    double w1, w2, w3, w4, p1, p2, p3, p4;
    flip_new_links(L, ci, j, &n1, &n2);
    w1 = L->loads[o1] - r;
    w2 = L->loads[o2] - r;
    if (w1 < -1e-9 || w2 < -1e-9) {
        L->err = RERR_NEGLOAD;
        return 0.0;
    }
    if (w1 < 0.0)
        w1 = 0.0;
    if (w2 < 0.0)
        w2 = 0.0;
    w3 = L->loads[n1] + r;
    w4 = L->loads[n2] + r;
    p1 = lp_scalar(L, w1, o1);
    p2 = lp_scalar(L, w2, o2);
    p3 = lp_scalar(L, w3, n1);
    p4 = lp_scalar(L, w4, n2);
    return (p1 + p2 + p3 + p4) -
           (L->plist[o1] + L->plist[o2] + L->plist[n1] + L->plist[n2]);
}

/* link→comms index: sorted insert / remove (optional: lc == NULL skips) */
static void lc_add(rledger *L, int64_t lid, int64_t ci) {
    int32_t *row;
    int32_t n, idx;
    if (L->lc == NULL)
        return;
    row = L->lc + lid * L->lc_cap;
    n = L->lc_len[lid];
    if ((int64_t)n >= L->lc_cap) {
        L->err = RERR_STATE;
        return;
    }
    idx = 0;
    while (idx < n && row[idx] < (int32_t)ci)
        idx++;
    if (idx < n && row[idx] == (int32_t)ci)
        return;
    memmove(row + idx + 1, row + idx, (size_t)(n - idx) * sizeof(int32_t));
    row[idx] = (int32_t)ci;
    L->lc_len[lid] = n + 1;
}

static void lc_discard(rledger *L, int64_t lid, int64_t ci) {
    int32_t *row;
    int32_t n, idx;
    if (L->lc == NULL)
        return;
    row = L->lc + lid * L->lc_cap;
    n = L->lc_len[lid];
    idx = 0;
    while (idx < n && row[idx] != (int32_t)ci)
        idx++;
    if (idx == n)
        return;
    memmove(row + idx, row + idx + 1,
            (size_t)(n - idx - 1) * sizeof(int32_t));
    L->lc_len[lid] = n - 1;
}

/* _toggle_corner: resync corner k's membership in the sorted pos index */
static void toggle_corner(rledger *L, int64_t ci, int64_t k) {
    const uint8_t *mv = L->moves + L->starts[ci];
    int64_t *pos = L->pos + L->pstarts[ci];
    int64_t n = L->pos_len[ci];
    int64_t idx = 0;
    int present;
    while (idx < n && pos[idx] < k)
        idx++;
    present = (idx < n && pos[idx] == k);
    if (mv[k] != mv[k + 1]) {
        if (!present) {
            memmove(pos + idx + 1, pos + idx,
                    (size_t)(n - idx) * sizeof(int64_t));
            pos[idx] = k;
            L->pos_len[ci] = n + 1;
        }
    } else if (present) {
        memmove(pos + idx, pos + idx + 1,
                (size_t)(n - idx - 1) * sizeof(int64_t));
        L->pos_len[ci] = n - 1;
    }
}

/* _bump: one link's load change, clamped, with the power cache refresh */
static void bump(rledger *L, int64_t lid, double d) {
    double val = L->loads[lid] + d;
    if (val < 0.0)
        val = 0.0;
    L->loads[lid] = val;
    L->plist[lid] = lp_scalar(L, val, lid);
}

void repro_commit_flip(rledger *L, int64_t ci, int64_t j, double dcost) {
    uint8_t *mv = L->moves + L->starts[ci];
    int64_t *lks = L->links + L->starts[ci];
    int64_t *cum = L->cumv + L->cstarts[ci];
    int64_t len = L->lengths[ci];
    int64_t o1 = lks[j], o2 = lks[j + 1], n1, n2;
    double r = L->rates[ci];
    uint8_t tmp;
    flip_new_links(L, ci, j, &n1, &n2);
    tmp = mv[j];
    mv[j] = mv[j + 1];
    mv[j + 1] = tmp;
    lks[j] = n1;
    lks[j + 1] = n2;
    lc_discard(L, o1, ci);
    lc_discard(L, o2, ci);
    lc_add(L, n1, ci);
    lc_add(L, n2, ci);
    cum[j + 1] = cum[j] + ((mv[j] == MV_V) ? 1 : 0);
    if (j > 0)
        toggle_corner(L, ci, j - 1);
    if (j + 2 < len)
        toggle_corner(L, ci, j + 1);
    bump(L, o1, -r);
    bump(L, o2, -r);
    bump(L, n1, r);
    bump(L, n2, r);
    L->cost += dcost;
}

/* _trusted_links: link ids of a trusted move string */
static void trusted_links(const rledger *L, int64_t ci, const uint8_t *mv,
                          int64_t len, int64_t *out) {
    int64_t u = L->src_u[ci], v = L->src_v[ci];
    int64_t su = L->su[ci], sv = L->sv[ci];
    int64_t vb = L->vbase[ci], hb = L->hbase[ci];
    int64_t q = L->q, jj;
    for (jj = 0; jj < len; jj++) {
        if (mv[jj] == MV_V) {
            out[jj] = vb + u * q + v;
            u += su;
        } else {
            out[jj] = hb + u * (q - 1) + v;
            v += sv;
        }
    }
}

/* path_swap_deltas: ordered dict semantics — in-place updates keep the
   entry's position, deletions remove it from the order, re-insertions
   append.  Entries carry an alive flag; compaction happens at grading. */
static int64_t swap_deltas(rledger *L, const int64_t *oldl, int64_t n_old,
                           const int64_t *newl, int64_t n_new, double rate) {
    int64_t *dlid = L->scr_dlid;
    double *dval = L->scr_dval;
    uint8_t *alive = L->scr_alive;
    int64_t n = 0, i, k;
    for (i = 0; i < n_old; i++) {
        int64_t lid = oldl[i];
        for (k = 0; k < n; k++)
            if (alive[k] && dlid[k] == lid)
                break;
        if (k < n) {
            dval[k] = dval[k] - rate;
        } else {
            dlid[n] = lid;
            dval[n] = 0.0 - rate;
            alive[n] = 1;
            n++;
        }
    }
    for (i = 0; i < n_new; i++) {
        int64_t lid = newl[i];
        double d;
        for (k = 0; k < n; k++)
            if (alive[k] && dlid[k] == lid)
                break;
        d = ((k < n) ? dval[k] : 0.0) + rate;
        if (d == 0.0 && k < n) {
            alive[k] = 0;
        } else if (k < n) {
            dval[k] = d;
        } else {
            dlid[n] = lid;
            dval[n] = d;
            alive[n] = 1;
            n++;
        }
    }
    return n;
}

/* grade the (compacted) delta list: olds from the power cache, news via
   the scalar replica, pairwise sums in entry order — exactly
   _graded_delta_scalar (and graded_power_delta, whose old powers are the
   same floats by the plist invariant) for any delta size under a
   discrete model */
static double grade_deltas(rledger *L, int64_t n_entries, int64_t *out_k) {
    int64_t *dlid = L->scr_dlid;
    double *dval = L->scr_dval;
    uint8_t *alive = L->scr_alive;
    int64_t k = 0, i;
    for (i = 0; i < n_entries; i++) {
        int64_t lid;
        double nw;
        if (!alive[i] || dval[i] == 0.0)
            continue;
        lid = dlid[i];
        nw = L->loads[lid] + dval[i];
        if (nw < -1e-9) {
            L->err = RERR_NEGLOAD;
            return 0.0;
        }
        if (nw < 0.0)
            nw = 0.0;
        L->scr_olds[k] = L->plist[lid];
        L->scr_news[k] = lp_scalar(L, nw, lid);
        L->scr_clid[k] = lid;
        L->scr_cval[k] = dval[i];
        k++;
    }
    *out_k = k;
    return pairwise_sum(L->scr_news, k) - pairwise_sum(L->scr_olds, k);
}

static void commit_resample(rledger *L, int64_t ci, const uint8_t *mv,
                            const int64_t *newl, int64_t n_deltas,
                            double dcost) {
    int64_t st = L->starts[ci];
    int64_t len = L->lengths[ci];
    int64_t *lks = L->links + st;
    int64_t *pos = L->pos + L->pstarts[ci];
    int64_t *cum = L->cumv + L->cstarts[ci];
    int64_t i, acc, np;
    for (i = 0; i < len; i++)
        lc_discard(L, lks[i], ci);
    for (i = 0; i < len; i++)
        lc_add(L, newl[i], ci);
    memcpy(L->moves + st, mv, (size_t)len);
    memcpy(lks, newl, (size_t)len * sizeof(int64_t));
    np = 0;
    for (i = 0; i < len - 1; i++)
        if (mv[i] != mv[i + 1])
            pos[np++] = i;
    L->pos_len[ci] = np;
    acc = 0;
    for (i = 0; i < len; i++) {
        if (mv[i] == MV_V)
            acc += 1;
        cum[i + 1] = acc;
    }
    for (i = 0; i < n_deltas; i++)
        bump(L, L->scr_clid[i], L->scr_cval[i]);
    L->cost += dcost;
}

double repro_resample_eval(rledger *L, int64_t ci, const uint8_t *mv,
                           int64_t plen, int32_t commit) {
    int64_t len = L->lengths[ci];
    int64_t n_ent, k;
    double dcost;
    if (plen != len) {
        L->err = RERR_STATE;
        return 0.0;
    }
    trusted_links(L, ci, mv, len, L->scr_links);
    n_ent = swap_deltas(L, L->links + L->starts[ci], len, L->scr_links,
                        len, L->rates[ci]);
    dcost = grade_deltas(L, n_ent, &k);
    if (L->err)
        return 0.0;
    if (commit)
        commit_resample(L, ci, mv, L->scr_links, k, dcost);
    return dcost;
}

/* ================================================================== */
/* SA chain driver: the _anneal loop with a resume protocol — resample */
/* proposals are drawn in Python (CommDag.random_moves over the shared */
/* rstream), so the driver returns 1 (= need proposal) and is re-      */
/* entered with the proposal bytes (plen == -1 means "equal to the     */
/* current path": cooling only, no evaluation).                        */
/* ================================================================== */

static void sa_step_tail(rsa *sa) {
    rledger *L = sa->L;
    if (L->cost < sa->best_cost) {
        sa->best_cost = L->cost;
        memcpy(sa->best_moves, L->moves, (size_t)L->total_len);
    }
    sa->temp *= sa->cooling;
    sa->it += 1;
}

int repro_sa_run(rsa *sa, const uint8_t *proposal, int64_t plen) {
    rledger *L = sa->L;
    rstream *st = sa->st;
    if (sa->awaiting) {
        int64_t ci = sa->pending_ci;
        sa->awaiting = 0;
        if (plen == -1) {
            /* proposal equals the current path: cooling only */
            sa->temp *= sa->cooling;
            sa->it += 1;
        } else {
            double dcost = repro_resample_eval(L, ci, proposal, plen, 0);
            int accept;
            if (L->err)
                return -1;
            accept = (dcost <= 0.0);
            if (!accept) {
                double a = dcost / fmax(sa->temp, 1e-300);
                if (a > 700.0)
                    a = 700.0;
                accept = (rs_random(st) < exp(-a));
                if (st->err)
                    return -1;
            }
            if (accept) {
                int64_t k = 0, n_ent;
                /* re-evaluate with commit: same state, same floats */
                trusted_links(L, ci, proposal, plen, L->scr_links);
                n_ent = swap_deltas(L, L->links + L->starts[ci], plen,
                                    L->scr_links, plen, L->rates[ci]);
                grade_deltas(L, n_ent, &k);
                if (L->err)
                    return -1;
                commit_resample(L, ci, proposal, L->scr_links, k, dcost);
            }
            sa_step_tail(sa);
        }
    }
    while (sa->it < sa->iterations) {
        int64_t ci = sa->movable[rs_integers(st, sa->n_mov)];
        double u = rs_random(st);
        if (st->err)
            return -1;
        if (u < sa->resample_prob) {
            sa->pending_ci = ci;
            sa->awaiting = 1;
            return 1;
        }
        {
            int64_t pn = L->pos_len[ci];
            int64_t j;
            double dcost;
            int accept;
            if (pn == 0) {
                sa->temp *= sa->cooling;
                sa->it += 1;
                continue;
            }
            j = (L->pos + L->pstarts[ci])[rs_integers(st, pn)];
            if (st->err)
                return -1;
            dcost = repro_flip_dcost(L, ci, j);
            if (L->err)
                return -1;
            accept = (dcost <= 0.0);
            if (!accept) {
                double a = dcost / fmax(sa->temp, 1e-300);
                if (a > 700.0)
                    a = 700.0;
                accept = (rs_random(st) < exp(-a));
                if (st->err)
                    return -1;
            }
            if (accept)
                repro_commit_flip(L, ci, j, dcost);
            sa_step_tail(sa);
        }
    }
    return 0;
}

/* ================================================================== */
/* TABU candidate kernel: hot-link expansion + random exploration      */
/* slice + scalar grading + stable ascending argsort, exactly          */
/* TabuRouting._best_candidate up to the (Python-side) tabu walk.      */
/* ================================================================== */

int64_t repro_tabu_candidates(rledger *L, rstream *st,
                              const int64_t *hot, int64_t n_hot,
                              const int64_t *movable, int64_t n_mov,
                              int64_t neighborhood,
                              int64_t *cci, int64_t *cj, double *dcosts,
                              int64_t *order, uint8_t *seen) {
    int64_t nc = 0, h, i;
    memset(seen, 0, (size_t)(L->total_len - L->num_comms));
    for (h = 0; h < n_hot; h++) {
        int64_t lid = hot[h];
        const int32_t *row = L->lc + lid * L->lc_cap;
        int32_t cn = L->lc_len[lid], tix;
        for (tix = 0; tix < cn; tix++) {
            int64_t ci = (int64_t)row[tix];
            const uint8_t *mv = L->moves + L->starts[ci];
            const int64_t *lks = L->links + L->starts[ci];
            int64_t len = L->lengths[ci];
            int64_t k = 0, jj;
            while (k < len && lks[k] != lid)
                k++;
            if (k == len) {
                L->err = RERR_STATE;
                return -1;
            }
            for (jj = k - 1; jj <= k; jj++) {
                if (jj >= 0 && jj < len - 1 && mv[jj] != mv[jj + 1]) {
                    int64_t slot = L->pstarts[ci] + jj;
                    if (!seen[slot]) {
                        seen[slot] = 1;
                        cci[nc] = ci;
                        cj[nc] = jj;
                        nc++;
                    }
                }
            }
            if (nc >= neighborhood)
                break;
        }
        if (nc >= neighborhood)
            break;
    }
    {
        int64_t attempts = 0, max_attempts = 4 * neighborhood;
        while (nc < neighborhood && attempts < max_attempts) {
            int64_t ci, pn;
            attempts++;
            ci = movable[rs_integers(st, n_mov)];
            pn = L->pos_len[ci];
            if (pn) {
                int64_t jj = (L->pos + L->pstarts[ci])[rs_integers(st, pn)];
                int64_t slot = L->pstarts[ci] + jj;
                if (!seen[slot]) {
                    seen[slot] = 1;
                    cci[nc] = ci;
                    cj[nc] = jj;
                    nc++;
                }
            }
            if (st->err)
                return -1;
        }
    }
    for (i = 0; i < nc; i++) {
        dcosts[i] = repro_flip_dcost(L, cci[i], cj[i]);
        if (L->err)
            return -1;
    }
    /* stable insertion argsort ascending == np.argsort(kind="stable") */
    for (i = 0; i < nc; i++)
        order[i] = i;
    for (i = 1; i < nc; i++) {
        int64_t key = order[i];
        double kd = dcosts[key];
        int64_t j2 = i - 1;
        while (j2 >= 0 && dcosts[order[j2]] > kd) {
            order[j2 + 1] = order[j2];
            j2--;
        }
        order[j2 + 1] = key;
    }
    return nc;
}

/* ================================================================== */
/* rnoc: the ArrayFlitSimulator cycle loop, verbatim                   */
/* ================================================================== */

int repro_noc_run(rnoc *R) {
    const int64_t nf = R->nf, nvc = R->nvc, bf = R->bf, pf = R->pf;
    const int64_t L = R->L, cycles = R->cycles, warmup = R->warmup;
    const int64_t pf_last = pf - 1, window = R->window;
    const int collect = R->collect;
    const int64_t *arrivals = R->arrivals;
    const int64_t *pkt_ptr = R->pkt_ptr;
    const int64_t *pkt_times = R->pkt_times;
    const int64_t *first_cl = R->first_cl;
    const int64_t *next_of = R->next_of;
    const int64_t *feeder_ptr = R->feeder_ptr;
    const int64_t *feeder_fi = R->feeder_fi;
    const int64_t *feeder_up = R->feeder_up;
    const double *speed_l = R->speed_l;
    const double *cap_l = R->cap_l;
    int64_t *bflow = R->bflow, *bpk = R->bpk, *bk = R->bk, *bt = R->bt;
    int64_t *bnext = R->bnext, *hd = R->hd, *cnt = R->cnt;
    int64_t *ow_f = R->ow_f, *ow_p = R->ow_p;
    int64_t *iq_head = R->iq_head, *iq_k = R->iq_k, *iq_n = R->iq_n;
    double *budget = R->budget;
    int64_t *rr = R->rr, *feed = R->feed, *occ = R->occ, *fwd = R->fwd;
    int64_t *injected = R->injected, *delivered = R->delivered;
    int64_t *delivered_pkts = R->delivered_pkts;
    double *latency_sum = R->latency_sum;
    int64_t in_flight = 0, idle_cycles = 0, total_delivered = 0;
    int deadlocked = 0;
    int64_t t = 0;

    for (t = 0; t < cycles; t++) {
        int measuring = (t >= warmup);
        int progress = 0;
        int64_t fi, cl, vc;

        /* 1) arrivals (precomputed schedule, ascending flow order) */
        for (fi = 0; fi < nf; fi++) {
            int64_t n = arrivals[fi * cycles + t];
            int64_t add;
            if (!n)
                continue;
            add = n * pf;
            iq_n[fi] += add;
            feed[first_cl[fi]] += add;
            in_flight += add;
            if (measuring)
                injected[fi] += add;
        }

        /* 2) ejection: drain head flits whose next hop is -1 */
        for (cl = 0; cl < L; cl++) {
            int64_t b0;
            if (!occ[cl])
                continue;
            b0 = cl * nvc;
            for (vc = 0; vc < nvc; vc++) {
                int64_t b = b0 + vc;
                int64_t c = cnt[b];
                int64_t h, sb;
                if (!c)
                    continue;
                h = hd[b];
                sb = b * bf;
                while (c && bnext[sb + h] == -1) {
                    int64_t s = sb + h;
                    int64_t f2 = bflow[s];
                    int64_t k = bk[s];
                    int tail;
                    h += 1;
                    if (h == bf)
                        h = 0;
                    c -= 1;
                    progress = 1;
                    occ[cl] -= 1;
                    in_flight -= 1;
                    tail = (k == pf_last);
                    if (tail && ow_f[b] == f2 && ow_p[b] == bpk[s])
                        ow_f[b] = -1;
                    if (measuring) {
                        delivered[f2] += 1;
                        total_delivered += 1;
                        if (tail) {
                            delivered_pkts[f2] += 1;
                            latency_sum[f2] += (double)(t - bt[s]);
                            if (collect) {
                                if (R->rec_n >= R->rec_cap) {
                                    R->err = RERR_STATE;
                                    return -1;
                                }
                                R->rec_fi[R->rec_n] = f2;
                                R->rec_inj[R->rec_n] = bt[s];
                                R->rec_done[R->rec_n] = t;
                                R->rec_n += 1;
                            }
                        }
                    }
                }
                hd[b] = h;
                cnt[b] = c;
            }
        }

        /* 3) traversal: budget accrual + wormhole RR arbitration */
        for (cl = 0; cl < L; cl++) {
            double bdg = budget[cl] + speed_l[cl];
            double cap;
            if (bdg >= 1.0 && feed[cl]) {
                int64_t b0 = cl * nvc;
                for (;;) {
                    int64_t start = rr[cl];
                    int moved = 0;
                    int64_t off;
                    for (off = 0; off < nvc; off++) {
                        int64_t v2 = start + off;
                        int64_t b, c_b, of, fp, fe, x;
                        if (v2 >= nvc)
                            v2 -= nvc;
                        b = b0 + v2;
                        c_b = cnt[b];
                        if (c_b >= bf)
                            continue;
                        of = ow_f[b];
                        fp = feeder_ptr[b];
                        fe = feeder_ptr[b + 1];
                        for (x = fp; x < fe; x++) {
                            int64_t f2 = feeder_fi[x];
                            int64_t up = feeder_up[x];
                            int64_t pk, k, us, ub = -1, cu = 0;
                            int tail;
                            int64_t tstamp, s, nx, vcn;
                            if (up < 0) {
                                if (!iq_n[f2])
                                    continue;
                                pk = iq_head[f2];
                                k = iq_k[f2];
                                us = -1;
                            } else {
                                ub = up * nvc + v2;
                                cu = cnt[ub];
                                if (!cu)
                                    continue;
                                us = ub * bf + hd[ub];
                                if (bflow[us] != f2)
                                    continue;
                                pk = bpk[us];
                                k = bk[us];
                            }
                            if (of >= 0) {
                                if (f2 != of || pk != ow_p[b])
                                    continue;
                            } else if (k != 0) {
                                /* only a head flit claims a free channel */
                                continue;
                            }
                            tail = (k == pf_last);
                            if (us < 0) {
                                int64_t kk = k + 1;
                                tstamp = pkt_times[pkt_ptr[f2] + pk];
                                if (kk == pf) {
                                    iq_head[f2] = pk + 1;
                                    iq_k[f2] = 0;
                                } else {
                                    iq_k[f2] = kk;
                                }
                                iq_n[f2] -= 1;
                            } else {
                                int64_t hu = hd[ub] + 1;
                                tstamp = bt[us];
                                hd[ub] = (hu == bf) ? 0 : hu;
                                cnt[ub] = cu - 1;
                                occ[up] -= 1;
                                if (tail && ow_f[ub] == f2 &&
                                    ow_p[ub] == pk)
                                    ow_f[ub] = -1;
                            }
                            s = b * bf + hd[b] + c_b;
                            if (s >= b * bf + bf)
                                s -= bf;
                            bflow[s] = f2;
                            bpk[s] = pk;
                            bk[s] = k;
                            bt[s] = tstamp;
                            nx = next_of[f2 * L + cl];
                            bnext[s] = nx;
                            cnt[b] = c_b + 1;
                            occ[cl] += 1;
                            feed[cl] -= 1;
                            if (nx >= 0)
                                feed[nx] += 1;
                            if (tail) {
                                ow_f[b] = -1;
                            } else {
                                ow_f[b] = f2;
                                ow_p[b] = pk;
                            }
                            vcn = v2 + 1;
                            rr[cl] = (vcn == nvc) ? 0 : vcn;
                            moved = 1;
                            break;
                        }
                        if (moved)
                            break;
                    }
                    if (!moved)
                        break;
                    bdg -= 1.0;
                    progress = 1;
                    if (measuring)
                        fwd[cl] += 1;
                    if (bdg < 1.0)
                        break;
                }
            }
            /* cap idle budget so long-idle links can't burst */
            cap = cap_l[cl];
            budget[cl] = (bdg > cap) ? cap : bdg;
        }

        if (progress || !in_flight) {
            idle_cycles = 0;
        } else {
            idle_cycles += 1;
            if (idle_cycles >= window) {
                deadlocked = 1;
                break;
            }
        }
    }

    R->t_final = deadlocked ? t : cycles - 1;
    R->total_delivered = total_delivered;
    R->deadlocked = deadlocked;
    return 0;
}
"""

ffibuilder = FFI()
ffibuilder.cdef(CDEF)
ffibuilder.set_source(
    "repro.native._native",
    C_SOURCE,
    # -ffp-contract=off: gcc defaults to contracting a*b+c into FMAs,
    # which would break the per-operation IEEE rounding the bit-identity
    # contract depends on; -O2 alone does not imply it off for gcc.
    extra_compile_args=["-O2", "-ffp-contract=off"],
    libraries=["m"],
)

if __name__ == "__main__":  # pragma: no cover - manual/CI entry point
    ffibuilder.compile(verbose=True)
