"""Optional C engine that runs the whole of Algorithm 2.

``optimize_tam`` runs ``TAM_Optimization`` here for the default TestRail
cost model: the one-wire start solution (merge-down or free-wire
padding), the bottom-up, top-down and remaining-rail ``mergeTAMs`` loops
with their skip set and leftover redistribution, then ``coreReshuffle``.
Every step is pure integer work over flat arrays — per-rail InTest times
and per-group shift depths, the fixed ``cores × W_max`` InTest time
table, involved-rail bitmasks — so this module carries a small,
dependency-free C translation of the whole run (:func:`optimize`): one
call per optimizer run, with the same candidate order, the same
strict-``<`` selections and the same tie-breaks as the reference
Algorithm 2 of :mod:`repro.core.optimizer`, so the final architecture
and the ``optimizer.merges_tried``/``core_moves_tried``/
``wires_distributed`` counts are identical.  On top, it skips candidates
that provably cannot beat the incumbent (partner, exclusion and floor
pruning; ``optimizer.moves_pruned``), which never changes a selection.

The engine is optional and loaded by :mod:`repro.runtime.native`
(toggle ``REPRO_OPTIMIZER_CSCAN``): when it is unavailable, the SOC has
more than 64 cores (a rail's cores are one ``uint64`` mask) or a run
reports a hard error, the reference Algorithm 2 runs instead.

The C side sees dense core indices (ascending core id) and integer
arrays only; Python builds them (``optimizer.native_inputs``) and turns
the returned rail masks and widths into the
:class:`~repro.tam.testrail.TestRailArchitecture`.

The same library builds that InTest time table (:func:`time_table`, one
call per core and row of widths) for
:func:`repro.wrapper.timing.core_time_table`: LPT over the core's scan
chains, then the closed-form longest chain after filling in the wrapper
cells, with the values of the reference
:func:`repro.wrapper.design.design_wrapper`.
"""

from __future__ import annotations

import ctypes
from array import array
from types import SimpleNamespace

from repro.runtime.native import Engine, _addr

__all__ = ["COUNTERS", "ENGINE", "EngineError", "available", "optimize",
           "time_table"]

_SOURCE = r"""#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Static inputs of one run: per-core WOC counts, core-to-group CSR,
 * per-group pattern counts and ids, per-core InTest payload bits, and the
 * fixed (core, width) InTest time table -- `cap` (= W_max) widths per
 * core, T(core, w) at core * cap + w - 1.  A width outside 1..cap is a
 * hard error: reading it would land in another core's row. */
typedef struct {
    int64_t n_groups, capture, cap;
    const int64_t *table, *woc, *cg_off;
    const int32_t *cg_ids;
    const int64_t *patterns, *gids, *payload;
} rpr_in;

/* One architecture: rail r carries the cores of mask[r] (bit k = dense
 * core k) on w[r] wires, with InTest time tin[r] and its SI shift depth
 * per group in d[r * n_groups + g].  Rails keep the optimizer's order. */
typedef struct {
    int64_t R;
    uint64_t mask[64];
    int64_t w[64], tin[64];
    int64_t *d;
} rpr_st;

/* Scratch of one run: entry, schedule and critical-chain arrays of G
 * each, the rail order of rpr_order, per-destination bounds, the last
 * rpr_total's figures and the run's counts. */
typedef struct {
    int64_t *gb, *et, *eg, *ex, *sb, *se, *sg, *sx, *ord, *crit;
    int64_t *run_end, *save, *row;
    uint64_t *em, *run_mask;
    char *used;
    int64_t rank[64], bound[64];
    int64_t t_in, t_si, ns;
    int64_t *counts;
} rpr_ws;

/* counts[]: the optimizer.* counters plus movescan.moves_scored */
enum { N_MERGES, N_CORE_MOVES, N_PRUNED, N_WIRES, N_SCORED, N_COUNTS };

/* Add `core`'s SI shift depth on w wires to every group it feeds. */
static void rpr_add_depth(const rpr_in *in, int64_t core, int64_t w,
                          int64_t *row)
{
    const int64_t oc = in->woc[core];
    if (oc) {
        const int64_t d = (oc + w - 1) / w;
        for (int64_t k = in->cg_off[core]; k < in->cg_off[core + 1]; k++)
            row[in->cg_ids[k]] += d;
    }
}

/* Re-derive rail r's InTest time and depth row from its cores and width.
 * Returns 0, or -1 when the width is outside the table. */
static int64_t rpr_set_row(const rpr_in *in, rpr_st *s, int64_t r)
{
    const int64_t w = s->w[r];
    int64_t *row = s->d + r * in->n_groups;
    int64_t tin = 0;
    if (w < 1 || w > in->cap)
        return -1;
    for (int64_t g = 0; g < in->n_groups; g++)
        row[g] = 0;
    for (uint64_t m = s->mask[r]; m; m &= m - 1) {
        const int64_t core = __builtin_ctzll(m);
        rpr_add_depth(in, core, w, row);
        tin += in->table[core * in->cap + w - 1];
    }
    s->tin[r] = tin;
    return 0;
}

/* SI entries of R rails' depth rows: per group with any involved rail,
 * (time, rail mask, group id, group index) sorted by (-time, group id)
 * -- the Python scheduler's tie-break order -- plus every group's
 * bottleneck rail (first rail achieving the strict maximum) in gb. */
static int64_t rpr_groups(
    int64_t R, int64_t n_groups, int64_t capture,
    const int64_t *ld, const int64_t *patterns, const int64_t *gids,
    int64_t *gb, int64_t *et, uint64_t *em, int64_t *eg, int64_t *ex)
{
    int64_t ne = 0;
    for (int64_t g = 0; g < n_groups; g++) {
        int64_t best = 0, btn = -1;
        uint64_t mask = 0;
        for (int64_t r = 0; r < R; r++) {
            const int64_t d = ld[r * n_groups + g];
            if (d) {
                mask |= 1ULL << r;
                const int64_t t = patterns[g] * (d + capture);
                if (t > best) {
                    best = t;
                    btn = r;
                }
            }
        }
        gb[g] = btn;
        if (mask) {
            et[ne] = best;
            em[ne] = mask;
            eg[ne] = gids[g];
            ex[ne] = g;
            ne++;
        }
    }
    /* sort entries by (-time, group_id); keys are unique */
    for (int64_t i = 1; i < ne; i++) {
        const int64_t t = et[i], g = eg[i], x = ex[i];
        const uint64_t mk = em[i];
        int64_t j = i - 1;
        while (j >= 0 && (et[j] < t || (et[j] == t && eg[j] > g))) {
            et[j + 1] = et[j];
            em[j + 1] = em[j];
            eg[j + 1] = eg[j];
            ex[j + 1] = ex[j];
            j--;
        }
        et[j + 1] = t;
        em[j + 1] = mk;
        eg[j + 1] = g;
        ex[j + 1] = x;
    }
    return ne;
}

/* Greedy Algorithm 1 over sorted entries; when sb is non-NULL the
 * schedule (begin, end, group_id, group_index) is recorded and sorted
 * by (begin, group_id).  Returns the schedule length, or -2 on stall. */
static int64_t rpr_greedy(
    int64_t ne, const int64_t *et, const uint64_t *em,
    const int64_t *eg, const int64_t *ex,
    int64_t *sb, int64_t *se, int64_t *sg, int64_t *sx,
    int64_t *run_end, uint64_t *run_mask, char *used, int64_t *t_si_out)
{
    int64_t t_si = 0, current = 0, n_run = 0, left = ne, ns = 0;
    for (int64_t i = 0; i < ne; i++)
        used[i] = 0;
    while (left) {
        uint64_t busy = 0;
        for (int64_t k = 0; k < n_run; k++)
            if (run_end[k] > current)
                busy |= run_mask[k];
        int64_t pick = -1;
        for (int64_t i = 0; i < ne; i++)
            if (!used[i] && !(busy & em[i])) {
                pick = i;
                break;
            }
        if (pick >= 0) {
            used[pick] = 1;
            left--;
            const int64_t end = current + et[pick];
            run_end[n_run] = end;
            run_mask[n_run] = em[pick];
            n_run++;
            if (sb) {
                sb[ns] = current;
                se[ns] = end;
                sg[ns] = eg[pick];
                sx[ns] = ex[pick];
            }
            ns++;
            if (end > t_si)
                t_si = end;
        } else {
            int64_t next = INT64_MAX;
            for (int64_t k = 0; k < n_run; k++)
                if (run_end[k] > current && run_end[k] < next)
                    next = run_end[k];
            if (next == INT64_MAX)
                return -2;
            current = next;
        }
    }
    if (sb) {
        /* sort by (begin, group_id); keys are unique */
        for (int64_t i = 1; i < ns; i++) {
            const int64_t b = sb[i], e = se[i], g = sg[i], x = sx[i];
            int64_t j = i - 1;
            while (j >= 0 && (sb[j] > b || (sb[j] == b && sg[j] > g))) {
                sb[j + 1] = sb[j];
                se[j + 1] = se[j];
                sg[j + 1] = sg[j];
                sx[j + 1] = sx[j];
                j--;
            }
            sb[j + 1] = b;
            se[j + 1] = e;
            sg[j + 1] = g;
            sx[j + 1] = x;
        }
    }
    *t_si_out = t_si;
    return ns;
}

/* Bottleneck rails: InTest maxima plus the bottleneck of every group on
 * the schedule's critical chain (walked end-descending, stable). */
static uint64_t rpr_bottlenecks(
    int64_t R, const int64_t *lt, int64_t t_in,
    int64_t ns, const int64_t *sb, const int64_t *se, const int64_t *sx,
    const int64_t *gb, int64_t t_si, int64_t *ord, int64_t *crit)
{
    uint64_t mask = 0;
    if (t_in > 0)
        for (int64_t r = 0; r < R; r++)
            if (lt[r] == t_in)
                mask |= 1ULL << r;
    if (ns) {
        for (int64_t i = 0; i < ns; i++)
            ord[i] = i;
        /* stable sort by end descending (strict compare keeps ties in
         * (begin, group_id) order -- Python's sorted() stability) */
        for (int64_t i = 1; i < ns; i++) {
            const int64_t key = ord[i];
            int64_t j = i - 1;
            while (j >= 0 && se[ord[j]] < se[key]) {
                ord[j + 1] = ord[j];
                j--;
            }
            ord[j + 1] = key;
        }
        int64_t ncrit = 0;
        crit[ncrit++] = t_si;
        for (int64_t i = 0; i < ns; i++) {
            const int64_t e = se[ord[i]];
            int member = 0;
            for (int64_t k = 0; k < ncrit; k++)
                if (crit[k] == e) {
                    member = 1;
                    break;
                }
            if (member) {
                mask |= 1ULL << gb[sx[ord[i]]];
                if (sb[ord[i]] > 0)
                    crit[ncrit++] = sb[ord[i]];
            }
        }
    }
    return mask;
}

/* T_soc of s.  With sched set, the schedule stays in ws for
 * rpr_bottlenecks.  Returns -2 on a stall (cannot happen on valid
 * input). */
static int64_t rpr_total(const rpr_in *in, rpr_ws *ws, const rpr_st *s,
                         int sched)
{
    const int64_t ne = rpr_groups(s->R, in->n_groups, in->capture, s->d,
                                  in->patterns, in->gids, ws->gb, ws->et,
                                  ws->em, ws->eg, ws->ex);
    int64_t t_si = 0, t_in = 0;
    const int64_t ns = rpr_greedy(ne, ws->et, ws->em, ws->eg, ws->ex,
                                  sched ? ws->sb : 0, ws->se, ws->sg, ws->sx,
                                  ws->run_end, ws->run_mask, ws->used, &t_si);
    if (ns < 0)
        return -2;
    for (int64_t r = 0; r < s->R; r++)
        if (s->tin[r] > t_in)
            t_in = s->tin[r];
    ws->t_in = t_in;
    ws->t_si = t_si;
    ws->ns = ns;
    return t_in + t_si;
}

/* Bottleneck rails of s -- every rail when there is none -- in *out;
 * ws->t_in + ws->t_si is then s's T_soc.  Returns 0 or -2. */
static int64_t rpr_sources(const rpr_in *in, rpr_ws *ws, const rpr_st *s,
                           uint64_t *out)
{
    if (rpr_total(in, ws, s, 1) < 0)
        return -2;
    const uint64_t mask = rpr_bottlenecks(s->R, s->tin, ws->t_in, ws->ns,
                                          ws->sb, ws->se, ws->sx, ws->gb,
                                          ws->t_si, ws->ord, ws->crit);
    *out = mask ? mask : (s->R == 64 ? ~0ULL : (1ULL << s->R) - 1);
    return 0;
}

/* time_used(r): InTest time plus the rail's own SI occupancy. */
static int64_t rpr_used(const rpr_in *in, const rpr_st *s, int64_t r)
{
    const int64_t *row = s->d + r * in->n_groups;
    int64_t used = s->tin[r];
    for (int64_t g = 0; g < in->n_groups; g++)
        if (row[g])
            used += in->patterns[g] * (row[g] + in->capture);
    return used;
}

/* ws->rank: rail indices by non-increasing time_used, ties by index. */
static void rpr_order(const rpr_in *in, rpr_ws *ws, const rpr_st *s)
{
    int64_t used[64];
    for (int64_t r = 0; r < s->R; r++) {
        used[r] = rpr_used(in, s, r);
        int64_t j = r - 1;
        while (j >= 0 && used[ws->rank[j]] < used[r]) {
            ws->rank[j + 1] = ws->rank[j];
            j--;
        }
        ws->rank[j + 1] = r;
    }
}

static void rpr_copy(const rpr_in *in, rpr_st *dst, const rpr_st *src)
{
    const int64_t R = src->R;
    dst->R = R;
    memcpy(dst->mask, src->mask, (size_t)R * sizeof(uint64_t));
    memcpy(dst->w, src->w, (size_t)R * sizeof(int64_t));
    memcpy(dst->tin, src->tin, (size_t)R * sizeof(int64_t));
    memcpy(dst->d, src->d, (size_t)(R * in->n_groups) * sizeof(int64_t));
}

/* Merge rails a and b onto c wires in place: the merged rail takes a's
 * position and b's slot closes up.  Returns 0 or -1 (bad width). */
static int64_t rpr_merge(const rpr_in *in, rpr_st *s, int64_t a, int64_t b,
                         int64_t c)
{
    const int64_t G = in->n_groups;
    s->mask[a] |= s->mask[b];
    s->w[a] = c;
    if (rpr_set_row(in, s, a) < 0)
        return -1;
    for (int64_t r = b + 1; r < s->R; r++) {
        s->mask[r - 1] = s->mask[r];
        s->w[r - 1] = s->w[r];
        s->tin[r - 1] = s->tin[r];
        memcpy(s->d + (r - 1) * G, s->d + r * G, (size_t)G * sizeof(int64_t));
    }
    s->R--;
    return 0;
}

/* Move dense core `core` from rail `from` to rail `to` in place. */
static int64_t rpr_move_core(const rpr_in *in, rpr_st *s, int64_t core,
                             int64_t from, int64_t to)
{
    s->mask[from] &= ~(1ULL << core);
    s->mask[to] |= 1ULL << core;
    return rpr_set_row(in, s, from) < 0 || rpr_set_row(in, s, to) < 0
        ? -1 : 0;
}

/* T_soc of s with rail r one wire wider; s is left as it was. */
static int64_t rpr_score_widen(const rpr_in *in, rpr_ws *ws, rpr_st *s,
                               int64_t r)
{
    const int64_t G = in->n_groups;
    int64_t *row = s->d + r * G;
    const int64_t tin = s->tin[r];
    memcpy(ws->save, row, (size_t)G * sizeof(int64_t));
    s->w[r]++;
    int64_t total = rpr_set_row(in, s, r);
    if (!total)
        total = rpr_total(in, ws, s, 0);
    s->w[r]--;
    s->tin[r] = tin;
    memcpy(row, ws->save, (size_t)G * sizeof(int64_t));
    ws->counts[N_SCORED]++;
    return total;
}

/* distributeFreeWires on s in place: each wire goes to the bottleneck
 * rail whose widening scores lowest (first minimum in rail order; every
 * rail when there is no bottleneck).  Returns 0 or a negative error. */
static int64_t rpr_distribute(const rpr_in *in, rpr_ws *ws, rpr_st *s,
                              int64_t wires)
{
    ws->counts[N_WIRES] += wires;
    for (int64_t wire = 0; wire < wires; wire++) {
        uint64_t cand;
        if (rpr_sources(in, ws, s, &cand) < 0)
            return -2;
        int64_t best_total = INT64_MAX, best_r = 0;
        for (; cand; cand &= cand - 1) {
            const int64_t r = __builtin_ctzll(cand);
            const int64_t total = rpr_score_widen(in, ws, s, r);
            if (total < 0)
                return total;
            if (total < best_total) {
                best_total = total;
                best_r = r;
            }
        }
        s->w[best_r]++;
        if (rpr_set_row(in, s, best_r) < 0)
            return -1;
    }
    return 0;
}

/* Exclusion bound: a lower bound on T_soc of any candidate that changes
 * only rails f and x -- the unchanged rails' InTest maximum plus the
 * largest unchanged involved-rail time of any group. */
static int64_t rpr_move_bound(const rpr_in *in, const rpr_st *s, int64_t f,
                              int64_t x)
{
    const int64_t G = in->n_groups;
    int64_t t_in = 0, t_si = 0;
    for (int64_t r = 0; r < s->R; r++) {
        if (r == f || r == x)
            continue;
        if (s->tin[r] > t_in)
            t_in = s->tin[r];
        for (int64_t g = 0; g < G; g++) {
            const int64_t d = s->d[r * G + g];
            if (d && in->patterns[g] * (d + in->capture) > t_si)
                t_si = in->patterns[g] * (d + in->capture);
        }
    }
    return t_in + t_si;
}

/* Lower bound on T_soc of any architecture holding a rail with the cores
 * of `mask` on at most w wires: per core at least ceil(payload / w)
 * InTest cycles, plus the rail's own longest SI group at w. */
static int64_t rpr_merged_bound(const rpr_in *in, rpr_ws *ws, uint64_t mask,
                                int64_t w)
{
    int64_t t_in = 0, t_si = 0;
    for (int64_t g = 0; g < in->n_groups; g++)
        ws->row[g] = 0;
    for (; mask; mask &= mask - 1) {
        const int64_t core = __builtin_ctzll(mask);
        t_in += (in->payload[core] + w - 1) / w;
        rpr_add_depth(in, core, w, ws->row);
    }
    for (int64_t g = 0; g < in->n_groups; g++)
        if (ws->row[g] && in->patterns[g] * (ws->row[g] + in->capture) > t_si)
            t_si = in->patterns[g] * (ws->row[g] + in->capture);
    return t_in + t_si;
}

/* mergeTAMs of `rail` from `incumbent` = T_soc(s): every partner, every
 * merged width from max(w_1, w_i) up to w_1 + w_i, the freed wires
 * redistributed, first strict-< minimum wins.  A partner whose merged
 * rail bound reaches the incumbent is pruned whole, an exact merge
 * (no leftover) whose exclusion bound does, alone, and once the best
 * reaches the floor nothing can strictly beat it.  s becomes the winner
 * (t and best are scratch); returns its T_soc or a negative error. */
static int64_t rpr_merge_tams(const rpr_in *in, rpr_ws *ws, rpr_st *s,
                              rpr_st *t, rpr_st *best, int64_t rail,
                              int64_t incumbent, int64_t floor_total)
{
    const int64_t base = s->w[rail];
    int64_t best_total = incumbent, found = 0;
    for (int64_t p = 0; p < s->R; p++) {
        if (p == rail)
            continue;
        const int64_t sum = base + s->w[p];
        const int64_t lo = base > s->w[p] ? base : s->w[p];
        ws->counts[N_MERGES] += sum - lo + 1;
        if (incumbent <= floor_total
            || rpr_merged_bound(in, ws, s->mask[rail] | s->mask[p], sum)
               >= incumbent) {
            ws->counts[N_PRUNED] += sum - lo + 1;
            continue;
        }
        const int exact = rpr_move_bound(in, s, rail, p) < incumbent;
        for (int64_t width = lo; width <= sum; width++) {
            const int64_t left = sum - width;
            if (best_total <= floor_total || (!left && !exact)) {
                ws->counts[N_PRUNED]++;
                continue;
            }
            rpr_copy(in, t, s);
            int64_t total = rpr_merge(in, t, rail, p, width);
            if (!total && left)
                total = rpr_distribute(in, ws, t, left);
            if (!total) {
                total = rpr_total(in, ws, t, 0);
                ws->counts[N_SCORED]++;
            }
            if (total < 0)
                return total;
            if (total < best_total) {
                best_total = total;
                found = 1;
                rpr_copy(in, best, t);
            }
        }
    }
    if (found)
        rpr_copy(in, s, best);
    return best_total;
}

/* coreReshuffle: move the one core off a bottleneck rail that lowers
 * T_soc most (first strict-< minimum over source, core, destination),
 * until no move improves; candidates whose exclusion bound reaches the
 * incumbent are pruned unscored.  Returns 0 or a negative error. */
static int64_t rpr_reshuffle(const rpr_in *in, rpr_ws *ws, rpr_st *s,
                             rpr_st *t, int64_t floor_total)
{
    for (;;) {
        uint64_t sources;
        if (rpr_sources(in, ws, s, &sources) < 0)
            return -2;
        const int64_t current = ws->t_in + ws->t_si;
        int64_t movable = 0;
        for (uint64_t m = sources; m; m &= m - 1) {
            const int64_t r = __builtin_ctzll(m);
            const int64_t n = __builtin_popcountll(s->mask[r]);
            if (n >= 2)
                movable += n;
        }
        const int64_t count = (s->R - 1) * movable;
        if (!count)
            return 0;
        ws->counts[N_CORE_MOVES] += count;
        if (current <= floor_total) {
            ws->counts[N_PRUNED] += count;
            return 0;
        }
        int64_t best_total = current, bc = -1, bs = 0, bd = 0;
        for (; sources; sources &= sources - 1) {
            const int64_t from = __builtin_ctzll(sources);
            if (__builtin_popcountll(s->mask[from]) < 2)
                continue;
            for (int64_t to = 0; to < s->R; to++)
                ws->bound[to] = to == from ? 0
                    : rpr_move_bound(in, s, from, to);
            for (uint64_t m = s->mask[from]; m; m &= m - 1) {
                const int64_t core = __builtin_ctzll(m);
                for (int64_t to = 0; to < s->R; to++) {
                    if (to == from)
                        continue;
                    if (ws->bound[to] >= current) {
                        ws->counts[N_PRUNED]++;
                        continue;
                    }
                    rpr_copy(in, t, s);
                    int64_t total = rpr_move_core(in, t, core, from, to);
                    if (!total) {
                        total = rpr_total(in, ws, t, 0);
                        ws->counts[N_SCORED]++;
                    }
                    if (total < 0)
                        return total;
                    if (total < best_total) {
                        best_total = total;
                        bc = core;
                        bs = from;
                        bd = to;
                    }
                }
            }
        }
        if (bc < 0)
            return 0;
        if (rpr_move_core(in, s, bc, bs, bd) < 0)
            return -1;
    }
}

/* Algorithm 2 from the start solution in s (one-wire rails) to the end
 * of coreReshuffle, in place.  skip_m/skip_w (n_skip slots) hold the
 * skip set of the remaining-rails loop.  Returns 0 or a negative error. */
static int64_t rpr_run(const rpr_in *in, rpr_ws *ws, rpr_st *s, rpr_st *t,
                       rpr_st *best, int64_t floor_total, uint64_t *skip_m,
                       int64_t *skip_w, int64_t n_skip)
{
    const int64_t w_max = in->cap;
    int64_t total, initial, skipped = 0;

    /* start solution: merge down to W_max rails, or pad with free wires */
    while (s->R > w_max) {
        rpr_order(in, ws, s);
        const int64_t over = ws->rank[w_max];
        int64_t best_total = INT64_MAX, best_pos = 0;
        for (int64_t k = 0; k < w_max; k++) {
            rpr_copy(in, t, s);
            total = rpr_merge(in, t, ws->rank[k], over, 1);
            if (!total) {
                total = rpr_total(in, ws, t, 0);
                ws->counts[N_SCORED]++;
            }
            if (total < 0)
                return total;
            if (total < best_total) {
                best_total = total;
                best_pos = ws->rank[k];
            }
        }
        if (rpr_merge(in, s, best_pos, over, 1) < 0)
            return -1;
    }
    if (w_max > s->R && (total = rpr_distribute(in, ws, s, w_max - s->R)) < 0)
        return total;

    /* bottom-up: merge the least-utilized rail */
    while (s->R > 1) {
        if ((initial = rpr_total(in, ws, s, 0)) < 0)
            return initial;
        rpr_order(in, ws, s);
        total = rpr_merge_tams(in, ws, s, t, best, ws->rank[s->R - 1],
                               initial, floor_total);
        if (total < 0)
            return total;
        if (total == initial)
            break;
    }

    /* top-down: merge the most-utilized rail */
    while (s->R > 1) {
        if ((initial = rpr_total(in, ws, s, 0)) < 0)
            return initial;
        rpr_order(in, ws, s);
        const int64_t top = ws->rank[0];
        total = rpr_merge_tams(in, ws, s, t, best, top, initial, floor_total);
        if (total < 0)
            return total;
        if (total == initial) {
            skip_m[0] = s->mask[top];
            skip_w[0] = s->w[top];
            skipped = 1;
            break;
        }
    }

    /* the remaining rails, most-utilized first; a rail (cores, width)
     * whose merge did not improve is skipped from then on */
    while (s->R > 1) {
        int64_t target = -1, target_used = 0;
        for (int64_t r = 0; r < s->R; r++) {
            int64_t k = 0;
            while (k < skipped
                   && (skip_m[k] != s->mask[r] || skip_w[k] != s->w[r]))
                k++;
            if (k < skipped)
                continue;
            const int64_t used = rpr_used(in, s, r);
            if (target < 0 || used > target_used) {
                target = r;
                target_used = used;
            }
        }
        if (target < 0)
            break;
        if ((initial = rpr_total(in, ws, s, 0)) < 0)
            return initial;
        const uint64_t mask = s->mask[target];
        const int64_t width = s->w[target];
        total = rpr_merge_tams(in, ws, s, t, best, target, initial,
                               floor_total);
        if (total < 0)
            return total;
        if (total == initial) {
            if (skipped == n_skip)
                return -1;
            skip_m[skipped] = mask;
            skip_w[skipped++] = width;
        }
    }

    return rpr_reshuffle(in, ws, s, t, floor_total);
}

/* One whole incremental Algorithm 2 run over n_cores <= 64 cores with
 * pin budget w_max (the table's width).  start[r] is the dense core of
 * one-wire start rail r.  On success returns the final rail count R
 * with rail r's core mask and width in masks_out[r] / widths_out[r];
 * counts_out receives merges tried, core moves tried, moves pruned,
 * wires distributed and candidates scored.  Returns -1 on a bad width,
 * bad input or failed allocation, -2 on a schedule stall. */
int64_t repro_optimize(
    int64_t n_cores, int64_t n_groups, int64_t capture, int64_t w_max,
    const int64_t *table, const int64_t *woc, const int64_t *cg_off,
    const int32_t *cg_ids, const int64_t *patterns, const int64_t *gids,
    const int64_t *payload, const int64_t *start, int64_t floor_total,
    uint64_t *masks_out, int64_t *widths_out, int64_t *counts_out)
{
    for (int64_t k = 0; k < N_COUNTS; k++)
        counts_out[k] = 0;
    if (n_cores < 1 || n_cores > 64 || w_max < 1 || n_groups < 0)
        return -1;
    const rpr_in in = {
        n_groups, capture, w_max, table, woc, cg_off, cg_ids, patterns,
        gids, payload,
    };
    const int64_t G = n_groups ? n_groups : 1;
    const int64_t n_skip = n_cores * (n_cores + 1) / 2 + 1;
    const size_t words = (size_t)(3 * 64 * G + 15 * G + 1 + 2 * n_skip);
    char *arena = malloc(words * sizeof(int64_t) + (size_t)G);
    if (!arena)
        return -1;
    rpr_st s, t, best;
    rpr_ws ws;
    int64_t *p = (int64_t *)arena;
#define TAKE(field, n) do { field = (void *)p; p += (n); } while (0)
    TAKE(s.d, 64 * G); TAKE(t.d, 64 * G); TAKE(best.d, 64 * G);
    TAKE(ws.gb, G); TAKE(ws.et, G); TAKE(ws.eg, G); TAKE(ws.ex, G);
    TAKE(ws.sb, G); TAKE(ws.se, G); TAKE(ws.sg, G); TAKE(ws.sx, G);
    TAKE(ws.ord, G); TAKE(ws.crit, G + 1); TAKE(ws.run_end, G);
    TAKE(ws.save, G); TAKE(ws.row, G); TAKE(ws.em, G); TAKE(ws.run_mask, G);
    uint64_t *skip_m;
    int64_t *skip_w;
    TAKE(skip_m, n_skip); TAKE(skip_w, n_skip);
#undef TAKE
    ws.used = (char *)p;
    ws.counts = counts_out;

    int64_t status = 0;
    s.R = n_cores;
    for (int64_t r = 0; r < n_cores && !status; r++) {
        if (start[r] < 0 || start[r] >= n_cores)
            status = -1;
        else {
            s.mask[r] = 1ULL << start[r];
            s.w[r] = 1;
            status = rpr_set_row(&in, &s, r);
        }
    }
    if (!status)
        status = rpr_run(&in, &ws, &s, &t, &best, floor_total, skip_m,
                         skip_w, n_skip);
    if (!status) {
        for (int64_t r = 0; r < s.R; r++) {
            masks_out[r] = s.mask[r];
            widths_out[r] = s.w[r];
        }
        status = s.R;
    }
    free(arena);
    return status;
}

/* Longest chain after water-filling `cells` single-bit wrapper cells onto
 * the w chains of `loads` (ascending): the shortest chains rise to a
 * common level, rounded up, and the rest keep their lengths. */
static int64_t rpr_fill_max(const int64_t *loads, int64_t w, int64_t cells)
{
    if (cells <= 0)
        return loads[w - 1];
    int64_t count = 0, total = 0;
    while (count < w && loads[count] * count - total <= cells)
        total += loads[count++];
    const int64_t level = (total + cells + count - 1) / count;
    return level > loads[w - 1] ? level : loads[w - 1];
}

/* InTest times T(w) of one core for w = 1..cap into out[w - 1].
 * `chains` holds its scan chain lengths in descending order, cells_in /
 * cells_out its wrapper input / output cells, `patterns` the pattern
 * count of each of its tests.  Per width, LPT puts each chain onto a
 * least-loaded of w bins, kept sorted ascending (which of several tied
 * bins takes it does not change the load multiset); then
 * T = sum over tests with p > 0 of (1 + max(s_i, s_o)) * p + min(s_i, s_o).
 * Returns 0, or -1 on bad input or a failed allocation. */
int64_t repro_time_table(
    int64_t n_chains, const int64_t *chains, int64_t cells_in,
    int64_t cells_out, int64_t n_tests, const int64_t *patterns,
    int64_t cap, int64_t *out)
{
    if (cap < 1 || n_chains < 0 || n_tests < 0 || cells_in < 0
        || cells_out < 0)
        return -1;
    for (int64_t k = 0; k < n_chains; k++)
        if (chains[k] <= 0 || (k && chains[k] > chains[k - 1]))
            return -1;
    for (int64_t t = 0; t < n_tests; t++)
        if (patterns[t] < 0)
            return -1;
    int64_t *loads = malloc((size_t)cap * sizeof(int64_t));
    if (!loads)
        return -1;
    for (int64_t w = 1; w <= cap; w++) {
        if (w >= n_chains) {  /* one chain per bin, the rest empty */
            for (int64_t b = 0; b < w - n_chains; b++)
                loads[b] = 0;
            for (int64_t k = 0; k < n_chains; k++)
                loads[w - 1 - k] = chains[k];
        } else {
            for (int64_t b = 0; b < w; b++)
                loads[b] = 0;
            for (int64_t k = 0; k < n_chains; k++) {
                const int64_t v = loads[0] + chains[k];
                int64_t b = 1;
                for (; b < w && loads[b] < v; b++)
                    loads[b - 1] = loads[b];
                loads[b - 1] = v;
            }
        }
        const int64_t s_i = rpr_fill_max(loads, w, cells_in);
        const int64_t s_o = rpr_fill_max(loads, w, cells_out);
        const int64_t longest = s_i > s_o ? s_i : s_o;
        const int64_t shortest = s_i < s_o ? s_i : s_o;
        int64_t time = 0;
        for (int64_t t = 0; t < n_tests; t++)
            if (patterns[t])
                time += (1 + longest) * patterns[t] + shortest;
        out[w - 1] = time;
    }
    free(loads);
    return 0;
}
"""

#: What ``repro_optimize`` counts, in the order of its ``counts_out``.
COUNTERS = (
    "optimizer.merges_tried",
    "optimizer.core_moves_tried",
    "optimizer.moves_pruned",
    "optimizer.wires_distributed",
    "movescan.moves_scored",
)


class EngineError(RuntimeError):
    """The native run reported a hard error (a width outside the InTest
    table, a schedule stall, bad input or a failed allocation)."""


def _bind(so_path: str) -> SimpleNamespace:
    lib = ctypes.CDLL(so_path)
    run = lib.repro_optimize
    run.restype = ctypes.c_int64
    run.argtypes = [
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,  # cores/groups/capture
        ctypes.c_int64,                    # w_max (the table's width)
        ctypes.c_void_p, ctypes.c_void_p,  # table, woc
        ctypes.c_void_p, ctypes.c_void_p,  # core-group CSR
        ctypes.c_void_p, ctypes.c_void_p,  # patterns, gids
        ctypes.c_void_p, ctypes.c_void_p,  # payload, start
        ctypes.c_int64,                    # floor_total
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,  # outputs
    ]
    table = lib.repro_time_table
    table.restype = ctypes.c_int64
    table.argtypes = [
        ctypes.c_int64, ctypes.c_void_p,   # chains (descending)
        ctypes.c_int64, ctypes.c_int64,    # cells_in, cells_out
        ctypes.c_int64, ctypes.c_void_p,   # per-test pattern counts
        ctypes.c_int64, ctypes.c_void_p,   # cap, out
    ]
    return SimpleNamespace(run=run, table=table)


def optimize(n_groups, capture, w_max, table, woc, cg_off, cg_ids,
             patterns, gids, payload, start, floor_total, lib=None):
    """Run the whole of Algorithm 2 in one C call; ``None``
    when the engine is unavailable.

    All array arguments are :mod:`array` buffers in the layout the C
    source describes (``cg_ids`` of type ``"i"``, the rest ``"q"``);
    ``start`` names the dense core of each one-wire start rail, so its
    length is the core count (at most 64).  Returns ``(masks, widths,
    counts)``: each final rail's dense-core bitmask and width, and the
    run's counts keyed by :data:`COUNTERS`.

    Raises:
        ValueError: When the array sizes do not match the core count,
            ``w_max`` and ``n_groups``.
        EngineError: When the run reports a hard error.
    """
    cores = len(start)
    if not (
        len(table) == cores * w_max and len(woc) == len(payload) == cores
        and len(cg_off) == cores + 1 and len(cg_ids) == cg_off[-1]
        and cg_ids.itemsize == 4 and len(patterns) == len(gids) == n_groups
    ):
        raise ValueError("optimize: array sizes do not match the core count, "
                         "W_max and group count")
    lib = lib or ENGINE.get()
    if lib is None:
        return None
    masks = array("Q", bytes(8 * 64))
    widths = array("q", bytes(8 * 64))
    counts = array("q", bytes(8 * len(COUNTERS)))
    rails = lib.run(
        len(start), n_groups, capture, w_max,
        _addr(table), _addr(woc), _addr(cg_off), _addr(cg_ids),
        _addr(patterns), _addr(gids), _addr(payload), _addr(start),
        floor_total, _addr(masks), _addr(widths), _addr(counts),
    )
    if rails < 0:
        raise EngineError(f"native optimizer run failed (status {rails})")
    return (list(masks[:rails]), list(widths[:rails]),
            dict(zip(COUNTERS, counts)))


def time_table(chains, cells_in, cells_out, patterns, cap, lib=None):
    """InTest times ``T(w)`` for ``w = 1..cap`` of one core in one C call;
    ``None`` when the engine is unavailable.

    ``chains`` are the core's scan chain lengths in descending order,
    ``cells_in``/``cells_out`` its wrapper input cells (inputs plus
    bidirs) and output cells (outputs plus bidirs), ``patterns`` the
    pattern count of each of its tests.  The values equal the times
    :func:`repro.wrapper.design.design_wrapper`'s LPT wrapper gives
    (:func:`repro.wrapper.timing.design_test_time`).

    Raises:
        EngineError: On bad input (chains not descending or not
            positive, negative counts, ``cap < 1``).
    """
    lib = lib or ENGINE.get()
    if lib is None:
        return None
    chains = array("q", chains)
    patterns = array("q", patterns)
    out = array("q", bytes(8 * max(cap, 0)))
    status = lib.table(len(chains), _addr(chains), cells_in, cells_out,
                       len(patterns), _addr(patterns), cap, _addr(out))
    if status < 0:
        raise EngineError(f"native time table failed (status {status})")
    return tuple(out)


def _smoke(lib) -> bool:
    """One hand-worked instance through :func:`optimize`, guarding
    against ABI/layout mishaps.

    Three cores on W_max = 4 wires, InTest times T(c, 1..4): c0 59 29 21
    21, c1 32 15 12 11, c2 45 24 24 24.  c1 (2 WOCs) and c2 (3 WOCs) form
    the single SI group (1 pattern, 1 capture cycle), which takes
    ``depth + 1`` cycles on a rail, ``depth = sum ceil(woc / w)`` over the
    rail's members.  T_soc is written ``T_in + T_si``.

    With a floor of 0:

    * Start: {c0} {c1} {c2} on one wire each, 59 + 4; the free wire goes
      to bottleneck c0 (45 + 4 = 49; widening c2 scores 59 + 4).
    * Bottom-up merges the least-used rail {c0}.  With {c1}, the exact
      3-wire merge is pruned: the untouched {c2} alone costs 45 + 4.  The
      2-wire merge (InTest 44, depth 1) hands its leftover wire to the
      bottleneck {c2} (InTest 24, depth 2) and scores 44 + 3 = 47, the
      winner.  With {c2}, the 2-wire merge plus a wire and the exact
      3-wire merge both score 45 + 3.
    * {c0, c1} and {c2}, 2 wires each, cannot merge better: merging all
      three cores on 2, 3 or 4 wires ends at 56 + 3 on 4 wires.  That
      sweep runs once each in the bottom-up, top-down and remaining-rail
      loops.
    * Reshuffle moves c1 to {c2}: 39 + 4 = 43 (moving c0 scores 53 + 3);
      neither move back improves.

    Result: rails {c0} and {c1, c2} on 2 wires each; 13 merges and 4 core
    moves tried, 1 pruned, 12 wires distributed, 29 candidates scored.

    With a floor of 47, the first sweep stops at the 47 it finds: the
    three candidates after it are pruned, as are the three later sweeps
    (3 merges each) and both reshuffle moves: rails {c0, c1} and {c2};
    13 merges and 2 core moves tried, 14 pruned, 2 wires, 4 scored.

    Time table: chains 6, 4, 3, three wrapper input cells and one output
    cell, tests of 2, 0 and 1 patterns, widths 1..4.  LPT loads are
    [13], [6, 7], [3, 4, 6] and [0, 3, 4, 6]; filling the cells onto the
    shortest chains gives (s_i, s_o) = (16, 14), (8, 7), (6, 6), (6, 6),
    so ``T = (1 + s) * 3 + 2 * min`` reads 79, 41, 33, 33.
    """
    inputs = (
        1, 1, 4,                                    # groups, capture, W_max
        array("q", (59, 29, 21, 21, 32, 15, 12, 11, 45, 24, 24, 24)),
        array("q", (0, 2, 3)),                      # woc
        array("q", (0, 0, 1, 2)), array("i", (0, 0)),  # core-group CSR
        array("q", (1,)), array("q", (0,)),         # patterns, gids
        array("q", (58, 30, 45)),                   # payload
        array("q", (0, 1, 2)),                      # start rails
    )
    try:
        return (
            optimize(*inputs, 0, lib=lib) == (
                [0b001, 0b110], [2, 2],
                dict(zip(COUNTERS, (13, 4, 1, 12, 29))),
            )
            and optimize(*inputs, 47, lib=lib) == (
                [0b011, 0b100], [2, 2],
                dict(zip(COUNTERS, (13, 2, 14, 2, 4))),
            )
            and time_table((6, 4, 3), 3, 1, (2, 0, 1), 4, lib=lib)
            == (79, 41, 33, 33)
        )
    except EngineError:
        return False


ENGINE = Engine("movescan", _SOURCE, "REPRO_OPTIMIZER_CSCAN", _bind, _smoke)
available = ENGINE.available
