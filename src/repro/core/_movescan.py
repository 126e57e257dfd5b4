"""Optional C engine for the incremental move-evaluation scan.

:class:`repro.core.scheduling.IncrementalTamEvaluator` scores the
optimizer's candidate moves (widen a rail / move a core / merge two
rails) by patching at most two rails of a packed state and re-deriving
``T_soc``.  The patch arithmetic is pure integer work over flat arrays
— per-rail InTest times, per-group shift depths, the evaluator's fixed
``cores × W_max`` InTest time table, involved-rail bitmasks — so this
module carries a small, dependency-free C translation of the scan (same
row arithmetic, same entry sort, same greedy Algorithm 1 replay, one
copy of each shared by both entry points; see the evaluator docstring
for the equivalence argument).

The engine is optional and loaded by :mod:`repro.runtime.native`
(toggle ``REPRO_OPTIMIZER_CSCAN``): when it is unavailable, the
evaluator falls back to its pure-Python patch path — scoring is
bit-identical either way.

The C side works on flattened integer streams only — rail membership as
dense core ids in CSR layout, core-to-group membership likewise — and
returns one ``T_soc`` total per batch candidate, or the winner of a
whole mergeTAMs sweep (:func:`merge_sweep`).  All core/group semantics
stay in Python; the C code never sees a rail object.
"""

from __future__ import annotations

import ctypes
from array import array
from types import SimpleNamespace

from repro.runtime.native import Engine, _addr

__all__ = ["ENGINE", "available", "merge_sweep", "score_moves"]

_SOURCE = r"""#include <stdint.h>
#include <stdlib.h>

/* Inputs shared by both entry points: the packed base state (per-rail
 * widths, InTest times and per-group shift depths; rail membership as
 * dense core ids in CSR layout), per-core WOC counts, core-to-group CSR,
 * per-group pattern counts and ids, and the fixed (core, width) InTest
 * time table -- `cap` widths per core, T(core, w) at core * cap + w - 1.
 * A width outside 1..cap is a hard error: reading it would land in
 * another core's row.  Rail masks are one uint64, so callers must keep
 * n_rails <= 64. */
typedef struct {
    int64_t n_rails, n_groups, capture, cap;
    const int64_t *widths, *time_in, *depths, *rail_off;
    const int32_t *rail_cores;
    const int64_t *woc, *cg_off;
    const int32_t *cg_ids;
    const int64_t *patterns, *gids, *table;
} rpr_in;

/* Scratch of one scoring call: ld is a working copy of R rails' depth
 * rows that candidates patch in place; lw/lt/loff/lcores describe the
 * post-merge rails of a sweep replay.  Carved out of one allocation. */
typedef struct {
    int64_t *lw, *lt, *ld, *loff, *gb, *et, *eg, *ex, *sb, *se, *sg, *sx;
    int64_t *ord, *crit, *run_end, *cand_d, *best_d, *choices;
    uint64_t *em, *run_mask;
    int32_t *lcores;
    char *used;
} rpr_ws;

static void *rpr_ws_alloc(rpr_ws *ws, int64_t R, int64_t G, int64_t ncores,
                          int64_t max_left)
{
    const size_t words = (size_t)(3 * R + 1 + R * G + 15 * G + 1
                                  + max_left);
    char *arena = malloc(words * 8 + (size_t)ncores * 4 + (size_t)G);
    if (!arena)
        return 0;
    int64_t *p = (int64_t *)arena;
#define TAKE(field, n) do { ws->field = (void *)p; p += (n); } while (0)
    TAKE(lw, R); TAKE(lt, R); TAKE(ld, R * G); TAKE(loff, R + 1);
    TAKE(gb, G); TAKE(et, G); TAKE(eg, G); TAKE(ex, G); TAKE(sb, G);
    TAKE(se, G); TAKE(sg, G); TAKE(sx, G); TAKE(ord, G); TAKE(crit, G + 1);
    TAKE(run_end, G); TAKE(cand_d, G); TAKE(best_d, G);
    TAKE(choices, max_left); TAKE(em, G); TAKE(run_mask, G);
#undef TAKE
    ws->lcores = (int32_t *)p;
    ws->used = (char *)(ws->lcores + ncores);
    return arena;
}

static int rpr_bad_width(const rpr_in *in, int64_t w)
{
    return w < 1 || w > in->cap;
}

/* Put `core` on a rail of w wires: add sign times its SI shift depth to
 * every group it feeds in row, and return its InTest time. */
static int64_t rpr_add_core(const rpr_in *in, int64_t core, int64_t w,
                            int64_t *row, int64_t sign)
{
    const int64_t oc = in->woc[core];
    if (oc) {
        const int64_t d = sign * ((oc + w - 1) / w);
        for (int64_t k = in->cg_off[core]; k < in->cg_off[core + 1]; k++)
            row[in->cg_ids[k]] += d;
    }
    return in->table[core * in->cap + w - 1];
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

/* Batch scorer for single-move TAM candidates.
 *
 * Per candidate at most two rails change.  Their new rows are patched
 * into a working copy of the base depths, the SI makespan is replayed
 * by rpr_groups/rpr_greedy -- the exact order of the Python scheduler,
 * so every total matches the reference evaluator bit for bit -- and the
 * base rows are copied back.  Unchanged rails' InTest times are read
 * straight from the base state.
 *
 * Move kinds: 0 widen(rail a), 1 move(core a, rail b -> rail c),
 * 2 merge(rails a + b onto c wires, b removed).  Returns 0, or -1/-2 on
 * a hard error (bad width, too many rails, allocation, stall). */
int64_t repro_move_scan(
    int64_t n_rails, int64_t n_groups, int64_t capture,
    const int64_t *widths, const int64_t *time_in, const int64_t *depths,
    const int64_t *rail_off, const int32_t *rail_cores,
    const int64_t *woc, const int64_t *cg_off, const int32_t *cg_ids,
    const int64_t *patterns, const int64_t *gids,
    const int64_t *table, int64_t cap,
    int64_t n_moves, const int64_t *kinds,
    const int64_t *ma, const int64_t *mb, const int64_t *mc,
    int64_t *totals_out)
{
    if (n_rails > 64)
        return -1;
    const rpr_in in = {
        n_rails, n_groups, capture, cap, widths, time_in, depths, rail_off,
        rail_cores, woc, cg_off, cg_ids, patterns, gids, table,
    };
    rpr_ws ws;
    void *arena = rpr_ws_alloc(&ws, n_rails, n_groups ? n_groups : 1, 0, 1);
    if (!arena)
        return -1;
    int64_t *ld = ws.ld;
    for (int64_t i = 0; i < n_rails * n_groups; i++)
        ld[i] = depths[i];
    int64_t status = 0;
    for (int64_t m = 0; m < n_moves; m++) {
        const int64_t kind = kinds[m], a = ma[m], b = mb[m], c = mc[m];
        int64_t changed0 = a, changed1 = -1, tin0 = 0, tin1 = 0;
        if (kind == 0) {            /* widen rail a by one wire */
            const int64_t w = widths[a] + 1;
            if (rpr_bad_width(&in, w)) {
                status = -1;
                break;
            }
            int64_t *row = ld + a * n_groups;
            for (int64_t g = 0; g < n_groups; g++)
                row[g] = 0;
            for (int64_t k = rail_off[a]; k < rail_off[a + 1]; k++)
                tin0 += rpr_add_core(&in, rail_cores[k], w, row, 1);
        } else if (kind == 1) {     /* move core a from rail b to rail c */
            if (rpr_bad_width(&in, widths[b])
                || rpr_bad_width(&in, widths[c])) {
                status = -1;
                break;
            }
            changed0 = b;
            changed1 = c;
            tin0 = time_in[b] - rpr_add_core(&in, a, widths[b],
                                             ld + b * n_groups, -1);
            tin1 = time_in[c] + rpr_add_core(&in, a, widths[c],
                                             ld + c * n_groups, 1);
        } else {                    /* merge rails a + b onto c wires */
            if (rpr_bad_width(&in, c)) {
                status = -1;
                break;
            }
            changed1 = b;           /* removed: contributes nothing */
            for (int64_t g = 0; g < n_groups; g++) {
                ld[a * n_groups + g] = 0;
                ld[b * n_groups + g] = 0;
            }
            for (int64_t k = rail_off[a]; k < rail_off[a + 1]; k++)
                tin0 += rpr_add_core(&in, rail_cores[k], c,
                                     ld + a * n_groups, 1);
            for (int64_t k = rail_off[b]; k < rail_off[b + 1]; k++)
                tin0 += rpr_add_core(&in, rail_cores[k], c,
                                     ld + a * n_groups, 1);
        }

        int64_t t_in = tin0 > tin1 ? tin0 : tin1;
        for (int64_t r = 0; r < n_rails; r++)
            if (r != changed0 && r != changed1 && time_in[r] > t_in)
                t_in = time_in[r];
        const int64_t ne = rpr_groups(n_rails, n_groups, capture, ld,
                                      patterns, gids, ws.gb, ws.et, ws.em,
                                      ws.eg, ws.ex);
        int64_t t_si = 0;
        if (rpr_greedy(ne, ws.et, ws.em, ws.eg, ws.ex, 0, 0, 0, 0,
                       ws.run_end, ws.run_mask, ws.used, &t_si) < 0) {
            status = -2;            /* stalled: cannot happen on valid input */
            break;
        }
        totals_out[m] = t_in + t_si;
        for (int64_t g = 0; g < n_groups; g++) {
            ld[changed0 * n_groups + g] = depths[changed0 * n_groups + g];
            if (changed1 >= 0)
                ld[changed1 * n_groups + g] = depths[changed1 * n_groups + g];
        }
    }
    free(arena);
    return status;
}

/* ------------------------------------------------------------------ */
/* One mergeTAMs sweep: every (partner, width) candidate of merging one
 * rail, walked in the optimizer's enumeration order.
 *
 * A merge-with-leftover candidate is "merge rails a+b onto c wires, then
 * hand the (w_a + w_b - c) freed wires to bottleneck rails one at a
 * time" -- a greedy loop whose every wire re-derives the bottleneck set
 * (InTest maxima plus the SI schedule's critical chain) and scores one
 * widen candidate per bottleneck rail.  The routines below replay that
 * loop with the exact Python semantics: the same group bottleneck
 * (first rail achieving the strict maximum, scanning ascending), the
 * same schedule order (picks sorted by (begin, group_id)), the same
 * stable critical-chain walk (end descending, ties in original order),
 * and the same first-candidate strict-< selection over ascending rail
 * indices.  Exact merges (no leftover) arrive pre-scored by the batch
 * scorer above, or with a negative total when their bound pruned them. */

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

/* Score widening local rail r by one wire into ws->cand_d.  Returns the
 * candidate T_soc (always >= 0), -1 when the new width is outside the
 * table, or -2 on stall.  new_tin_out receives the rail's patched InTest
 * time for a later apply. */
static int64_t rpr_score_widen(const rpr_in *in, const rpr_ws *ws,
                               int64_t R, int64_t r, int64_t *new_tin_out)
{
    const int64_t n_groups = in->n_groups;
    const int64_t w = ws->lw[r] + 1;
    int64_t *new_row = ws->cand_d;
    int64_t tin = 0;
    if (rpr_bad_width(in, w))
        return -1;
    for (int64_t g = 0; g < n_groups; g++)
        new_row[g] = 0;
    for (int64_t k = ws->loff[r]; k < ws->loff[r + 1]; k++)
        tin += rpr_add_core(in, ws->lcores[k], w, new_row, 1);
    int64_t t_in = tin;
    for (int64_t rr = 0; rr < R; rr++)
        if (rr != r && ws->lt[rr] > t_in)
            t_in = ws->lt[rr];
    /* swap the widened row in for the entry build, then back out, so
     * new_row again holds the candidate's row for a later apply */
    int64_t *row = ws->ld + r * n_groups;
    for (int64_t g = 0; g < n_groups; g++) {
        const int64_t d = row[g];
        row[g] = new_row[g];
        new_row[g] = d;
    }
    const int64_t ne = rpr_groups(R, n_groups, in->capture, ws->ld,
                                  in->patterns, in->gids, ws->gb,
                                  ws->et, ws->em, ws->eg, ws->ex);
    for (int64_t g = 0; g < n_groups; g++) {
        const int64_t d = row[g];
        row[g] = new_row[g];
        new_row[g] = d;
    }
    int64_t t_si = 0;
    const int64_t ns = rpr_greedy(ne, ws->et, ws->em, ws->eg, ws->ex,
                                  0, 0, 0, 0, ws->run_end, ws->run_mask,
                                  ws->used, &t_si);
    if (ns < 0)
        return -2;
    *new_tin_out = tin;
    return t_in + t_si;
}

/* Replay one merge-with-leftover candidate: merge rails a + b onto c
 * wires, then distribute the leftover wires greedily.  The chosen local
 * rail per wire lands in ws->choices.  Returns 0 with *total_out set,
 * -1 when a width falls outside the table, or -2 on stall. */
static int64_t rpr_replay(const rpr_in *in, const rpr_ws *ws,
                          int64_t a, int64_t b, int64_t c, int64_t leftover,
                          int64_t *total_out)
{
    const int64_t n_groups = in->n_groups;
    const int64_t R = in->n_rails - 1;      /* rails after the merge */
    int64_t *lw = ws->lw, *lt = ws->lt, *ld = ws->ld;
    if (rpr_bad_width(in, c))
        return -1;

    /* local post-merge state: rail b removed, the merged rail takes
     * rail a's (shifted) slot -- the exact remap of the Python apply */
    int64_t pos = 0;
    for (int64_t r = 0; r < in->n_rails; r++) {
        if (r == b)
            continue;
        const int64_t lr = r - (r > b);
        ws->loff[lr] = pos;
        if (r == a) {
            const int64_t pair[2] = { a, b };
            int64_t tin = 0;
            for (int64_t g = 0; g < n_groups; g++)
                ld[lr * n_groups + g] = 0;
            for (int p = 0; p < 2; p++) {
                for (int64_t k = in->rail_off[pair[p]];
                     k < in->rail_off[pair[p] + 1]; k++) {
                    const int32_t core = in->rail_cores[k];
                    ws->lcores[pos++] = core;
                    tin += rpr_add_core(in, core, c, ld + lr * n_groups, 1);
                }
            }
            lw[lr] = c;
            lt[lr] = tin;
        } else {
            lw[lr] = in->widths[r];
            lt[lr] = in->time_in[r];
            for (int64_t g = 0; g < n_groups; g++)
                ld[lr * n_groups + g] = in->depths[r * n_groups + g];
            for (int64_t k = in->rail_off[r]; k < in->rail_off[r + 1]; k++)
                ws->lcores[pos++] = in->rail_cores[k];
        }
    }
    ws->loff[R] = pos;

    for (int64_t wire = 0; ; wire++) {
        const int64_t ne = rpr_groups(R, n_groups, in->capture, ld,
                                      in->patterns, in->gids, ws->gb,
                                      ws->et, ws->em, ws->eg, ws->ex);
        int64_t t_si = 0;
        const int64_t ns = rpr_greedy(ne, ws->et, ws->em, ws->eg, ws->ex,
                                      ws->sb, ws->se, ws->sg, ws->sx,
                                      ws->run_end, ws->run_mask, ws->used,
                                      &t_si);
        if (ns < 0)
            return -2;
        int64_t t_in = 0;
        for (int64_t r = 0; r < R; r++)
            if (lt[r] > t_in)
                t_in = lt[r];
        if (wire == leftover) {
            *total_out = t_in + t_si;
            return 0;
        }
        uint64_t cand = rpr_bottlenecks(R, lt, t_in, ns, ws->sb, ws->se,
                                        ws->sx, ws->gb, t_si, ws->ord,
                                        ws->crit);
        if (!cand)
            cand = (R == 64) ? ~0ULL : ((1ULL << R) - 1);
        int64_t best_total = INT64_MAX, best_r = -1, best_tin = 0;
        for (int64_t r = 0; r < R; r++) {
            if (!(cand & (1ULL << r)))
                continue;
            int64_t tin_r = 0;
            const int64_t total = rpr_score_widen(in, ws, R, r, &tin_r);
            if (total < 0)
                return total;
            if (total < best_total) {
                best_total = total;
                best_r = r;
                best_tin = tin_r;
                for (int64_t g = 0; g < n_groups; g++)
                    ws->best_d[g] = ws->cand_d[g];
            }
        }
        if (best_r < 0)
            return -1;
        ws->choices[wire] = best_r;
        lw[best_r] += 1;
        lt[best_r] = best_tin;
        for (int64_t g = 0; g < n_groups; g++)
            ld[best_r * n_groups + g] = ws->best_d[g];
    }
}

/* Walk n_cand candidates (partner, width, leftover, total) of merging
 * `rail` with the optimizer's first-minimum strict-< selection against
 * `incumbent`: once the best reaches floor_total no candidate can
 * strictly beat it, so the rest are pruned unscored.  cursor receives
 * the walk's outcome on every return: candidates walked, best index (-1:
 * none), best total, pruned count, wires distributed, replays run.  The
 * winner's wire choices land in choices_out.  Returns 0 when the whole
 * sweep was walked, or -1/-2 on a hard error with cursor[0] at the
 * first candidate not scored. */
int64_t repro_merge_sweep(
    int64_t n_rails, int64_t n_groups, int64_t capture,
    const int64_t *widths, const int64_t *time_in, const int64_t *depths,
    const int64_t *rail_off, const int32_t *rail_cores,
    const int64_t *woc, const int64_t *cg_off, const int32_t *cg_ids,
    const int64_t *patterns, const int64_t *gids,
    const int64_t *table, int64_t cap,
    int64_t rail, int64_t incumbent, int64_t floor_total,
    int64_t n_cand, const int64_t *cand,
    int64_t *cursor, int64_t *choices_out)
{
    int64_t pos = 0, best = -1, best_total = incumbent;
    int64_t pruned = 0, wires = 0, runs = 0;
    cursor[0] = pos;
    cursor[1] = best;
    cursor[2] = best_total;
    cursor[3] = cursor[4] = cursor[5] = 0;
    if (n_rails > 64 || n_rails < 2)
        return -1;
    int64_t max_left = 1;
    for (int64_t i = 0; i < n_cand; i++) {
        if (cand[4 * i + 2] < 0)
            return -1;
        if (cand[4 * i + 2] > max_left)
            max_left = cand[4 * i + 2];
    }
    const rpr_in in = {
        n_rails, n_groups, capture, cap, widths, time_in, depths, rail_off,
        rail_cores, woc, cg_off, cg_ids, patterns, gids, table,
    };
    rpr_ws ws;
    void *arena = rpr_ws_alloc(&ws, n_rails - 1, n_groups ? n_groups : 1,
                               rail_off[n_rails], max_left);
    if (!arena)
        return -1;
    int64_t status = 0;
    for (; pos < n_cand; pos++) {
        if (best_total <= floor_total) {
            pruned += n_cand - pos;
            pos = n_cand;
            break;
        }
        const int64_t *cd = cand + 4 * pos;
        const int64_t leftover = cd[2];
        if (!leftover) {                /* exact merge, batch-scored */
            if (cd[3] < 0)
                pruned++;
            else if (cd[3] < best_total) {
                best_total = cd[3];
                best = pos;
            }
            continue;
        }
        int64_t total = 0;
        status = rpr_replay(&in, &ws, rail, cd[0], cd[1], leftover, &total);
        if (status < 0)
            break;
        wires += leftover;
        runs++;
        if (total < best_total) {
            best_total = total;
            best = pos;
            for (int64_t w = 0; w < leftover; w++)
                choices_out[w] = ws.choices[w];
        }
    }
    cursor[0] = pos;
    cursor[1] = best;
    cursor[2] = best_total;
    cursor[3] = pruned;
    cursor[4] = wires;
    cursor[5] = runs;
    free(arena);
    return status;
}
"""

#: The state arguments both entry points open with.
_STATE_ARGTYPES = [
    ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,  # rails/groups/capture
    ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,  # widths/tin/depths
    ctypes.c_void_p, ctypes.c_void_p,  # rail_off, rail_cores
    ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,  # woc, cg CSR
    ctypes.c_void_p, ctypes.c_void_p,  # patterns, gids
    ctypes.c_void_p, ctypes.c_int64,   # table, cap
]


def _bind(so_path: str) -> SimpleNamespace:
    lib = ctypes.CDLL(so_path)
    scan = lib.repro_move_scan
    scan.restype = ctypes.c_int64
    scan.argtypes = _STATE_ARGTYPES + [
        ctypes.c_int64, ctypes.c_void_p,   # n_moves, kinds
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,  # ma, mb, mc
        ctypes.c_void_p,                   # totals_out
    ]
    sweep = lib.repro_merge_sweep
    sweep.restype = ctypes.c_int64
    sweep.argtypes = _STATE_ARGTYPES + [
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,  # rail/incumbent/floor
        ctypes.c_int64, ctypes.c_void_p,   # n_cand, candidates
        ctypes.c_void_p, ctypes.c_void_p,  # cursor, choices
    ]
    return SimpleNamespace(scan=scan, sweep=sweep)


def score_moves(n_rails, n_groups, capture, widths, time_in, depths,
                rail_off, rail_cores, woc, cg_off, cg_ids, patterns, gids,
                table, cap, kinds, ma, mb, mc, lib=None):
    """Score a candidate batch in C; ``None`` when the engine is
    unavailable or reports a hard error (callers fall back to the Python
    patch path).

    All array arguments are :mod:`array` buffers in the layout described
    by the C source; returns one ``T_soc`` total per candidate.
    """
    lib = lib or ENGINE.get()
    if lib is None:
        return None
    n_moves = len(kinds)
    totals = array("q", bytes(8 * n_moves))
    status = lib.scan(
        n_rails, n_groups, capture,
        _addr(widths), _addr(time_in), _addr(depths),
        _addr(rail_off), _addr(rail_cores),
        _addr(woc), _addr(cg_off), _addr(cg_ids),
        _addr(patterns), _addr(gids),
        _addr(table), cap,
        n_moves, _addr(kinds),
        _addr(ma), _addr(mb), _addr(mc),
        _addr(totals),
    )
    if status < 0:
        return None
    return list(totals)


def merge_sweep(n_rails, n_groups, capture, widths, time_in, depths,
                rail_off, rail_cores, woc, cg_off, cg_ids, patterns, gids,
                table, cap, rail, incumbent, floor_total, candidates,
                cursor, choices, lib=None):
    """Walk one mergeTAMs sweep in a single C call; ``None`` when the
    engine is unavailable.

    ``table``/``cap`` are the fixed InTest time table, as for
    :func:`score_moves`.  ``candidates`` holds four integers per
    candidate — partner, merged width, leftover wires, and for exact
    merges the batch-scored total (negative when bound-pruned).  The walk
    starts from ``incumbent`` and writes its outcome into the six-slot
    ``cursor`` (candidates walked, best index or -1, best total, pruned,
    wires distributed, replays); ``choices`` receives the winner's chosen
    rail per leftover wire (post-merge indexing).  Returns 0 when the
    whole sweep was walked, or a negative status on a hard error (a
    width outside the table, among others) with ``cursor[0]`` at the
    first candidate not scored.
    """
    lib = lib or ENGINE.get()
    if lib is None:
        return None
    return lib.sweep(
        n_rails, n_groups, capture,
        _addr(widths), _addr(time_in), _addr(depths),
        _addr(rail_off), _addr(rail_cores),
        _addr(woc), _addr(cg_off), _addr(cg_ids),
        _addr(patterns), _addr(gids),
        _addr(table), cap,
        rail, incumbent, floor_total, len(candidates) // 4,
        _addr(candidates), _addr(cursor), _addr(choices),
    )


def _smoke(lib) -> bool:
    """Hand-rolled calls guarding against ABI/layout mishaps.

    Two one-core rails of width 1; core 0 has WOC 2 and belongs to the
    single SI group (3 patterns, 1 capture cycle), core 1 has none.  The
    base state costs 10 + 9 = 19; widening rail 0 must score 12, moving
    core 1 onto rail 0 must score 23, and merging both rails onto two
    wires must score 16 — worked by hand from the timing model.  The
    sweep on the same SOC is :func:`_smoke_sweep`.
    """
    out = score_moves(
        2, 1, 1,
        array("q", (1, 1)), array("q", (10, 4)), array("q", (2, 0)),
        array("q", (0, 1, 2)), array("i", (0, 1)),       # rail CSR
        array("q", (2, 0)),                               # woc
        array("q", (0, 1, 1)), array("i", (0,)),          # core-group CSR
        array("q", (3,)), array("q", (0,)),               # patterns, gids
        array("q", (10, 6, 4, 4)), 2,                     # time table, cap
        array("q", (0, 1, 2)),                            # kinds
        array("q", (0, 1, 0)),                            # a
        array("q", (0, 1, 1)),                            # b
        array("q", (0, 0, 2)),                            # c
        lib=lib,
    )
    return out == [12, 23, 16] and _smoke_sweep(lib)


def _smoke_sweep(lib) -> bool:
    """Hand-worked sweep on the same tiny SOC, merging rail 0 with rail 1
    from the incumbent 19 against a floor of 16.

    Candidate 0 is an exact merge its bound pruned; candidate 1 an exact
    merge batch-scored at 17, the first improvement.  Candidate 2 merges
    onto one wire with one leftover: 14 + 9 = 23 before redistribution,
    and widening the only (merged) rail lands on 10 + 6 = 16 with choice
    [0].  16 reaches the floor, so candidates 3 and 4 are pruned
    unscored: 5 walked, winner 2 at 16, 3 pruned, 1 wire, 1 replay.
    """
    cursor = array("q", bytes(8 * 6))
    choices = array("q", (0,))
    status = merge_sweep(
        2, 1, 1,
        array("q", (1, 1)), array("q", (10, 4)), array("q", (2, 0)),
        array("q", (0, 1, 2)), array("i", (0, 1)),       # rail CSR
        array("q", (2, 0)),                               # woc
        array("q", (0, 1, 1)), array("i", (0,)),          # core-group CSR
        array("q", (3,)), array("q", (0,)),               # patterns, gids
        array("q", (10, 6, 4, 4)), 2,                     # time table, cap
        0, 19, 16,                                        # rail, incumbent, floor
        array("q", (1, 2, 0, -1, 1, 2, 0, 17, 1, 1, 1, 0,
                    1, 2, 0, 16, 1, 1, 1, 0)),            # candidates
        cursor, choices, lib=lib,
    )
    return (status == 0
            and list(cursor) == [5, 2, 16, 3, 1, 1]
            and list(choices) == [0])


ENGINE = Engine("movescan", _SOURCE, "REPRO_OPTIMIZER_CSCAN", _bind, _smoke)
available = ENGINE.available
