"""Optional C engine for the greedy compaction scan and hypergraph bisection.

:func:`repro.compaction.vertical.greedy_compact` runs its scan here
whenever the engine loads: two bit-parallel inner loops, building the
conflict index and pruning the candidate bitset as the merge acquires
cares.  Both are pure word-level AND/OR sweeps over the pattern index,
with the reference greedy's visit order and dedup rules (see the
``greedy_compact`` docstring for the equivalence argument).

The same library runs the bisections of
:func:`repro.hypergraph.multilevel.partition` (recursive bisection:
multi-start greedy growth plus FM) on core hypergraphs of at most 64
vertices, with one 64-bit pin mask per edge
(:class:`~repro.hypergraph.packed.PackedHypergraph`): :func:`restrict`
maps the edges onto a vertex subset, :func:`grow` is the greedy initial
bisection, :func:`refine` runs the FM passes and :func:`cut` prices a
k-way assignment.  Each replays its Python counterpart in
:mod:`repro.hypergraph.multilevel` / :mod:`repro.hypergraph.fm` exactly
(same floating-point summation order, same move order and tie-breaks),
so the partition is identical on either path.

The engine is optional and loaded by :mod:`repro.runtime.native`
(toggle ``REPRO_COMPACTION_CSCAN``): when it is unavailable, greedy
compaction runs the reference greedy, the partitioner its Python
counterpart, and pattern sets are generated as lists and encoded.  The
bisection's attachment sums round as Python's do because the loader
builds without fast-math.

The scan works on the flat integer arrays of a
:class:`~repro.compaction.kernel.PatternIndex` only — pattern cares as
dense ``(terminal, symbol)`` ids in CSR layout, bus claims likewise — plus
the rows of the bucket to scan, which it gathers itself.  It
returns the merge cycles as a flat member array plus cycle offsets.  All
symbol/terminal semantics stay in Python; the C code never sees a pattern
object.

The library also draws random SI pattern sets straight into those arrays
(:func:`draw_index`): Python seeds the generator's ``random.Random`` and
hands over blocks of its raw 32-bit outputs, and C replays
:func:`repro.sitest.generator.generate_random_patterns` on them.
"""

from __future__ import annotations

import ctypes
import random
import sys
from array import array
from types import SimpleNamespace

from repro.runtime.native import Engine, _addr

__all__ = ["ENGINE", "available", "cut", "draw_index", "greedy_scan", "grow",
           "refine", "restrict"]

_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Greedy clique-cover scan over packed bitsets.
 *
 * Pattern i owns bit i.  Per cycle the lowest remaining pattern seeds the
 * merge, then candidates are absorbed in ascending index order; whenever
 * the merge acquires a care (terminal, symbol) or bus claim it has not
 * seen this cycle, that key's conflict mask is cleared out of the
 * eligible set.  A key's conflict mask is the union of its terminal's (or
 * line's) other symbol slices: conflict = (OR of the slices) & ~own slice.
 *
 * Care conflict masks are sparse (most words are zero), so each is a list
 * of (word, bits) entries in ascending word order, built from the rows'
 * CSR: per care id and per terminal, the occupied words as the rows come
 * in, then per care id its terminal's entries minus its own bits.  A mask
 * is applied from the first entry at or after the current word (binary
 * search).  Bus masks are dense (most words are nonzero) and stay W-word
 * rows.  words_compared counts care entries plus bus words applied.
 */

/* Append bit `bit` of word w to the ascending entry list at off[k] of
 * length len[k]: OR into its last entry when that is word w. */
static inline void entry_set(int32_t *word, uint64_t *bits,
                             const int64_t *off, int64_t *len, int64_t k,
                             int32_t w, uint64_t bit)
{
    const int64_t at = off[k] + len[k];
    if (len[k] && word[at - 1] == w) {
        bits[at - 1] |= bit;
    } else {
        word[at] = w;
        bits[at] = bit;
        len[k]++;
    }
}

/* Clear care id c's conflict entries at words >= from out of `eligible`;
 * returns the number of entries applied. */
static inline int64_t apply_care(const int32_t *cf_word,
                                 const uint64_t *cf_bits,
                                 const int64_t *cf_off, const int64_t *cf_len,
                                 int32_t c, int64_t from, uint64_t *eligible)
{
    int64_t lo = cf_off[c], hi = cf_off[c] + cf_len[c];
    const int64_t end = hi;
    while (lo < hi) {
        const int64_t mid = (lo + hi) >> 1;
        if (cf_word[mid] < from) lo = mid + 1; else hi = mid;
    }
    for (int64_t k = lo; k < end; k++)
        eligible[cf_word[k]] &= ~cf_bits[k];
    return end - lo;
}

static int64_t scan(
    int64_t n,
    const int32_t *care_flat, const int64_t *care_off,
    const int32_t *tid_of, int64_t n_care_ids, int64_t n_tids,
    const int32_t *bus_flat, const int64_t *bus_off,
    const int32_t *line_of, int64_t n_bus_ids, int64_t n_lines,
    int32_t *members_out, int64_t *cycle_off_out, int64_t *stats_out)
{
    const int64_t W = (n + 63) >> 6;
    const int64_t n_occ = care_off[n];  /* care occurrences in the rows */
    /* offsets and lengths: care occupancy, terminal occupancy, conflict */
    int64_t *occ_off = malloc((size_t)(4 * n_care_ids + 2 * n_tids + 3) * 8);
    int32_t *ent_word = malloc((size_t)(2 * n_occ + 1) * 4);
    uint64_t *ent_bits = malloc((size_t)(2 * n_occ + 1) * 8);
    uint64_t *bus_masks = calloc((size_t)n_bus_ids * W + 1, 8);
    uint64_t *line_totals = calloc((size_t)n_lines * W + 1, 8);
    uint64_t *avail = malloc((size_t)W * 8);
    uint64_t *eligible = malloc((size_t)W * 8);
    uint32_t *epochs = calloc((size_t)(n_tids + n_lines) + 1, 4);
    int32_t *cf_word = NULL;
    uint64_t *cf_bits = NULL;
    int64_t status = -1;
    if (!occ_off || !ent_word || !ent_bits || !bus_masks || !line_totals
        || !avail || !eligible || !epochs)
        goto done;
    int64_t *occ_len = occ_off + n_care_ids + 1;
    int64_t *tot_off = occ_len + n_care_ids;
    int64_t *tot_len = tot_off + n_tids + 1;
    int64_t *cf_off = tot_len + n_tids;
    int64_t *cf_len = cf_off + n_care_ids + 1;
    int32_t *occ_word = ent_word, *tot_word = ent_word + n_occ;
    uint64_t *occ_bits = ent_bits, *tot_bits = ent_bits + n_occ;
    uint32_t *tid_epoch = epochs;
    uint32_t *line_epoch = epochs + n_tids;

    /* occupancy lists: a care id or terminal gets at most one entry per
     * occurrence, so its occurrence count bounds its list */
    memset(occ_off, 0, (size_t)(2 * n_care_ids + 2 * n_tids + 2) * 8);
    for (int64_t k = 0; k < n_occ; k++) {
        occ_off[care_flat[k] + 1]++;
        tot_off[tid_of[care_flat[k]] + 1]++;
    }
    for (int64_t c = 0; c < n_care_ids; c++) occ_off[c + 1] += occ_off[c];
    for (int64_t t = 0; t < n_tids; t++) tot_off[t + 1] += tot_off[t];
    for (int64_t i = 0; i < n; i++) {
        const uint64_t bit = 1ULL << (i & 63);
        const int32_t w = (int32_t)(i >> 6);
        for (int64_t k = care_off[i]; k < care_off[i + 1]; k++) {
            const int32_t c = care_flat[k];
            entry_set(occ_word, occ_bits, occ_off, occ_len, c, w, bit);
            entry_set(tot_word, tot_bits, tot_off, tot_len, tid_of[c], w, bit);
        }
        for (int64_t k = bus_off[i]; k < bus_off[i + 1]; k++)
            bus_masks[(size_t)bus_flat[k] * W + (i >> 6)] |= bit;
    }
    /* conflict lists: the terminal's entries minus the care id's own bits
     * (its occupied words are a subset of the terminal's) */
    cf_off[0] = 0;
    for (int64_t c = 0; c < n_care_ids; c++)
        cf_off[c + 1] = cf_off[c] + tot_len[tid_of[c]];
    cf_word = malloc((size_t)(cf_off[n_care_ids] + 1) * 4);
    cf_bits = malloc((size_t)(cf_off[n_care_ids] + 1) * 8);
    if (!cf_word || !cf_bits)
        goto done;
    for (int64_t c = 0; c < n_care_ids; c++) {
        const int32_t t = tid_of[c];
        int64_t j = occ_off[c];
        const int64_t j_end = j + occ_len[c];
        int64_t at = cf_off[c];
        for (int64_t k = tot_off[t]; k < tot_off[t] + tot_len[t]; k++) {
            uint64_t own = 0;
            if (j < j_end && occ_word[j] == tot_word[k])
                own = occ_bits[j++];
            const uint64_t bits = tot_bits[k] & ~own;
            if (bits) {
                cf_word[at] = tot_word[k];
                cf_bits[at++] = bits;
            }
        }
        cf_len[c] = at - cf_off[c];
    }
    /* bus: per-line totals, then occupancy -> conflict masks in place
     * (a claim's mask is a subset of its line's total) */
    for (int64_t b = 0; b < n_bus_ids; b++) {
        uint64_t *t = line_totals + (size_t)line_of[b] * W;
        const uint64_t *m = bus_masks + (size_t)b * W;
        for (int64_t w = 0; w < W; w++) t[w] |= m[w];
    }
    for (int64_t b = 0; b < n_bus_ids; b++) {
        const uint64_t *t = line_totals + (size_t)line_of[b] * W;
        uint64_t *m = bus_masks + (size_t)b * W;
        for (int64_t w = 0; w < W; w++) m[w] = t[w] & ~m[w];
    }

    memset(avail, 0xff, (size_t)W * 8);
    if (n & 63)
        avail[W - 1] = (1ULL << (n & 63)) - 1;

    int64_t pruned = 0, words = 0, m_count = 0, cycles = 0;
    int64_t cursor = 0;  /* lowest possibly-nonzero avail word */
    int64_t live = n;    /* popcount of avail */
    uint32_t epoch = 0;
    while (live) {
        while (!avail[cursor]) cursor++;
        const int64_t seed =
            (cursor << 6) + (int64_t)__builtin_ctzll(avail[cursor]);
        avail[cursor] &= avail[cursor] - 1;  /* clear lowest set bit */
        live--;
        const int64_t candidates = live;
        int64_t absorbed = 1;
        members_out[m_count++] = (int32_t)seed;
        epoch++;
        memset(eligible, 0, (size_t)cursor * 8);
        memcpy(eligible + cursor, avail + cursor, (size_t)(W - cursor) * 8);
        /* pattern j joins the merge, j = seed first; bits at or below j
         * are already decided, so masks apply from j's word jw up only */
        int64_t j = seed, jw = cursor;
        for (;;) {
            for (int64_t k = care_off[j]; k < care_off[j + 1]; k++) {
                const int32_t cid = care_flat[k];
                const int32_t tid = tid_of[cid];
                if (tid_epoch[tid] != epoch) {
                    tid_epoch[tid] = epoch;
                    words += apply_care(cf_word, cf_bits, cf_off, cf_len,
                                        cid, jw, eligible);
                }
            }
            for (int64_t k = bus_off[j]; k < bus_off[j + 1]; k++) {
                const int32_t bid = bus_flat[k];
                const int32_t line = line_of[bid];
                if (line_epoch[line] != epoch) {
                    line_epoch[line] = epoch;
                    const uint64_t *c = bus_masks + (size_t)bid * W;
                    for (int64_t w = jw; w < W; w++) eligible[w] &= ~c[w];
                    words += W - jw;
                }
            }
            while (jw < W && !eligible[jw]) jw++;
            if (jw == W)
                break;
            const uint64_t wval = eligible[jw];
            j = (jw << 6) + (int64_t)__builtin_ctzll(wval);
            eligible[jw] = wval & (wval - 1);
            avail[jw] &= ~(1ULL << (j & 63));
            live--;
            absorbed++;
            members_out[m_count++] = (int32_t)j;
        }
        pruned += candidates - (absorbed - 1);
        cycle_off_out[++cycles] = m_count;
    }
    stats_out[0] = pruned;
    stats_out[1] = words;
    status = cycles;
done:
    free(occ_off); free(ent_word); free(ent_bits); free(bus_masks);
    free(line_totals); free(avail); free(eligible); free(epochs);
    free(cf_word); free(cf_bits);
    return status;
}

/* Scan the patterns at `rows` of a whole encoded set, in that order.
 *
 * The rows are gathered into a local CSR whose care/claim, terminal and
 * line ids are renumbered densely in first-seen order, so the masks
 * cover only what the bucket uses, whatever the size of the whole set.
 * Members come back as positions into `rows`.
 */
int64_t repro_greedy_scan(
    int64_t n, const int32_t *rows,
    const int32_t *care_flat, const int64_t *care_off,
    const int32_t *tid_of, int64_t n_care_ids, int64_t n_tids,
    const int32_t *bus_flat, const int64_t *bus_off,
    const int32_t *line_of, int64_t n_bus_ids, int64_t n_lines,
    int32_t *members_out, int64_t *cycle_off_out, int64_t *stats_out)
{
    stats_out[0] = 0;
    stats_out[1] = 0;
    cycle_off_out[0] = 0;
    if (n == 0)
        return 0;
    int64_t n_cares = 0, n_claims = 0;
    for (int64_t i = 0; i < n; i++) {
        const int32_t r = rows[i];
        n_cares += care_off[r + 1] - care_off[r];
        n_claims += bus_off[r + 1] - bus_off[r];
    }
    const size_t n_ids = (size_t)(n_cares + n_claims) + 1;
    const size_t n_global = (size_t)(n_care_ids + n_tids + n_bus_ids
                                     + n_lines) + 1;
    int32_t *flat = malloc(n_ids * 4);
    int32_t *group_of = malloc(n_ids * 4);
    int64_t *off = malloc((size_t)(n + 1) * 2 * 8);
    int32_t *local = malloc(n_global * 4);
    if (!flat || !group_of || !off || !local) {
        free(flat); free(group_of); free(off); free(local);
        return -1;
    }
    memset(local, 0xff, n_global * 4);  /* -1: not seen in these rows */
    int32_t *cid_local = local;
    int32_t *tid_local = cid_local + n_care_ids;
    int32_t *bid_local = tid_local + n_tids;
    int32_t *line_local = bid_local + n_bus_ids;
    int32_t *lcare = flat, *lbus = flat + n_cares;
    int32_t *ltid_of = group_of, *lline_of = group_of + n_cares;
    int64_t *lcare_off = off, *lbus_off = off + n + 1;
    int32_t nc = 0, nt = 0, nb = 0, nl = 0;
    int64_t kc = 0, kb = 0;
    lcare_off[0] = 0;
    lbus_off[0] = 0;
    for (int64_t i = 0; i < n; i++) {
        const int32_t r = rows[i];
        for (int64_t k = care_off[r]; k < care_off[r + 1]; k++) {
            const int32_t g = care_flat[k];
            if (cid_local[g] < 0) {
                const int32_t t = tid_of[g];
                if (tid_local[t] < 0) tid_local[t] = nt++;
                ltid_of[nc] = tid_local[t];
                cid_local[g] = nc++;
            }
            lcare[kc++] = cid_local[g];
        }
        lcare_off[i + 1] = kc;
        for (int64_t k = bus_off[r]; k < bus_off[r + 1]; k++) {
            const int32_t g = bus_flat[k];
            if (bid_local[g] < 0) {
                const int32_t l = line_of[g];
                if (line_local[l] < 0) line_local[l] = nl++;
                lline_of[nb] = line_local[l];
                bid_local[g] = nb++;
            }
            lbus[kb++] = bid_local[g];
        }
        lbus_off[i + 1] = kb;
    }
    const int64_t cycles = scan(
        n, lcare, lcare_off, ltid_of, nc, nt, lbus, lbus_off, lline_of,
        nb, nl, members_out, cycle_off_out, stats_out);
    free(flat); free(group_of); free(off); free(local);
    return cycles;
}

/* Hypergraph bisection over pin masks.
 *
 * A graph of n <= 64 vertices is one uint64 per edge (bit v = vertex v
 * is a pin) plus parallel edge weights, in the Python graph's edge order.
 * Assignments cross the boundary as one int32 part per vertex.  Each
 * step replays the Python code of repro.hypergraph exactly: the same
 * summation order for the floating-point attachments, the same move
 * order and tie-breaks for FM.
 */

/* Edges of `masks` mapped onto vertices[0..k): local pin j is vertex
 * vertices[j]; edges left with fewer than two pins are dropped.  Returns
 * the number of edges written. */
int64_t repro_hg_restrict(
    int64_t m, const uint64_t *masks, const int64_t *edge_w,
    int64_t k, const int32_t *vertices,
    uint64_t *masks_out, int64_t *edge_w_out)
{
    uint64_t keep = 0;
    for (int64_t j = 0; j < k; j++)
        keep |= 1ULL << vertices[j];
    int64_t out = 0;
    for (int64_t e = 0; e < m; e++) {
        const uint64_t src = masks[e] & keep;
        if (__builtin_popcountll(src) < 2)
            continue;
        uint64_t dst = 0;
        for (int64_t j = 0; j < k; j++)
            dst |= ((src >> vertices[j]) & 1ULL) << j;
        masks_out[out] = dst;
        edge_w_out[out++] = edge_w[e];
    }
    return out;
}

/* Greedy region growth from `seed`: absorb the unabsorbed vertex with
 * the largest attachment (ties: lighter, then lower index) until part 0
 * reaches `target0`.  Attachments add w(e) / (|e| - 1) per absorbed pin,
 * in ascending edge order, then ascending pin order. */
void repro_hg_grow(
    int64_t n, const int64_t *vertex_w,
    int64_t m, const uint64_t *masks, const int64_t *edge_w,
    int64_t seed, int64_t target0, int32_t *part_out)
{
    double attachment[64] = {0};
    uint64_t in0 = 1ULL << seed;
    int64_t weight0 = vertex_w[seed];
    int64_t vertex = seed;
    for (;;) {
        const uint64_t bit = 1ULL << vertex;
        for (int64_t e = 0; e < m; e++) {
            if (!(masks[e] & bit))
                continue;
            const double share = (double)edge_w[e]
                / (double)(__builtin_popcountll(masks[e]) - 1);
            for (uint64_t rest = masks[e] & ~in0; rest; rest &= rest - 1)
                attachment[__builtin_ctzll(rest)] += share;
        }
        if (weight0 >= target0)
            break;
        int64_t best = -1;
        double best_attachment = -1.0;
        int64_t best_weight = 0;
        for (int64_t v = 0; v < n; v++) {
            if (in0 >> v & 1ULL)
                continue;
            if (attachment[v] > best_attachment
                || (attachment[v] == best_attachment
                    && -vertex_w[v] > best_weight)) {
                best = v;
                best_attachment = attachment[v];
                best_weight = -vertex_w[v];
            }
        }
        if (best < 0)
            break;
        in0 |= 1ULL << best;
        weight0 += vertex_w[best];
        vertex = best;
    }
    for (int64_t v = 0; v < n; v++)
        part_out[v] = (int32_t)(~in0 >> v & 1ULL);
}

/* Gain of moving each vertex of `side` (the part-1 mask) across. */
static void hg_gains(
    int64_t m, const uint64_t *masks, const int64_t *edge_w,
    uint64_t side, int64_t *gain)
{
    for (int64_t e = 0; e < m; e++) {
        const uint64_t mask = masks[e];
        const int in1 = __builtin_popcountll(mask & side);
        const int in0 = __builtin_popcountll(mask) - in1;
        const int64_t w = edge_w[e];
        const int64_t g0 = w * ((in0 == 1) - (in1 == 0));
        const int64_t g1 = w * ((in1 == 1) - (in0 == 0));
        for (uint64_t p = mask & ~side; g0 && p; p &= p - 1)
            gain[__builtin_ctzll(p)] += g0;
        for (uint64_t p = mask & side; g1 && p; p &= p - 1)
            gain[__builtin_ctzll(p)] += g1;
    }
}

/* One FM pass over `*side`; returns whether the cut strictly improved.
 * The next move is the unlocked vertex of largest gain, lowest index on
 * ties: the order the Python pass pops its lazy heap in. */
static int hg_fm_pass(
    int64_t n, const int64_t *vertex_w,
    int64_t m, const uint64_t *masks, const int64_t *edge_w,
    int64_t lower, int64_t upper, uint64_t *side)
{
    const uint64_t all = n == 64 ? ~0ULL : (1ULL << n) - 1;
    int64_t gain[64] = {0};
    int32_t moves[64];
    int64_t weight0 = 0;
    for (int64_t v = 0; v < n; v++)
        if (!(*side >> v & 1ULL))
            weight0 += vertex_w[v];
    hg_gains(m, masks, edge_w, *side, gain);
    uint64_t locked = 0;
    int64_t count = 0, cumulative = 0, best_cumulative = 0, best_prefix = 0;
    while (locked != all) {
        int64_t vertex = -1;
        for (uint64_t free_ = all & ~locked; free_; free_ &= free_ - 1) {
            const int64_t v = __builtin_ctzll(free_);
            if (vertex < 0 || gain[v] > gain[vertex])
                vertex = v;
        }
        const uint64_t bit = 1ULL << vertex;
        const int to1 = !(*side & bit);
        const int64_t new_weight0 =
            to1 ? weight0 - vertex_w[vertex] : weight0 + vertex_w[vertex];
        locked |= bit;
        if (new_weight0 < lower || new_weight0 > upper)
            continue;  /* cannot move this pass */
        weight0 = new_weight0;
        cumulative += gain[vertex];
        moves[count++] = (int32_t)vertex;
        if (cumulative > best_cumulative) {
            best_cumulative = cumulative;
            best_prefix = count;
        }
        /* Patch the gains of unlocked pins on the incident edges by each
         * edge's change in contribution. */
        const uint64_t old_side = *side;
        *side ^= bit;
        for (int64_t e = 0; e < m; e++) {
            const uint64_t mask = masks[e];
            if (!(mask & bit))
                continue;
            const int size = __builtin_popcountll(mask);
            const int old1 = __builtin_popcountll(mask & old_side);
            const int new1 = old1 + (to1 ? 1 : -1);
            const int old0 = size - old1, new0 = size - new1;
            const int64_t w = edge_w[e];
            const int64_t d0 = w * ((new0 == 1) - (old0 == 1)
                                    - (new1 == 0) + (old1 == 0));
            const int64_t d1 = w * ((new1 == 1) - (old1 == 1)
                                    - (new0 == 0) + (old0 == 0));
            const uint64_t open = mask & ~locked;
            for (uint64_t p = open & ~*side; d0 && p; p &= p - 1)
                gain[__builtin_ctzll(p)] += d0;
            for (uint64_t p = open & *side; d1 && p; p &= p - 1)
                gain[__builtin_ctzll(p)] += d1;
        }
    }
    for (int64_t i = best_prefix; i < count; i++)
        *side ^= 1ULL << moves[i];
    return best_cumulative > 0;
}

/* Up to `max_passes` FM passes on the bisection `part` (in place),
 * keeping part 0's weight within [lower, upper]. */
void repro_hg_refine(
    int64_t n, const int64_t *vertex_w,
    int64_t m, const uint64_t *masks, const int64_t *edge_w,
    int64_t lower, int64_t upper, int64_t max_passes, int32_t *part)
{
    uint64_t side = 0;
    for (int64_t v = 0; v < n; v++)
        if (part[v])
            side |= 1ULL << v;
    for (int64_t pass = 0; pass < max_passes; pass++)
        if (!hg_fm_pass(n, vertex_w, m, masks, edge_w, lower, upper, &side))
            break;
    for (int64_t v = 0; v < n; v++)
        part[v] = (int32_t)(side >> v & 1ULL);
}

/* Random SI pattern draw straight into the PatternIndex encoding.
 *
 * Replays repro.sitest.generator._random_pattern on a block of CPython
 * Mersenne Twister outputs (the caller's random.Random(seed)), one
 * uint32 per genrand call, through CPython's own formulas:
 * getrandbits(k <= 32) is word >> (32 - k), randbelow(n) rejects
 * getrandbits(n.bit_length()) draws >= n, choice/randrange/randint are
 * randbelow offsets, sample takes its pool path when n <= setsize and its
 * set path otherwise, and random() is two words, 27 and 26 bits.
 *
 * A drawn stream that runs dry marks the stream; the pattern in flight
 * is then dropped before any of it is encoded, and the caller resumes at
 * the returned word position with more words.  Encoding assigns care,
 * terminal, claim, line and care-core-set ids in first-seen order, as
 * PatternIndex.__init__ does.
 */
typedef struct {
    const uint32_t *words;
    int64_t n, pos;
    int dry;
} stream_t;

static inline int64_t draw_bits(stream_t *s, int k)
{
    if (s->pos >= s->n) {
        s->dry = 1;
        return 0;
    }
    return (int64_t)(s->words[s->pos++] >> (32 - k));
}

static inline int64_t draw_below(stream_t *s, int64_t n)
{
    const int k = 64 - __builtin_clzll((uint64_t)n);  /* n.bit_length() */
    int64_t r = draw_bits(s, k);
    while (r >= n && !s->dry)
        r = draw_bits(s, k);
    return r;
}

static inline double draw_unit(stream_t *s)
{
    const int64_t a = draw_bits(s, 27), b = draw_bits(s, 26);
    return ((double)a * 67108864.0 + (double)b) * (1.0 / 9007199254740992.0);
}

/* random.sample(range(n), k) into out[0..k); pool holds n ints when the
 * pool path runs. */
static void draw_sample(stream_t *s, int64_t n, int64_t k, int64_t *out,
                        int64_t *pool)
{
    int64_t setsize = 21;
    if (k > 5) {
        int64_t power = 1;  /* 4 ** ceil(log(3k, 4)): 3k is never a power */
        while (power < 3 * k)
            power *= 4;
        setsize += power;
    }
    if (n <= setsize) {
        for (int64_t i = 0; i < n; i++)
            pool[i] = i;
        for (int64_t i = 0; i < k; i++) {
            const int64_t j = draw_below(s, n - i);
            out[i] = pool[j];
            pool[j] = pool[n - i - 1];
        }
        return;
    }
    for (int64_t i = 0; i < k; i++) {
        int64_t j;
        for (;;) {
            j = draw_below(s, n);
            int64_t seen = 0;
            for (int64_t q = 0; q < i && !seen; q++)
                seen = out[q] == j;
            if (!seen || s->dry)
                break;
        }
        out[i] = j;
    }
}

enum {  /* buffers of repro_draw_patterns, in `bufs` order */
    B_HOST_CORE, B_HOST_WOC, B_HOST_BASE,
    B_TID_MAP, B_CID_MAP, B_BID_MAP, B_LID_MAP, B_SET_TABLE,
    B_CARE_FLAT, B_CARE_OFF, B_TID_OF, B_CID_SYM, B_TID_CORE, B_TID_OUT,
    B_BUS_FLAT, B_BUS_OFF, B_LINE_OF, B_BID_LINE, B_BID_CORE,
    B_SET_OF, B_SET_FIRST, B_SET_COUNT, B_SET_MEM, B_SET_MEM_OFF,
};
enum {  /* cfg entries */
    C_HOSTS, C_MIN_AGGR, C_MAX_AGGR, C_MAX_EXT, C_BUS_WIDTH, C_COUNT,
    C_SET_MASK, C_POOL, C_SLOTS,
};
enum {  /* state entries, carried between calls */
    S_ROW, S_CARES, S_CLAIMS, S_TIDS, S_CIDS, S_BIDS, S_LINES, S_SETS,
    S_SET_MEM,
};

/* Draw patterns state[S_ROW] .. cfg[C_COUNT] - 1 from `words` into the
 * buffers; returns the word position after the last whole pattern drawn,
 * or -1 when scratch memory runs out. */
int64_t repro_draw_patterns(
    const int64_t *cfg, double bus_probability,
    const uint32_t *words, int64_t n_words,
    void *const *bufs, int64_t *state)
{
    const int64_t n_hosts = cfg[C_HOSTS], min_aggr = cfg[C_MIN_AGGR];
    const int64_t max_aggr = cfg[C_MAX_AGGR], max_ext = cfg[C_MAX_EXT];
    const int64_t bus_width = cfg[C_BUS_WIDTH], count = cfg[C_COUNT];
    const int64_t set_mask = cfg[C_SET_MASK];
    const int32_t *host_core = bufs[B_HOST_CORE];
    const int32_t *host_woc = bufs[B_HOST_WOC];
    const int64_t *host_base = bufs[B_HOST_BASE];
    int32_t *tid_map = bufs[B_TID_MAP], *cid_map = bufs[B_CID_MAP];
    int32_t *bid_map = bufs[B_BID_MAP], *lid_map = bufs[B_LID_MAP];
    int32_t *set_table = bufs[B_SET_TABLE];
    int32_t *care_flat = bufs[B_CARE_FLAT];
    int64_t *care_off = bufs[B_CARE_OFF];
    int32_t *tid_of = bufs[B_TID_OF], *cid_sym = bufs[B_CID_SYM];
    int32_t *tid_core = bufs[B_TID_CORE], *tid_out = bufs[B_TID_OUT];
    int32_t *bus_flat = bufs[B_BUS_FLAT];
    int64_t *bus_off = bufs[B_BUS_OFF];
    int32_t *line_of = bufs[B_LINE_OF], *bid_line = bufs[B_BID_LINE];
    int32_t *bid_core = bufs[B_BID_CORE];
    int32_t *set_of = bufs[B_SET_OF], *set_first = bufs[B_SET_FIRST];
    int64_t *set_count = bufs[B_SET_COUNT];
    int32_t *set_mem = bufs[B_SET_MEM];
    int64_t *set_mem_off = bufs[B_SET_MEM_OFF];

    const int64_t slots = cfg[C_SLOTS];  /* cares, picks or lines */
    int64_t *scratch = malloc((size_t)(6 * slots + cfg[C_POOL] + 1) * 8);
    if (!scratch)
        return -1;
    int64_t *c_host = scratch, *c_out = c_host + slots;
    int64_t *c_sym = c_out + slots, *picks = c_sym + slots;
    int64_t *lines = picks + slots, *members = lines + slots;
    int64_t *pool = members + slots;

    stream_t s = {words, n_words, 0, 0};
    int64_t consumed = 0;
    int64_t row = state[S_ROW];
    while (row < count) {
        /* -- draw one pattern (nothing encoded yet) -- */
        const int64_t victim = draw_below(&s, n_hosts);
        const int64_t victim_woc = host_woc[victim];
        const int64_t victim_out = draw_below(&s, victim_woc);
        int64_t nc = 1;
        c_host[0] = victim;
        c_out[0] = victim_out;
        c_sym[0] = draw_below(&s, 4);
        const int64_t total = min_aggr + draw_below(&s, max_aggr - min_aggr + 1);
        const int64_t ext_limit = max_ext < total ? max_ext : total;
        const int64_t ext = n_hosts > 1 ? draw_below(&s, ext_limit + 1) : 0;
        const int64_t internal = total - ext;
        const int64_t candidates = victim_woc - 1;
        const int64_t k = internal < candidates ? internal : candidates;
        draw_sample(&s, candidates, k, picks, pool);
        for (int64_t i = 0; i < k; i++) {
            c_host[nc] = victim;
            c_out[nc] = picks[i] >= victim_out ? picks[i] + 1 : picks[i];
            c_sym[nc++] = 2 + draw_below(&s, 2);
        }
        for (int64_t e = 0; e < ext; e++) {
            int64_t host = draw_below(&s, n_hosts - 1);
            if (host >= victim)
                host++;
            const int64_t out = draw_below(&s, host_woc[host]);
            int seen = 0;
            for (int64_t q = 0; q < nc && !seen; q++)
                seen = c_host[q] == host && c_out[q] == out;
            if (!seen) {
                c_host[nc] = host;
                c_out[nc] = out;
                c_sym[nc++] = 2 + draw_below(&s, 2);
            }
        }
        int64_t nl = 0;
        if (bus_width && draw_unit(&s) < bus_probability) {
            nl = 1 + draw_below(&s, total < bus_width ? total : bus_width);
            draw_sample(&s, bus_width, nl, lines, pool);
        }
        if (s.dry)
            break;

        /* -- encode it -- */
        int64_t nm = 0;  /* care-core set: distinct hosts, ascending */
        for (int64_t i = 0; i < nc; i++) {
            int64_t at = nm;
            while (at > 0 && members[at - 1] > c_host[i])
                at--;
            if (at > 0 && members[at - 1] == c_host[i])
                continue;
            memmove(members + at + 1, members + at, (size_t)(nm - at) * 8);
            members[at] = c_host[i];
            nm++;
        }
        uint64_t hash = 1469598103934665603ULL;
        for (int64_t i = 0; i < nm; i++)
            hash = (hash ^ (uint64_t)members[i]) * 1099511628211ULL;
        int64_t slot = (int64_t)(hash & (uint64_t)set_mask);
        int32_t sid;
        for (;;) {
            sid = set_table[slot];
            if (sid < 0)
                break;
            const int64_t lo = set_mem_off[sid];
            if (set_mem_off[sid + 1] - lo == nm) {
                int64_t i = 0;
                while (i < nm && set_mem[lo + i] == members[i])
                    i++;
                if (i == nm)
                    break;
            }
            slot = (slot + 1) & set_mask;
        }
        if (sid < 0) {
            sid = (int32_t)state[S_SETS]++;
            set_table[slot] = sid;
            set_first[sid] = (int32_t)row;
            set_count[sid] = 0;
            for (int64_t i = 0; i < nm; i++)
                set_mem[state[S_SET_MEM]++] = (int32_t)members[i];
            set_mem_off[sid + 1] = state[S_SET_MEM];
        }
        set_count[sid]++;
        set_of[row] = sid;
        for (int64_t i = 0; i < nc; i++) {
            const int64_t term = host_base[c_host[i]] + c_out[i];
            int32_t tid = tid_map[term];
            if (tid < 0) {
                tid = tid_map[term] = (int32_t)state[S_TIDS]++;
                tid_core[tid] = host_core[c_host[i]];
                tid_out[tid] = (int32_t)c_out[i];
            }
            const int64_t key = (int64_t)tid * 4 + c_sym[i];
            int32_t cid = cid_map[key];
            if (cid < 0) {
                cid = cid_map[key] = (int32_t)state[S_CIDS]++;
                tid_of[cid] = tid;
                cid_sym[cid] = (int32_t)c_sym[i];
            }
            care_flat[state[S_CARES]++] = cid;
        }
        care_off[row + 1] = state[S_CARES];
        for (int64_t i = 0; i < nl; i++) {
            const int64_t key = lines[i] * n_hosts + victim;
            int32_t bid = bid_map[key];
            if (bid < 0) {
                bid = bid_map[key] = (int32_t)state[S_BIDS]++;
                int32_t lid = lid_map[lines[i]];
                if (lid < 0)
                    lid = lid_map[lines[i]] = (int32_t)state[S_LINES]++;
                line_of[bid] = lid;
                bid_line[bid] = (int32_t)lines[i];
                bid_core[bid] = host_core[victim];
            }
            bus_flat[state[S_CLAIMS]++] = bid;
        }
        bus_off[row + 1] = state[S_CLAIMS];
        consumed = s.pos;
        state[S_ROW] = ++row;
    }
    free(scratch);
    return consumed;
}

/* Total weight of edges spanning more than one part; parts are 0..63. */
int64_t repro_hg_cut(
    int64_t n, const int32_t *part,
    int64_t m, const uint64_t *masks, const int64_t *edge_w)
{
    uint64_t members[64] = {0};
    for (int64_t v = 0; v < n; v++)
        members[part[v] & 63] |= 1ULL << v;
    int64_t total = 0;
    for (int64_t e = 0; e < m; e++) {
        const uint64_t mask = masks[e];
        if (mask & ~members[part[__builtin_ctzll(mask)] & 63])
            total += edge_w[e];
    }
    return total;
}
"""


def _bind(so_path: str) -> SimpleNamespace:
    lib = ctypes.CDLL(so_path)
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    scan = lib.repro_greedy_scan
    scan.restype = i64
    scan.argtypes = [
        i64, ptr,                # n, rows
        ptr, ptr, ptr,           # care_flat, care_off, tid_of
        i64, i64,                # n_care_ids, n_tids
        ptr, ptr, ptr,           # bus_flat, bus_off, line_of
        i64, i64,                # n_bus_ids, n_lines
        ptr, ptr, ptr,           # members_out, cycle_off_out, stats_out
    ]
    restrict = lib.repro_hg_restrict
    restrict.restype = i64
    # m, masks, edge_w, k, vertices, masks_out, edge_w_out
    restrict.argtypes = [i64, ptr, ptr, i64, ptr, ptr, ptr]
    grow = lib.repro_hg_grow
    grow.restype = None
    # n, vertex_w, m, masks, edge_w, seed, target0, part_out
    grow.argtypes = [i64, ptr, i64, ptr, ptr, i64, i64, ptr]
    refine = lib.repro_hg_refine
    refine.restype = None
    # n, vertex_w, m, masks, edge_w, lower, upper, max_passes, part
    refine.argtypes = [i64, ptr, i64, ptr, ptr, i64, i64, i64, ptr]
    cut = lib.repro_hg_cut
    cut.restype = i64
    cut.argtypes = [i64, ptr, i64, ptr, ptr]  # n, part, m, masks, edge_w
    draw = lib.repro_draw_patterns
    draw.restype = i64
    # cfg, bus_probability, words, n_words, bufs, state
    draw.argtypes = [ptr, ctypes.c_double, ptr, i64, ptr, ptr]
    return SimpleNamespace(scan=scan, restrict=restrict, grow=grow,
                           refine=refine, cut=cut, draw=draw)


def greedy_scan(patterns, lib=None):
    """Run the greedy scan in C; ``None`` when the engine is unavailable
    or runs out of memory.

    ``patterns`` is an :class:`~repro.compaction.kernel.IndexView` (a
    plain sequence is indexed first).  Returns ``(member_lists, pruned,
    words)``: the merge cycles as lists of positions in ``patterns`` in
    absorption order, plus the two instrumentation totals (candidates
    pruned, and words compared: the sparse care-mask entries plus the
    dense bus-mask words applied).
    """
    lib = lib or ENGINE.get()
    if lib is None:
        return None
    from repro.compaction.kernel import as_view

    view = as_view(patterns)
    rows, index = view.rows, view.index
    n = len(rows)
    if not n:
        return [], 0, 0
    members = array("i", bytes(4 * n))
    cycle_off = array("q", bytes(8 * (n + 1)))
    stats = array("q", (0, 0))
    cycles = lib.scan(
        n, _addr(rows),
        _addr(index.care_flat), _addr(index.care_off), _addr(index.tid_of),
        len(index.tid_of), index.n_tids,
        _addr(index.bus_flat), _addr(index.bus_off), _addr(index.line_of),
        len(index.line_of), index.n_lines,
        _addr(members), _addr(cycle_off), _addr(stats),
    )
    if cycles < 0:
        return None
    member_lists = [
        list(members[cycle_off[c]:cycle_off[c + 1]]) for c in range(cycles)
    ]
    return member_lists, stats[0], stats[1]


#: Mersenne Twister words handed to the C draw per call.  A block that
#: runs out mid-pattern is topped up (the draw's rejection loops have no
#: upper bound, so no block size is provably enough).
BLOCK_WORDS = 1 << 16

#: Most entries the draw's dense terminal/care/claim id maps may take
#: (64 MB), and the largest aggressor bound it takes; larger SOCs, buses
#: or bounds use the list path.  It also keeps every range the draw
#: samples below 2**32, one word per ``getrandbits`` call.
MAX_MAP_ENTRIES = 1 << 24


def draw_index(soc, count: int, seed: int, config, block: int = BLOCK_WORDS,
               lib=None):
    """The :class:`~repro.compaction.kernel.PatternIndex` of
    ``generate_random_patterns(soc, count, seed, config)``, drawn in C.

    Python seeds ``random.Random(seed)`` as the list generator does and
    hands the C draw blocks of its 32-bit outputs; the C code replays the
    generator's ``random`` calls on them (see the C source).  Returns
    ``None`` when the engine is unavailable or runs out of memory, when
    the id maps would exceed :data:`MAX_MAP_ENTRIES`, and for inputs the
    list generator rejects (it raises the error).
    """
    lib = lib or ENGINE.get()
    hosts = [core for core in soc if core.woc_count > 0]
    n_hosts, bus_width = len(hosts), config.bus_width
    terminals = sum(host.woc_count for host in hosts)
    max_aggr = config.max_aggressors
    if (lib is None or count < 0 or not hosts
            or max(4 * terminals + bus_width * n_hosts,
                   max_aggr) > MAX_MAP_ENTRIES):
        return None
    from repro.compaction.kernel import DecodedPatterns, PatternIndex

    def zeros(code, size):
        return array(code, bytes(array(code).itemsize * size))

    def unset(size):
        return array("i", (-1,)) * size

    woc = array("i", (host.woc_count for host in hosts))
    base = array("q", (0,))
    for width in woc:
        base.append(base[-1] + width)
    # A pattern holds the victim plus at most min(N_a, spare outputs of
    # its core + external draws) aggressors, and min(N_a, bus) claims.
    spare = max(woc) - 1 + config.max_external_aggressors
    care_cap = count * (1 + min(max_aggr, spare))
    claim_cap = count * min(max_aggr, bus_width)
    care_ids = min(care_cap, 4 * terminals)
    claim_ids = min(claim_cap, bus_width * n_hosts)
    set_size = min(1 + min(config.max_external_aggressors, max_aggr),
                   n_hosts)
    set_table = 1 << (2 * count + 1).bit_length()
    # In the order of the C source's buffer enum.
    out = SimpleNamespace(
        host_core=array("i", (host.core_id for host in hosts)),
        host_woc=woc, host_base=base,
        tid_map=unset(terminals), cid_map=unset(4 * terminals),
        bid_map=unset(bus_width * n_hosts), lid_map=unset(bus_width),
        set_table=unset(set_table),
        care_flat=zeros("i", care_cap), care_off=zeros("q", count + 1),
        tid_of=zeros("i", care_ids), cid_sym=zeros("i", care_ids),
        tid_core=zeros("i", min(care_ids, terminals)),
        tid_out=zeros("i", min(care_ids, terminals)),
        bus_flat=zeros("i", claim_cap), bus_off=zeros("q", count + 1),
        line_of=zeros("i", claim_ids), bid_line=zeros("i", claim_ids),
        bid_core=zeros("i", claim_ids),
        set_of=zeros("i", count), set_first=zeros("i", count),
        set_count=zeros("q", count), set_mem=zeros("i", count * set_size),
        set_mem_off=zeros("q", count + 1),
    )
    pointers = (ctypes.c_void_p * len(vars(out)))(
        *map(_addr, vars(out).values())
    )
    cfg = array("q", (n_hosts, config.min_aggressors, max_aggr,
                      config.max_external_aggressors, bus_width, count,
                      set_table - 1, max(max(woc), bus_width),
                      1 + min(max_aggr, max(spare, bus_width))))
    state = zeros("q", 9)
    rng = random.Random(seed)
    words = array("I")
    while state[0] < count:
        fresh = array("I", rng.getrandbits(32 * block).to_bytes(
            4 * block, "little"))
        if sys.byteorder == "big":
            fresh.byteswap()
        words += fresh
        consumed = lib.draw(_addr(cfg), config.bus_probability,
                            _addr(words), len(words), pointers,
                            _addr(state))
        if consumed < 0:
            return None
        del words[:consumed]
    _, cares, claims, tids, cids, bids, lines, sets, _ = state
    for name, size in (("care_flat", cares), ("tid_of", cids),
                       ("cid_sym", cids), ("tid_core", tids),
                       ("tid_out", tids), ("bus_flat", claims),
                       ("line_of", bids), ("bid_line", bids),
                       ("bid_core", bids)):
        del getattr(out, name)[size:]
    # Each distinct care-core set as the frozenset its first pattern's
    # ``care_cores`` builds, so its member order is the list path's.
    care_flat, care_off = out.care_flat, out.care_off
    care_sets = tuple(
        tuple(frozenset(out.tid_core[out.tid_of[cid]]
                        for cid in care_flat[care_off[row]:care_off[row + 1]]))
        for row in out.set_first[:sets]
    )
    index = PatternIndex.packed(
        (), care_flat, care_off, out.tid_of, tids, out.bus_flat, out.bus_off,
        out.line_of, lines, out.set_of, care_sets,
        tuple(out.set_count[:sets]),
    )
    index.patterns = DecodedPatterns(index, out.tid_core, out.tid_out,
                                     out.cid_sym, out.bid_line, out.bid_core)
    return index


def restrict(graph, vertices, lib=None) -> tuple[array, array]:
    """The edges of ``graph`` (a
    :class:`~repro.hypergraph.packed.PackedHypergraph`) mapped onto
    ``vertices``: local pin ``j`` is vertex ``vertices[j]``, and edges
    left with fewer than two pins are dropped.  Returns the new ``(masks,
    edge_weights)``."""
    lib = lib or ENGINE.get()
    local = array("i", vertices)
    m = len(graph.masks)
    masks_out = array("Q", bytes(8 * m))
    weights_out = array("q", bytes(8 * m))
    kept = lib.restrict(m, _addr(graph.masks), _addr(graph.edge_weights),
                        len(local), _addr(local),
                        _addr(masks_out), _addr(weights_out))
    del masks_out[kept:], weights_out[kept:]
    return masks_out, weights_out


def grow(graph, seed: int, target0: int, lib=None) -> list[int]:
    """Greedy initial bisection of ``graph`` grown from vertex ``seed``
    until part 0 weighs ``target0``; a 0/1 part per vertex."""
    lib = lib or ENGINE.get()
    part = array("i", bytes(4 * len(graph.weights)))
    lib.grow(len(graph.weights), _addr(graph.weights),
             len(graph.masks), _addr(graph.masks), _addr(graph.edge_weights),
             seed, target0, _addr(part))
    return part.tolist()


def refine(graph, assignment: list[int], lower: int, upper: int,
           max_passes: int = 10, lib=None) -> None:
    """Up to ``max_passes`` FM passes (the default of
    :func:`~repro.hypergraph.fm.fm_refine`) on the bisection
    ``assignment`` of ``graph``, in place, keeping part 0's weight within
    ``[lower, upper]``."""
    lib = lib or ENGINE.get()
    part = array("i", assignment)
    lib.refine(len(part), _addr(graph.weights),
               len(graph.masks), _addr(graph.masks),
               _addr(graph.edge_weights), lower, upper, max_passes,
               _addr(part))
    assignment[:] = part.tolist()


def cut(graph, assignment, lib=None) -> int:
    """Total weight of the edges of ``graph`` spanning more than one part
    of ``assignment`` (any number of parts up to 64)."""
    lib = lib or ENGINE.get()
    part = array("i", assignment)
    return lib.cut(len(part), _addr(part), len(graph.masks),
                   _addr(graph.masks), _addr(graph.edge_weights))


def _smoke(lib) -> bool:
    """Hand-worked calls guarding against ABI/layout mishaps.

    Scan: four patterns on one terminal, scanned at rows 0, 2 and 3:
    rows 0 (``0``) and 2 (``1``) clash, row 3 assigns nothing, and the
    skipped row 1 (``F``) would clash with both.  The greedy scan must
    merge positions {0, 2} and leave {1}, pruning position 1 from cycle 0.

    Bisection: the path 0-1-2-3 with edge weights 5, 1, 5 and unit
    vertices.  Growing part 0 from vertex 1 to weight 2 absorbs vertex 0
    (attachment 5 beats vertex 2's 1): {0, 1} | {2, 3}, cut 1.  FM with
    part 0's weight in [1, 3], from {0} | {1, 2, 3} (cut 5): vertex 0
    has the top gain, 5, but may not empty part 0; vertex 1 (gain 4)
    moves, then vertex 2 (gain -4), and vertex 3 may not fill part 0.
    The pass keeps its best prefix, one move, so it also ends at cut 1.
    The k-way cut of the four singletons is 11.  Restricting the path to
    vertices (2, 3, 1) keeps edges {1, 2} and {2, 3} as local pins
    {0, 2} and {0, 1}.

    Draw: 20 patterns at seed 169, up to 7 aggressors, a 90-line bus, on
    hosts of 2, 22, 23 and 60 outputs, in 16-word blocks, must equal the
    list generator's set, encoded.  ``sample``'s path switch is pinned
    on both sides: up to 5 picks take the pool path from the 21 spare
    outputs of the 22-output core and the set path from the 22 of the
    23-output core; 6 or 7 picks (set size 21 + 64) take the pool path
    from 22 and 59 spare outputs and the set path from the 90 lines.  A
    CPython whose formulas differ from the replayed ones fails here, and
    the callers then encode the generated list instead.
    """
    from repro.compaction.kernel import IndexView, PatternIndex
    from repro.runtime.instrumentation import (
        Instrumentation,
        use_instrumentation,
    )
    from repro.sitest.generator import GeneratorConfig, generate_random_patterns

    encoded = SimpleNamespace(
        care_flat=array("i", (0, 1, 2)),
        care_off=array("q", (0, 1, 2, 3, 3)),
        tid_of=array("i", (0, 0, 0)), n_tids=1,
        bus_flat=array("i"), bus_off=array("q", (0, 0, 0, 0, 0)),
        line_of=array("i"), n_lines=0,
    )
    view = IndexView(encoded, array("i", (0, 2, 3)))
    if greedy_scan(view, lib) != ([[0, 2], [1]], 1, 2):
        return False
    path = SimpleNamespace(weights=array("q", (1, 1, 1, 1)),
                           masks=array("Q", (0b0011, 0b0110, 0b1100)),
                           edge_weights=array("q", (5, 1, 5)))
    grown = grow(path, 1, 2, lib)
    refined = [0, 1, 1, 1]
    refine(path, refined, 1, 3, 10, lib)
    restricted = restrict(path, (2, 3, 1), lib)
    hosts = [SimpleNamespace(core_id=core_id, woc_count=outputs)
             for core_id, outputs in ((4, 2), (5, 22), (7, 23), (9, 60))]
    config = GeneratorConfig(max_aggressors=7, bus_width=90)
    with use_instrumentation(Instrumentation()):  # not the run's builds
        drawn = draw_index(hosts, 20, 169, config, block=16, lib=lib)
        listed = PatternIndex(generate_random_patterns(hosts, 20, seed=169,
                                                       config=config))
    if drawn is None or any(
        getattr(drawn, name) != getattr(listed, name)
        for name in PatternIndex.__slots__ if name != "patterns"
    ):
        return False
    return (grown == [0, 0, 1, 1] and refined == grown
            and cut(path, refined, lib) == 1
            and cut(path, (0, 1, 2, 3), lib) == 11
            and restricted == (array("Q", (0b101, 0b011)),
                               array("q", (1, 5))))


ENGINE = Engine("cscan", _SOURCE, "REPRO_COMPACTION_CSCAN", _bind, _smoke)
available = ENGINE.available
