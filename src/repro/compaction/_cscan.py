"""Optional C scan engine for the greedy bitset kernel.

:func:`repro.compaction.kernel.greedy_compact_bitset` spends its time in
two bit-parallel inner loops: building the conflict index and pruning the
candidate bitset as the merge acquires cares.  Both are pure word-level
AND/OR sweeps, so this module carries a small, dependency-free C
translation of the scan (same algorithm, same visit order, same dedup
rules — see the kernel docstring for the equivalence argument) that is
compiled on demand with whatever ``cc``/``gcc``/``clang`` the host
provides and loaded through :mod:`ctypes`.

The engine is strictly optional: if no compiler is present, compilation
fails, the smoke check fails, or ``REPRO_COMPACTION_CSCAN=0`` is set, the
kernel silently falls back to its pure-Python big-int scan.  Compiled
objects are cached in the system temp directory keyed by a hash of the C
source, so the (sub-second) compile happens once per source revision per
machine, not once per process.

The C side works on the flat integer arrays of a
:class:`~repro.compaction.kernel.PatternIndex` only — pattern cares as
dense ``(terminal, symbol)`` ids in CSR layout, bus claims likewise — plus
the rows of the bucket to scan, which it gathers itself.  It
returns the merge cycles as a flat member array plus cycle offsets.  All
symbol/terminal semantics stay in Python; the C code never sees a pattern
object.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from array import array
from types import SimpleNamespace

__all__ = ["available", "greedy_scan", "warm"]

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
 * eligible set.  Conflict masks are derived in place from the occupancy
 * masks: conflict = (OR of the terminal's symbol slices) & ~own slice.
 *
 * Masks are sparse, so build passes skip zero words: untouched words
 * stay on the OS zero page and the scan reads them at cache speed.
 */
static int64_t scan(
    int64_t n,
    const int32_t *care_flat, const int64_t *care_off,
    const int32_t *tid_of, int64_t n_care_ids, int64_t n_tids,
    const int32_t *bus_flat, const int64_t *bus_off,
    const int32_t *line_of, int64_t n_bus_ids, int64_t n_lines,
    int32_t *members_out, int64_t *cycle_off_out, int64_t *stats_out)
{
    const int64_t W = (n + 63) >> 6;
    uint64_t *masks = calloc((size_t)(n_care_ids + n_bus_ids) * W, 8);
    uint64_t *totals = calloc((size_t)(n_tids + n_lines) * W, 8);
    uint64_t *avail = malloc((size_t)W * 8);
    uint64_t *eligible = malloc((size_t)W * 8);
    uint32_t *epochs = calloc((size_t)(n_tids + n_lines) + 1, 4);
    if (!masks || !totals || !avail || !eligible || !epochs) {
        free(masks); free(totals); free(avail); free(eligible); free(epochs);
        return -1;
    }
    uint64_t *bus_masks = masks + (size_t)n_care_ids * W;
    uint64_t *line_totals = totals + (size_t)n_tids * W;
    uint32_t *tid_epoch = epochs;
    uint32_t *line_epoch = epochs + n_tids;

    /* occupancy fill from the CSR streams */
    for (int64_t i = 0; i < n; i++) {
        const uint64_t word = 1ULL << (i & 63);
        const int64_t w = i >> 6;
        for (int64_t k = care_off[i]; k < care_off[i + 1]; k++)
            masks[(size_t)care_flat[k] * W + w] |= word;
        for (int64_t k = bus_off[i]; k < bus_off[i + 1]; k++)
            bus_masks[(size_t)bus_flat[k] * W + w] |= word;
    }
    /* per-terminal / per-line totals (symbol slices are disjoint) */
    for (int64_t c = 0; c < n_care_ids; c++) {
        uint64_t *t = totals + (size_t)tid_of[c] * W;
        const uint64_t *m = masks + (size_t)c * W;
        for (int64_t w = 0; w < W; w++) {
            const uint64_t mw = m[w];
            if (mw) t[w] |= mw;
        }
    }
    for (int64_t b = 0; b < n_bus_ids; b++) {
        uint64_t *t = line_totals + (size_t)line_of[b] * W;
        const uint64_t *m = bus_masks + (size_t)b * W;
        for (int64_t w = 0; w < W; w++) {
            const uint64_t mw = m[w];
            if (mw) t[w] |= mw;
        }
    }
    /* occupancy -> conflict masks, in place (mask is a subset of total) */
    for (int64_t c = 0; c < n_care_ids; c++) {
        const uint64_t *t = totals + (size_t)tid_of[c] * W;
        uint64_t *m = masks + (size_t)c * W;
        for (int64_t w = 0; w < W; w++) {
            const uint64_t tw = t[w];
            if (tw) m[w] = tw & ~m[w];
        }
    }
    for (int64_t b = 0; b < n_bus_ids; b++) {
        const uint64_t *t = line_totals + (size_t)line_of[b] * W;
        uint64_t *m = bus_masks + (size_t)b * W;
        for (int64_t w = 0; w < W; w++) {
            const uint64_t tw = t[w];
            if (tw) m[w] = tw & ~m[w];
        }
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
        for (int64_t k = care_off[seed]; k < care_off[seed + 1]; k++) {
            const int32_t cid = care_flat[k];
            const int32_t tid = tid_of[cid];
            if (tid_epoch[tid] != epoch) {
                tid_epoch[tid] = epoch;
                const uint64_t *c = masks + (size_t)cid * W;
                for (int64_t w = cursor; w < W; w++) eligible[w] &= ~c[w];
                words += W - cursor;
            }
        }
        for (int64_t k = bus_off[seed]; k < bus_off[seed + 1]; k++) {
            const int32_t bid = bus_flat[k];
            const int32_t line = line_of[bid];
            if (line_epoch[line] != epoch) {
                line_epoch[line] = epoch;
                const uint64_t *c = bus_masks + (size_t)bid * W;
                for (int64_t w = cursor; w < W; w++) eligible[w] &= ~c[w];
                words += W - cursor;
            }
        }
        for (int64_t jw = cursor; jw < W; ) {
            const uint64_t wval = eligible[jw];
            if (!wval) { jw++; continue; }
            const int64_t j = (jw << 6) + (int64_t)__builtin_ctzll(wval);
            eligible[jw] = wval & (wval - 1);
            avail[jw] &= ~(1ULL << (j & 63));
            live--;
            absorbed++;
            members_out[m_count++] = (int32_t)j;
            for (int64_t k = care_off[j]; k < care_off[j + 1]; k++) {
                const int32_t cid = care_flat[k];
                const int32_t tid = tid_of[cid];
                if (tid_epoch[tid] != epoch) {
                    tid_epoch[tid] = epoch;
                    const uint64_t *c = masks + (size_t)cid * W;
                    /* bits at or below j are already decided: prune from
                     * the current word up only */
                    for (int64_t w = jw; w < W; w++) eligible[w] &= ~c[w];
                    words += W - jw;
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
        }
        pruned += candidates - (absorbed - 1);
        cycle_off_out[++cycles] = m_count;
    }
    free(masks); free(totals); free(avail); free(eligible); free(epochs);
    stats_out[0] = pruned;
    stats_out[1] = words;
    return cycles;
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
"""

_DISABLE_VALUES = ("0", "off", "no", "false")

#: Cached load result: ``None`` = not attempted, ``False`` = unavailable.
_engine = None
#: Serializes the first probe: a thread asking while another compiles
#: waits for the answer instead of reading a half-made one.
_probe_lock = threading.Lock()


def _compile() -> str | None:
    """Compile the C source into a cached shared object; return its path."""
    compiler = (shutil.which("cc") or shutil.which("gcc")
                or shutil.which("clang"))
    if compiler is None:
        return None
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    so_path = os.path.join(tempfile.gettempdir(),
                           f"repro-cscan-{digest}.so")
    if os.path.exists(so_path):
        return so_path
    try:
        with tempfile.TemporaryDirectory() as workdir:
            source = os.path.join(workdir, "cscan.c")
            with open(source, "w", encoding="ascii") as handle:
                handle.write(_SOURCE)
            built = os.path.join(workdir, "cscan.so")
            subprocess.run(
                [compiler, "-O3", "-shared", "-fPIC", "-o", built, source],
                check=True, capture_output=True, timeout=120,
            )
            os.replace(built, so_path)
    except (OSError, subprocess.SubprocessError):
        return None
    return so_path


def _bind(so_path: str):
    lib = ctypes.CDLL(so_path)
    fn = lib.repro_greedy_scan
    fn.restype = ctypes.c_int64
    fn.argtypes = [
        ctypes.c_int64, ctypes.c_void_p,   # n, rows
        ctypes.c_void_p, ctypes.c_void_p,  # care_flat, care_off
        ctypes.c_void_p,                   # tid_of
        ctypes.c_int64, ctypes.c_int64,    # n_care_ids, n_tids
        ctypes.c_void_p, ctypes.c_void_p,  # bus_flat, bus_off
        ctypes.c_void_p,                   # line_of
        ctypes.c_int64, ctypes.c_int64,    # n_bus_ids, n_lines
        ctypes.c_void_p, ctypes.c_void_p,  # members_out, cycle_off_out
        ctypes.c_void_p,                   # stats_out
    ]
    return fn


def _addr(buffer: array) -> int:
    return buffer.buffer_info()[0]


def _run(fn, rows: array, index):
    """Scan ``rows`` of an encoded set (a
    :class:`~repro.compaction.kernel.PatternIndex` or the same arrays);
    ``None`` on allocation failure."""
    n = len(rows)
    members = array("i", bytes(4 * n))
    cycle_off = array("q", bytes(8 * (n + 1)))
    stats = array("q", (0, 0))
    cycles = fn(
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


def _smoke(fn) -> bool:
    """One hand-rolled call guarding against ABI/layout mishaps.

    Four patterns on one terminal, scanned at rows 0, 2 and 3: rows 0
    (``0``) and 2 (``1``) clash, row 3 assigns nothing, and the skipped
    row 1 (``F``) would clash with both.  The greedy scan must merge
    positions {0, 2} and leave {1}, pruning position 1 from cycle 0.
    """
    encoded = SimpleNamespace(
        care_flat=array("i", (0, 1, 2)),
        care_off=array("q", (0, 1, 2, 3, 3)),
        tid_of=array("i", (0, 0, 0)), n_tids=1,
        bus_flat=array("i"), bus_off=array("q", (0, 0, 0, 0, 0)),
        line_of=array("i"), n_lines=0,
    )
    out = _run(fn, array("i", (0, 2, 3)), encoded)
    return out == ([[0, 2], [1]], 1, 2)


def _probe():
    """Resolve the engine handle, or ``False`` when unavailable."""
    toggle = os.environ.get("REPRO_COMPACTION_CSCAN", "").strip().lower()
    if toggle in _DISABLE_VALUES or _load_fault_injected():
        return False
    so_path = _compile()
    if so_path is not None:
        try:
            fn = _bind(so_path)
        except OSError:
            fn = None
        if fn is not None and _smoke(fn):
            return fn
    # The engine was wanted but would not resolve on this host (no
    # compiler, bad .so, failed smoke): disclose the pure-Python
    # degradation once per process.
    from repro.runtime.instrumentation import incr

    incr("recovery.degraded.cscan")
    return False


def available() -> bool:
    """Whether the C scan engine compiled, loaded, and passed its smoke."""
    global _engine
    if _engine is None:
        with _probe_lock:
            if _engine is None:
                _engine = _probe()
    return _engine is not False


def warm() -> bool:
    """Resolve the engine now, instead of lazily inside the first scan.

    The resolved handle is cached for the life of the process (module
    global), so a persistent sweep worker that calls this during warm-up
    pays the compile/load/smoke cost exactly once, outside any cell's
    wall clock — later cells reuse the handle with a dict lookup.
    """
    return available()


def _load_fault_injected() -> bool:
    """``cscan.load`` injection site: a due ``cscan-compile-fail`` fault
    makes the engine unavailable, exactly like a host with no compiler;
    the kernel then takes its pure-Python fallback."""
    from repro.resilience.faults import check_fault
    from repro.runtime.instrumentation import incr

    if check_fault("cscan.load") is None:
        return False
    incr("recovery.cscan_fallback")
    return True


def greedy_scan(patterns):
    """Run the greedy scan in C; ``None`` when the engine is unavailable.

    ``patterns`` is an :class:`~repro.compaction.kernel.IndexView` (a
    plain sequence is indexed first).  Returns ``(member_lists, pruned,
    words)``: the merge cycles as lists of positions in ``patterns`` in
    absorption order, plus the two instrumentation totals (candidates
    pruned, 64-bit words touched).
    """
    if not available():
        return None
    from repro.compaction.kernel import as_view

    view = as_view(patterns)
    if not len(view):
        return [], 0, 0
    return _run(_engine, view.rows, view.index)
