"""Correctness checks on sweep output; every failed check fails one or more cells.

Cells are keyed by (s, replicate).  Rows are compared as the CSV lines that
``noisyrf.sweep.records_csv`` writes, so "byte-identical" means identical
sweep.csv lines.
"""

from __future__ import annotations

import math

# how many combined standard errors R may sit outside [B + V, B + V + M]; the
# acceptance suite's criterion 2 uses 3 on seeds screened for margin, and a
# benchmark run sees every seed
SE_BUDGET = 4.0
# pool rows (one BLAS thread) against serial rows (default BLAS threads):
# the thread count changes the order of BLAS reductions, so only the last
# bits may move
SERIAL_RTOL = 1e-9


def cell_problem(rec, misspec_positive: bool) -> str:
    """Why one sweep record is wrong, or "" when it passes."""
    if rec.error:
        return f"error: {rec.error}"
    for name in ("B", "V", "R"):
        value = getattr(rec, name)
        if not (math.isfinite(value) and value >= 0):
            return f"{name}={value!r} is not finite and non-negative"
    # R = B + V + (f* - best in-span fit)^2 over the test sample.  M adds to
    # that second summand the first, (z . w)^2, which B already contains, so
    # R lies in [B + V, B + V + M]; for realizable targets M = 0 and this is
    # criterion 2's identity R = B + V
    budget = SE_BUDGET * math.sqrt(rec.B_se ** 2 + rec.V_se ** 2 + rec.M_se ** 2
                                   + rec.R_se ** 2)
    low, high = rec.B + rec.V, rec.B + rec.V + rec.M
    if not low - budget <= rec.R <= high + budget:
        return (f"R={rec.R:.6g} outside [B+V, B+V+M] = [{low:.6g}, {high:.6g}] "
                f"by more than {SE_BUDGET:g} combined se ({budget:.3e})")
    if misspec_positive and not rec.M > 0:
        return f"M={rec.M!r} is not positive"
    return ""


def curve_problem(records, n: int) -> str:
    """Why the mean risk curve lacks the double-descent shape, or "" when it has it.

    The peak must sit in [0.6n, 1.6n] and the curve must fall by 2x from the
    peak to its tail, the largest s <= n^2 (acceptance criterion 3).
    """
    by_s = {}
    for rec in records:
        if not rec.error:
            by_s.setdefault(rec.s, []).append(rec.R)
    mean_r = {s: sum(v) / len(v) for s, v in by_s.items()}
    tail = [s for s in mean_r if s <= n * n]
    if not tail:
        return "no successful cell to build the risk curve from"
    peak_s = max(mean_r, key=mean_r.get)
    tail_s = max(tail)
    ratio = mean_r[peak_s] / mean_r[tail_s]
    if not 0.6 * n <= peak_s <= 1.6 * n:
        return f"risk peak at s={peak_s}, outside [{0.6 * n:g}, {1.6 * n:g}]"
    if not ratio >= 2.0:
        return f"peak/tail risk ratio {ratio:.3g} < 2 (tail s={tail_s})"
    return ""


def csv_rows(csv_text: str) -> dict:
    """sweep.csv text as {(s, replicate): line}."""
    lines = csv_text.splitlines()[1:]
    return {row_key(line): line for line in lines}


def row_key(line: str):
    """The (s, replicate) key of one sweep.csv line."""
    s, replicate = line.split(",", 2)[:2]
    return (int(s), int(replicate))


def rows_close(line: str, ref: str, rtol: float) -> bool:
    """Two sweep.csv lines agree: text fields exactly, numbers to rtol."""
    a, b = line.split(","), ref.split(",")
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if x == y:
            continue
        try:
            fx, fy = float(x), float(y)
        except ValueError:
            return False
        if not math.isclose(fx, fy, rel_tol=rtol, abs_tol=0.0):
            return False
    return True
