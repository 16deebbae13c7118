"""Seeded inputs, operations and output checks of the three workloads.

Inputs come from numpy alone, never from ``thermolens.powerlaw.sample``
or the test helpers, so a change to the program's sampler or zeta routine
cannot change what is measured. Every timed operation gets its own input
(its own seed, calendar year, exponent or grid start), so no cache of the
program -- the lru_caches on ``zeta``, ``_cdf_table`` and ``_month_of_day``
-- serves it from an earlier operation.

Each workload hands out rounds: lists of operations that are the same in
make-up from round to round. An operation is one subcommand call plus a
check of its output against ``oracles``.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

# The program's documented defaults, restated so that no check imports thermolens.
KS_THRESHOLD = 0.1
ALPHA_MIN = 1.0 + 1e-6
# The stalling collection fits alpha = 1.0738, where zeta sums ~2e9 terms
# (about 18 s). The deadline sits well clear of that and of the 50 ms a
# fixed zeta should need.
STALL_COLLECTION = {1: 1, 1_000_000: 50}
STALL_DEADLINE_S = 1.0


class CheckFailed(Exception):
    """An operation's output disagrees with the reference computation."""


@dataclass
class Op:
    """One timed subcommand call and the check of what it wrote."""

    subcommand: str
    argv: list[str]
    check: Callable[[str], None]  # called with the captured stderr
    deadline_s: float | None = None


# ---------------------------------------------------------------- checks


def _close(name: str, got, want, rtol: float = 1e-9, atol: float = 1e-12) -> None:
    if got is None or want is None:
        if got is not None or want is not None:
            raise CheckFailed(f"{name}: got {got!r}, expected {want!r}")
        return
    if not math.isclose(float(got), float(want), rel_tol=rtol, abs_tol=atol):
        raise CheckFailed(f"{name}: got {got!r}, expected {want!r}")


def _equal(name: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{name}: got {got!r}, expected {want!r}")


def _cell(text: str) -> float | None:
    return None if text == "" else float(text)


def _flag(text: str) -> bool | None:
    return {"true": True, "false": False, "": None}[text]


def _csv(path: Path, header: str) -> list[list[str]]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    _equal(f"{path.name} header", lines[0], header)
    return [ln.split(",") for ln in lines[1:]]


def _check_skipped(stderr: str, planted: int) -> None:
    _equal("stderr", stderr.strip(), f"thermolens: skipped {planted} malformed event rows")


def _power_law_flag(name: str, got: bool, d_got: float | None, d_ref: float | None) -> None:
    if d_got is None:
        _equal(name, got, False)
        return
    _equal(name, got, d_got < KS_THRESHOLD)
    if abs(d_ref - KS_THRESHOLD) > 1e-6:
        _equal(f"{name} (reference)", got, d_ref < KS_THRESHOLD)


def _ks_reference(values: np.ndarray, counts: np.ndarray, b: oracles.Bundle) -> float | None:
    if b.alpha is None or not b.alpha > ALPHA_MIN:
        return None
    return oracles.ks_distance(values, counts, b.alpha)


def _check_bundle_json(doc: dict, b: oracles.Bundle) -> None:
    _equal("N", doc["N"], b.population)
    _close("S", doc["S"], b.entropy)
    _close("R", doc["R"], b.entropy_reduction)
    _close("E", doc["E"], b.avg_energy)
    _close("Q", doc["Q"], b.efficiency)
    _close("alpha", doc["alpha"], b.alpha, rtol=1e-12)
    _close("E = 1/(alpha-1)", doc["E"], 1.0 / (doc["alpha"] - 1.0), rtol=1e-13)
    _close("A", doc["A"], oracles.free_energy(b.alpha))
    _close("fe_ratio", doc["fe_ratio"], b.efficiency / b.alpha)


# ---------------------------------------------------------------- edit logs


@dataclass
class EventLog:
    """Valid events of one generated log plus what was planted in it."""

    ts: np.ndarray
    editor: np.ndarray
    page: np.ndarray
    quiet: np.ndarray  # per page code: no edits after month 9
    malformed: int


def page_name(code: int) -> str:
    return f"p{code:05d}"


_MALFORMED_ROWS = (
    "not-a-time,e1,p00000",
    "-86400,e1,p00000",
    "nan,e1,p00000",
    "1000000000,,p00000",
    "1000000000,e1,",
    "1000000000,e1",
    "1000000000,e1,p00000,extra",
)


def write_event_log(log: EventLog, path: Path, rng: np.random.Generator) -> None:
    """Write ``ts,editor,page`` rows with the planted malformed rows mixed in."""
    names = [page_name(p) for p in range(log.quiet.size)]
    lines = [
        f"{t},e{e},{names[p]}"
        for t, e, p in zip(log.ts.tolist(), log.editor.tolist(), log.page.tolist())
    ]
    spots = np.sort(rng.integers(0, len(lines) + 1, log.malformed))[::-1]
    for i, spot in enumerate(spots.tolist()):
        lines.insert(spot, _MALFORMED_ROWS[i % len(_MALFORMED_ROWS)])
    path.write_text("ts,editor,page\n" + "\n".join(lines) + "\n", encoding="utf-8")


def write_readership(
    rng: np.random.Generator, n_pages: int, keep: float, path: Path
) -> dict[int, int]:
    """Clicks for a random share of the pages; the rest have no record."""
    present = np.flatnonzero(rng.random(n_pages) < keep)
    clicks = np.rint(rng.lognormal(8.0, 1.5, present.size)).astype(np.int64)
    path.write_text(
        "page,clicks\n"
        + "".join(f"{page_name(p)},{c}\n" for p, c in zip(present.tolist(), clicks.tolist())),
        encoding="utf-8",
    )
    return dict(zip(present.tolist(), clicks.tolist()))


def _bounded_zipf(rng: np.random.Generator, a, size: int, cap: int) -> np.ndarray:
    """Zipf draws with exponent a (a scalar or one per draw), redrawing any above cap."""
    a = np.broadcast_to(np.asarray(a, dtype=np.float64), (size,))
    x = rng.zipf(a)
    over = x > cap
    while over.any():
        x[over] = rng.zipf(a[over])
        over = x > cap
    return x


def _month_starts(year: int) -> np.ndarray:
    first = np.datetime64(f"{year:04d}-01", "M")
    return (first + np.arange(13)).astype("datetime64[s]").astype(np.int64)


def _sorted_log(ts, editor, page, quiet, malformed) -> EventLog:
    order = np.argsort(ts, kind="stable")
    return EventLog(ts[order], editor[order], page[order], quiet, malformed)


def monthly_log(
    rng: np.random.Generator,
    year: int,
    n_pages: int,
    editors_per_month: int,
    editor_pool: int,
    zipf_a: float = 2.1,
    cap: int = 1000,
) -> EventLog:
    """Twelve UTC months of edits; half the pages go quiet after month 9.

    Each month, editors_per_month editors drawn from the pool make a
    Zipf(zipf_a) number of edits (at most cap), each on a page chosen
    uniformly among the pages still active that month.
    """
    starts = _month_starts(year)
    quiet = np.zeros(n_pages, dtype=bool)
    quiet[rng.choice(n_pages, n_pages // 2, replace=False)] = True
    active_late = np.flatnonzero(~quiet)
    parts = []
    for m in range(12):
        editors = rng.choice(editor_pool, editors_per_month, replace=False)
        ed = np.repeat(editors, _bounded_zipf(rng, zipf_a, editors_per_month, cap))
        pages = np.arange(n_pages) if m < 9 else active_late
        pg = pages[rng.integers(0, pages.size, ed.size)]
        ts = rng.integers(starts[m], starts[m + 1], ed.size)
        parts.append((ts, ed, pg))
    ts, ed, pg = (np.concatenate(col) for col in zip(*parts))
    return _sorted_log(ts, ed, pg, quiet, int(rng.integers(50, 151)))


def page_log(
    rng: np.random.Generator,
    year: int,
    n_pages: int,
    editor_pool: int,
    editors_range: tuple[int, int] = (20, 30),
    exponent_range: tuple[float, float] = (1.5, 2.6),
    cap: int = 200,
) -> EventLog:
    """Many small pages, each with Zipf per-editor counts of its own exponent.

    Editors are drawn from the pool with replacement; the rare editor drawn
    twice for one page simply holds the sum of both counts.
    """
    starts = _month_starts(year)
    sizes = rng.integers(editors_range[0], editors_range[1] + 1, n_pages)
    exponents = rng.uniform(*exponent_range, n_pages)
    slot_page = np.repeat(np.arange(n_pages), sizes)
    counts = _bounded_zipf(rng, exponents[slot_page], slot_page.size, cap)
    ed = np.repeat(rng.integers(0, editor_pool, slot_page.size), counts)
    pg = np.repeat(slot_page, counts)
    ts = rng.integers(starts[0], starts[12], ed.size)
    return _sorted_log(ts, ed, pg, np.zeros(n_pages, dtype=bool), int(rng.integers(50, 151)))


def check_evolve(log: EventLog, out: Path, stderr: str) -> None:
    _check_skipped(stderr, log.malformed)
    rows = _csv(out, "month,N,S,R,logN,E,Q,alpha,A,fe_ratio")
    months = log.ts.astype("datetime64[s]").astype("datetime64[M]").astype(np.int64)
    hist = oracles.group_histograms(months, log.editor)
    _equal("months", [r[0] for r in rows], [str(np.datetime64(k, "M")) for k in sorted(hist)])
    for row, key in zip(rows, sorted(hist)):
        b = oracles.bundle(*hist[key])
        _, n, s, r, log_n, e, q, alpha, a, ratio = row
        _equal(f"{row[0]} N", int(n), b.population)
        _close(f"{row[0]} S", _cell(s), b.entropy)
        _close(f"{row[0]} R", _cell(r), b.entropy_reduction)
        _close(f"{row[0]} logN", _cell(log_n), math.log(b.population))
        _close(f"{row[0]} E", _cell(e), b.avg_energy)
        _close(f"{row[0]} Q", _cell(q), b.efficiency)
        _close(f"{row[0]} alpha", _cell(alpha), b.alpha)
        _close(f"{row[0]} alpha = 1 + 1/E", _cell(alpha), 1.0 + 1.0 / b.avg_energy)
        _close(f"{row[0]} A", _cell(a), oracles.free_energy(b.alpha))
        _close(f"{row[0]} fe_ratio", _cell(ratio), b.efficiency / b.alpha)


def check_pages(log: EventLog, out: Path, stderr: str) -> None:
    _check_skipped(stderr, log.malformed)
    rows = {
        r[0]: r
        for r in _csv(out, "page,N,S,R,Q,total_energy,total_edits,alpha,D,is_power_law,saturated")
    }
    hist = oracles.group_histograms(log.page, log.editor)
    _equal("pages", sorted(rows), sorted(page_name(k) for k in hist))
    total = 0
    for key, (values, counts) in hist.items():
        name = page_name(key)
        _, n, s, r, q, energy, edits, alpha, d, power, saturated = rows[name]
        b = oracles.bundle(values, counts)
        _equal(f"{name} N", int(n), b.population)
        _close(f"{name} S", _cell(s), b.entropy)
        _close(f"{name} R", _cell(r), b.entropy_reduction)
        _close(f"{name} Q", _cell(q), b.efficiency)
        _close(f"{name} total_energy", _cell(energy), b.total_energy)
        _equal(f"{name} total_edits", int(edits), b.total_edits)
        _close(f"{name} alpha", _cell(alpha), b.alpha)
        d_ref = _ks_reference(values, counts, b)
        _close(f"{name} D", _cell(d), d_ref, atol=1e-8)
        _power_law_flag(f"{name} is_power_law", _flag(power), _cell(d), d_ref)
        _equal(f"{name} saturated", _flag(saturated), bool(log.quiet[key]))
        total += b.total_edits
    _equal("edit total", total, log.ts.size)


def _rho(xs: list[float], ys: list[float]) -> float | None:
    if len(xs) < 2 or np.ptp(xs) == 0.0 or np.ptp(ys) == 0.0:
        return None
    return float(np.corrcoef(xs, ys)[0, 1])


def check_correlate(
    readership: dict[int, int], considered: list[int], log: EventLog, out: Path, stderr: str
) -> None:
    _check_skipped(stderr, log.malformed)
    doc = json.loads(out.read_text(encoding="utf-8"))
    joined = [k for k in considered if k in readership]
    _equal("pages_analyzed", doc["pages_analyzed"], len(joined))
    _equal("pages_analyzed + pages_dropped",
           doc["pages_analyzed"] + doc["pages_dropped"], len(considered))
    hist = oracles.group_histograms(log.page, log.editor)
    bundles = {k: oracles.bundle(*hist[k]) for k in joined}
    per_metric = {
        "S": lambda b: b.entropy,
        "R": lambda b: b.entropy_reduction,
        "Q": lambda b: b.efficiency,
        "total_energy": lambda b: b.total_energy,
        "total_edits": lambda b: float(b.total_edits),
    }
    group = doc["groups"]["all"]
    _equal("all size", group["size"], len(joined))
    for key, metric in per_metric.items():
        have = [k for k in joined if metric(bundles[k]) is not None]
        xs = [metric(bundles[k]) for k in have]
        _close(f"readership_rho {key}", group["readership_rho"][key],
               _rho(xs, [float(readership[k]) for k in have]), atol=1e-9)
        _close(f"editors_rho {key}", group["editors_rho"][key],
               _rho(xs, [float(bundles[k].population) for k in have]), atol=1e-9)
    if joined:
        clicks = [readership[k] for k in joined]
        edits = [bundles[k].total_edits for k in joined]
        _close("readership_mean", group["readership_mean"], statistics.fmean(clicks))
        _close("readership_median", group["readership_median"], float(np.median(clicks)))
        _close("edits_mean", group["edits_mean"], statistics.fmean(edits))
        _close("edits_median", group["edits_median"], float(np.median(edits)))
    d_refs = [_ks_reference(*hist[k], bundles[k]) for k in joined]
    if all(d is None or abs(d - KS_THRESHOLD) > 1e-6 for d in d_refs):
        power = sum(1 for d in d_refs if d is not None and d < KS_THRESHOLD)
        _equal("power_law size", doc["groups"]["power_law"]["size"], power)
        _equal("non_power_law size", doc["groups"]["non_power_law"]["size"], len(joined) - power)


# ---------------------------------------------------------------- collections


def write_collection(values: np.ndarray, counts: np.ndarray, path: Path) -> None:
    path.write_text(
        "value,count\n" + "".join(f"{v},{c}\n" for v, c in zip(values.tolist(), counts.tolist())),
        encoding="utf-8",
    )


def read_collection(path: Path) -> tuple[np.ndarray, np.ndarray]:
    rows = _csv(path, "value,count")
    table = np.array([[int(v), int(c)] for v, c in rows], dtype=np.int64).reshape(-1, 2)
    return table[:, 0], table[:, 1]


def zipf_collection(rng: np.random.Generator, a: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.unique(rng.zipf(a, n), return_counts=True)


def check_metrics(values: np.ndarray, counts: np.ndarray, out: Path, stderr: str) -> None:
    _check_bundle_json(json.loads(out.read_text(encoding="utf-8")), oracles.bundle(values, counts))


def check_fit(values: np.ndarray, counts: np.ndarray, out: Path, stderr: str) -> None:
    doc = json.loads(out.read_text(encoding="utf-8"))
    b = oracles.bundle(values, counts)
    _close("alpha", doc["alpha"], b.alpha, rtol=1e-12)
    _equal("v_min", doc["v_min"], int(values.min()))
    _close("zeta", doc["zeta"], oracles.zeta(b.alpha))
    d_ref = _ks_reference(values, counts, b)
    _close("D", doc["D"], d_ref, atol=1e-8)
    _power_law_flag("is_power_law", doc["is_power_law"], doc["D"], d_ref)


def check_synth(alpha: float, n: int, out: Path, stderr: str) -> None:
    values, counts = read_collection(out)
    _equal("population", int(counts.sum()), n)
    d = oracles.ks_distance(values, counts, alpha)
    bound = oracles.dkw_bound(n, 1e-9)
    if not d <= bound:
        raise CheckFailed(f"sample KS distance {d} exceeds the DKW bound {bound} (p = 1e-9)")


def curve_grid(alpha_min: float, alpha_max: float, step: float) -> np.ndarray:
    count = int(math.floor((alpha_max - alpha_min) / step + 1e-6)) + 1
    return alpha_min + step * np.arange(count)


def check_curves(alpha_min: float, alpha_max: float, out: Path, stderr: str) -> None:
    rows = _csv(out, "alpha,S,Q,R,E,A")
    grid = curve_grid(alpha_min, alpha_max, 0.1)
    _equal("grid size", len(rows), grid.size)
    for row, alpha in zip(rows, grid):
        a, s, q, r, e, free = (_cell(x) for x in row)
        _close("alpha", a, alpha, rtol=1e-11)
        s_ref, q_ref, r_ref = oracles.truncated_power_law(a, 10_000)
        _close(f"S({a})", s, s_ref)
        _close(f"Q({a})", q, q_ref)
        _close(f"R({a})", r, r_ref)
        _close(f"E({a})", e, 1.0 / (a - 1.0))
        _close(f"A({a})", free, oracles.free_energy(a))


def check_verify(e_target: float, support_max: int, model: str, out: Path, stderr: str) -> None:
    doc = json.loads(out.read_text(encoding="utf-8"))
    _close("E", doc["E"], e_target, rtol=1e-6)
    if not doc["max_residual"] < 1e-6:
        raise CheckFailed(f"max_residual {doc['max_residual']} is not below 1e-6")
    lam = oracles.maxent_rate(e_target, support_max, model)
    _close("lambda", doc["lambda"], lam, rtol=1e-6, atol=1e-9)


# ---------------------------------------------------------------- workloads


class Workload:
    """A seeded source of rounds; ``warmup`` is one small untimed call."""

    name = ""

    def __init__(self, seed: int, index: int) -> None:
        self.rng = np.random.default_rng([seed, index])
        self._ops = 0

    def _year(self) -> int:
        # A calendar year of its own per operation defeats the day -> month cache.
        self._ops += 1
        return 2000 + self._ops

    def _seed(self) -> int:
        return int(self.rng.integers(1 << 62))

    def warmup(self, d: Path) -> list[str]:
        raise NotImplementedError

    def next_round(self, d: Path) -> list[Op]:
        raise NotImplementedError


def _events_op(sub: str, log: EventLog, d: Path, rng: np.random.Generator, threads: int,
               extra: list[str], check: Callable) -> Op:
    src, out = d / f"{sub}.csv", d / f"{sub}.out"
    write_event_log(log, src, rng)
    argv = [sub, "--events", str(src), *extra, "--output", str(out), "--threads", str(threads)]
    return Op(sub, argv, functools.partial(check, log, out))


class EditLogWorkload(Workload):
    """Logs of ~330k events over 12 UTC months and 40 pages, at --threads 1."""

    name = "editlog"
    N_PAGES = 40
    EDITORS_PER_MONTH = 7_500
    EDITOR_POOL = 60_000

    def _log(self, year: int, editors_per_month: int = EDITORS_PER_MONTH) -> EventLog:
        return monthly_log(self.rng, year, self.N_PAGES, editors_per_month, self.EDITOR_POOL)

    def warmup(self, d: Path) -> list[str]:
        write_event_log(self._log(1999, 40), d / "warm.csv", self.rng)
        return ["evolve", "--events", str(d / "warm.csv"), "--output", str(d / "warm.out")]

    def next_round(self, d: Path) -> list[Op]:
        evolve = _events_op("evolve", self._log(self._year()), d, self.rng, 1, [], check_evolve)
        pages = _events_op("pages", self._log(self._year()), d, self.rng, 1, [], check_pages)
        log = self._log(self._year())
        clicks = write_readership(self.rng, self.N_PAGES, 0.85, d / "readership.csv")
        saturated = np.flatnonzero(log.quiet).tolist()
        correlate = _events_op(
            "correlate", log, d, self.rng, 1,
            ["--readership", str(d / "readership.csv"), "--saturated-only"],
            functools.partial(check_correlate, clicks, saturated),
        )
        return [evolve, pages, correlate]


class PageFitsWorkload(Workload):
    """Many small pages with per-page Zipf exponents; ``pages`` uses the thread pool.

    ``evolve`` runs here too, so that the monthly grouping and the class
    decomposition are measured on a workload in ``BENCHMARK.json``.

    ``pages`` runs at --threads 2 and ``correlate`` at --threads 1: on two
    cores the pool's threads contend for the interpreter lock, and over 30
    alternating calls that doubled the op-to-op spread of ``pages`` at the
    same median time. One pooled operation per round keeps the pool
    measured while halving that noise.
    """

    name = "pagefits"
    N_PAGES = 1500
    EDITOR_POOL = 100_000

    def _log(self, year: int, n_pages: int = N_PAGES) -> EventLog:
        return page_log(self.rng, year, n_pages, self.EDITOR_POOL)

    def warmup(self, d: Path) -> list[str]:
        write_event_log(self._log(1999, 20), d / "warm.csv", self.rng)
        return ["pages", "--events", str(d / "warm.csv"), "--output", str(d / "warm.out"),
                "--threads", "2"]

    def next_round(self, d: Path) -> list[Op]:
        evolve = _events_op("evolve", self._log(self._year()), d, self.rng, 1, [], check_evolve)
        pages = _events_op("pages", self._log(self._year()), d, self.rng, 2, [], check_pages)
        log = self._log(self._year())
        clicks = write_readership(self.rng, self.N_PAGES, 0.85, d / "readership.csv")
        correlate = _events_op(
            "correlate", log, d, self.rng, 1, ["--readership", str(d / "readership.csv")],
            functools.partial(check_correlate, clicks, np.unique(log.page).tolist()),
        )
        return [evolve, pages, correlate]


class TheoryWorkload(Workload):
    """No logs: sampling, fits near alpha = 1, curves and the oracle."""

    name = "theory"
    SYNTH_N = 1_000_000
    SYNTH_ALPHAS = (1.5, 2.0, 2.5)
    # True exponents whose fits land at alpha ~1.29 and ~1.59, where zeta
    # sums ~6e7 and ~2e6 terms.
    FIT_EXPONENTS = (1.25, 1.45)
    FIT_N = 100_000
    SUPPORT_MAX = 1_000_000

    def warmup(self, d: Path) -> list[str]:
        write_collection(*zipf_collection(self.rng, 3.0, 500), d / "warm.csv")
        return ["fit", "--input", str(d / "warm.csv"), "--output", str(d / "warm.out")]

    def next_round(self, d: Path) -> list[Op]:
        ops = []
        for i, base in enumerate(self.SYNTH_ALPHAS):
            alpha = base + float(self.rng.uniform(0.0, 0.01))
            out = d / f"synth{i}.csv"
            argv = ["synth", "--alpha", repr(alpha), "--n", str(self.SYNTH_N),
                    "--seed", str(self._seed()), "--output", str(out)]
            ops.append(Op("synth", argv, functools.partial(check_synth, alpha, self.SYNTH_N, out)))
        for sub, check in (("metrics", check_metrics), ("fit", check_fit)):
            for i, a in enumerate(self.FIT_EXPONENTS):
                values, counts = zipf_collection(self.rng, a, self.FIT_N)
                src, out = d / f"{sub}{i}.csv", d / f"{sub}{i}.json"
                write_collection(values, counts, src)
                extra = ["--format", "json"] if sub == "metrics" else []
                argv = [sub, "--input", str(src), "--output", str(out), *extra]
                ops.append(Op(sub, argv, functools.partial(check, values, counts, out)))
        shift = float(self.rng.uniform(1e-6, 1e-4))
        lo, hi = 1.2 + shift, 4.0 + shift
        out = d / "curves.csv"
        argv = ["curves", "--alpha-min", repr(lo), "--alpha-max", repr(hi), "--output", str(out)]
        ops.append(Op("curves", argv, functools.partial(check_curves, lo, hi, out)))
        for model, (e_lo, e_hi) in (("logarithmic", (1.5, 3.0)), ("linear", (20.0, 200.0))):
            e_target = float(self.rng.uniform(e_lo, e_hi))
            out = d / f"verify-{model}.json"
            argv = ["verify-theorem", "--e-target", repr(e_target), "--support-max",
                    str(self.SUPPORT_MAX), "--model", model, "--output", str(out)]
            check = functools.partial(check_verify, e_target, self.SUPPORT_MAX, model, out)
            ops.append(Op("verify", argv, check))
        values = np.array(sorted(STALL_COLLECTION), dtype=np.int64)
        counts = np.array([STALL_COLLECTION[v] for v in values.tolist()], dtype=np.int64)
        write_collection(values, counts, d / "stall.csv")
        out = d / "stall.json"
        argv = ["fit", "--input", str(d / "stall.csv"), "--output", str(out)]
        ops.append(Op("fit", argv, functools.partial(check_fit, values, counts, out),
                      deadline_s=STALL_DEADLINE_S))
        return ops


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (EditLogWorkload, PageFitsWorkload, TheoryWorkload)
}
