#!/usr/bin/env python3
"""End-to-end edit-log analysis on a synthetic corpus.

Builds a 12-month event log whose planted exponent drifts upward (the
editing structure becomes more efficient over time), runs the monthly
evolution pipeline, then the page-level pipeline: saturation filtering,
classification, and correlation of page efficiency against a planted
readership signal.
"""

import math
from datetime import datetime, timezone

from thermolens import (
    correlate_pages,
    evolution_report,
    monthly_collections,
    page_collections,
    parse_events,
    sample,
)


def build_corpus() -> list[str]:
    lines = ["ts,editor,page"]
    serial = 0
    for m in range(12):
        alpha = 1.5 + 0.5 * m / 11
        start = int(datetime(2021, 1 + m, 1, tzinfo=timezone.utc).timestamp())
        hist = sample(alpha, 600, seed=100 + m)
        for value, count in sorted(hist.counts.items()):
            edits = min(value, 2000)
            for _ in range(count):
                editor, page = f"e{serial}", f"p{serial % 12}"
                serial += 1
                base = start + (serial * 61) % (25 * 86400)
                lines.extend(f"{base + k},{editor},{page}" for k in range(edits))
    return lines


def fmt_rho(rho: float | None) -> str:
    """A correlation to 3 places; n/a when it is absent (a constant series)."""
    return "n/a" if rho is None else f"{rho:.3f}"


def main() -> None:
    lines = build_corpus()
    parsed = parse_events(lines, strict=True)
    print(f"corpus: {len(parsed.events)} events, {parsed.skipped} skipped\n")

    print("= Monthly evolution =\n")
    monthly = monthly_collections(parsed.events)
    rows = evolution_report(monthly)
    print(f"{'month':>8} {'N':>5} {'S':>7} {'R':>7} {'Q':>7} {'alpha':>7} {'Q/alpha':>8}")
    for row in rows:
        r = row.report
        print(
            f"{row.month:>8} {r.population:>5} {r.entropy:>7.3f} {r.entropy_reduction:>7.3f}"
            f" {r.entropy_efficiency:>7.3f} {r.alpha:>7.3f} {r.fe_reduction_ratio:>8.3f}"
        )
    alphas = [row.report.alpha for row in rows]
    print(
        f"\nThe fitted exponent climbs from {alphas[0]:.2f} to {alphas[-1]:.2f}: the planted"
        " drift toward a more\nordered, more efficient contribution structure is recovered"
        " by the pipeline."
    )

    print("\n= Page-level analysis =\n")
    pages = page_collections(parsed.events)
    readership = {}
    for name, coll in sorted(pages.items()):
        n = coll.population
        s = math.log(n) - math.fsum(k * math.log(k) for k in coll.counts.values()) / n
        q = s / (coll.log_value_sum / n)
        readership[name] = int(round(2000 * q))  # planted: clicks follow efficiency
    report = correlate_pages(pages, readership)
    all_group = report.groups["all"]
    print(f"pages analyzed: {report.pages_analyzed}")
    print(f"rho(Q, readership)            = {fmt_rho(all_group.readership_rho['Q'])}")
    print(f"rho(S, readership)            = {fmt_rho(all_group.readership_rho['S'])}")
    print(f"rho(total_edits, readership)  = {fmt_rho(all_group.readership_rho['total_edits'])}")
    print(f"rho(Q, editor count)          = {fmt_rho(all_group.editors_rho['Q'])}")
    print(
        "\nEfficiency carries the planted quality signal; raw volume"
        " (total edits) correlates only\nincidentally. With real logs, feed"
        " the same files through the CLI instead:\n"
        "  thermolens evolve --events log.csv --output evolution.csv\n"
        "  thermolens correlate --events log.csv --readership clicks.csv --output report.json"
    )


if __name__ == "__main__":
    main()
