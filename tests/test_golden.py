"""Every subcommand's output files, byte for byte, against tests/golden/.

The inputs are small and seeded, file names are relative to the working
directory and ``THERMOLENS_*`` variables are cleared, so the ``#`` header
lines and the JSON ``_meta`` members are as deterministic as the data.
After a deliberate output change, rewrite the golden files with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from thermolens import Collection, cli, powerlaw, write_collection_csv
from helpers import corpus_lines, month_start

GOLDEN = Path(__file__).parent / "golden"

_EVENTS = ("--events", "events.csv")
_CORRELATE = (
    "correlate", *_EVENTS, "--readership", "readers.csv", "--min-edits", "50",
    "--ks-threshold", "0.19",
)

# Golden file name -> subcommand arguments (the output goes to that name).
CASES: dict[str, tuple[str, ...]] = {
    "synth.csv": ("synth", "--alpha", "2.2", "--n", "800", "--seed", "11"),
    "metrics.csv": ("metrics", "--input", "coll.csv"),
    "metrics.json": ("metrics", "--input", "coll.csv", "--format", "json"),
    "metrics_linear.csv": ("metrics", "--input", "coll.csv", "--model", "linear"),
    "metrics_flat.csv": ("metrics", "--input", "flat.csv"),
    "metrics_flat.json": ("metrics", "--input", "flat.csv", "--format", "json"),
    "fit.json": ("fit", "--input", "coll.csv"),
    "fit.csv": ("fit", "--input", "coll.csv", "--format", "csv", "--ks-threshold", "0.05"),
    "curves.csv": (
        "curves", "--alpha-min", "1.5", "--alpha-max", "3", "--step", "0.25",
        "--truncation", "1000",
    ),
    "verify_log.json": ("verify-theorem", "--e-target", "1.0", "--support-max", "500"),
    "verify_linear.json": (
        "verify-theorem", "--e-target", "3.0", "--support-max", "500", "--model", "linear",
    ),
    "evolve.csv": ("evolve", *_EVENTS),
    "pages.csv": ("pages", *_EVENTS, "--min-edits", "50", "--ks-threshold", "0.2"),
    "correlate.json": _CORRELATE,
    "correlate_saturated.json": (*_CORRELATE, "--saturated-only"),
}


def write_inputs(workdir: Path) -> None:
    """Collections, an event log and a readership file in workdir.

    Besides the sampled months, the log holds a page with two one-edit
    editors in April (zero energy: Q, alpha, A and fe_ratio are blank) and
    a page with one three-edit editor in May (one value: no fit).
    """
    with open(workdir / "coll.csv", "w", encoding="utf-8", newline="") as f:
        write_collection_csv(powerlaw.sample(2.0, 2000, 7), f)
    with open(workdir / "flat.csv", "w", encoding="utf-8", newline="") as f:
        write_collection_csv(Collection({1: 3}), f)
    lines = corpus_lines(
        [(2021, 1, 1.8, 120), (2021, 2, 2.0, 100), (2021, 3, 2.2, 80)], seed=31, n_pages=6
    )
    april, may = month_start(2021, 4), month_start(2021, 5)
    lines += [f"{april},a1,flat", f"{april + 60},a2,flat"]
    lines += [f"{may + k},m1,solo" for k in range(3)]
    (workdir / "events.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    clicks = {"p0": 900, "p1": 40, "p2": 310, "p3": 1200, "p4": 75, "flat": 5, "solo": 12}
    (workdir / "readers.csv").write_text(
        "page,clicks\n" + "".join(f"{p},{c}\n" for p, c in clicks.items()), encoding="utf-8"
    )


def run_case(name: str) -> bytes:
    """Run one case in the current directory and return its output bytes."""
    assert cli.main([*CASES[name], "--output", name]) == 0
    return Path(name).read_bytes()


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for key in list(os.environ):
        if key.startswith("THERMOLENS_"):
            monkeypatch.delenv(key)
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    return tmp_path


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(workdir, name):
    assert run_case(name) == (GOLDEN / name).read_bytes()


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for key in [k for k in os.environ if k.startswith("THERMOLENS_")]:
        del os.environ[key]
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        write_inputs(Path(tmp))
        for case in CASES:
            (GOLDEN / case).write_bytes(run_case(case))
