"""Subcommand behavior: files in, files out, deterministic bytes."""

import json
import math
import sys

import pytest

from thermolens import cli
from helpers import corpus_lines


def run(*args: str) -> int:
    return cli.main(list(args))


@pytest.fixture
def small_collection_csv(tmp_path):
    path = tmp_path / "coll.csv"
    path.write_text("value,count\n1,2\n2,2\n")
    return path


@pytest.fixture
def corpus_csv(tmp_path):
    lines = corpus_lines(
        [(2021, 1, 1.8, 120), (2021, 2, 2.0, 100), (2021, 3, 2.2, 80)],
        seed=31,
        n_pages=6,
    )
    path = tmp_path / "events.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestSynth:
    def test_byte_identical_runs(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("synth", "--alpha", "2", "--n", "1000", "--seed", "7", "--output", str(out1)) == 0
        assert run("synth", "--alpha", "2", "--n", "1000", "--seed", "7", "--output", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_is_mandatory(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("synth", "--alpha", "2", "--n", "10", "--output", str(tmp_path / "x.csv"))
        assert exc.value.code == 2

    def test_output_is_readable_collection(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        run("synth", "--alpha", "2", "--n", "500", "--seed", "1", "--output", str(out))
        text = out.read_text()
        assert text.startswith("# thermolens")
        assert text.splitlines()[1] == "value,count"

    def test_non_finite_alpha_exits_one(self, tmp_path, capsys):
        for alpha in ("inf", "nan"):
            out = tmp_path / "s.csv"
            code = run("synth", "--alpha", alpha, "--n", "10", "--seed", "1", "--output", str(out))
            assert code == 1
            assert len(capsys.readouterr().err.splitlines()) == 1


class TestMetrics:
    def test_fixture_row(self, small_collection_csv, tmp_path):
        out = tmp_path / "m.csv"
        assert run("metrics", "--input", str(small_collection_csv), "--output", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# thermolens")
        assert lines[1] == "N,S,R,E,Q,alpha,A,fe_ratio"
        cells = lines[2].split(",")
        assert cells[0] == "4"
        assert float(cells[1]) == pytest.approx(0.693147, abs=1e-6)
        assert float(cells[4]) == pytest.approx(2.0)

    def test_json_format(self, small_collection_csv, tmp_path):
        out = tmp_path / "m.json"
        run(
            "metrics", "--input", str(small_collection_csv),
            "--output", str(out), "--format", "json",
        )
        payload = json.loads(out.read_text())
        assert payload["_meta"]["tool"].startswith("thermolens")
        assert payload["Q"] == pytest.approx(2.0)

    def test_missing_input_exits_one(self, tmp_path, capsys):
        code = run("metrics", "--input", str(tmp_path / "nope.csv"), "--output", str(tmp_path / "o"))
        assert code == 1
        assert "thermolens: error:" in capsys.readouterr().err

    def test_values_equal_at_float_precision_leave_fit_blank(self, tmp_path):
        src = tmp_path / "huge.csv"
        src.write_text("value,count\n1152921504606846976,1\n1152921504606846977,1\n")
        out = tmp_path / "m.csv"
        assert run("metrics", "--input", str(src), "--output", str(out)) == 0
        header, row = out.read_text().splitlines()[1:]
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["alpha"] == cells["A"] == cells["fe_ratio"] == ""
        assert cells["N"] == "2" and float(cells["Q"]) > 0

    def test_empty_collection_exits_one(self, tmp_path, capsys):
        src = tmp_path / "empty.csv"
        src.write_text("value,count\n")
        code = run("metrics", "--input", str(src), "--output", str(tmp_path / "o.csv"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("thermolens: error:") and err.count("\n") == 1


class TestFit:
    def test_json_output(self, tmp_path):
        coll = tmp_path / "c.csv"
        run("synth", "--alpha", "2", "--n", "5000", "--seed", "3", "--output", str(coll))
        out = tmp_path / "fit.json"
        assert run("fit", "--input", str(coll), "--output", str(out)) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"_meta", "alpha", "v_min", "zeta", "D", "is_power_law"}
        assert payload["v_min"] == 1

    def test_values_equal_at_float_precision_exit_one(self, tmp_path, capsys):
        src = tmp_path / "huge.csv"
        src.write_text("value,count\n1152921504606846976,1\n1152921504606846977,1\n")
        assert run("fit", "--input", str(src), "--output", str(tmp_path / "f.json")) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "log-spread" in err[0]

    def test_env_override_threshold(self, tmp_path, monkeypatch):
        coll = tmp_path / "c.csv"
        run("synth", "--alpha", "2", "--n", "5000", "--seed", "3", "--output", str(coll))
        out = tmp_path / "fit.json"
        monkeypatch.setenv("THERMOLENS_KS_THRESHOLD", "1.0")
        assert run("fit", "--input", str(coll), "--output", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["is_power_law"] is True  # any D beats a threshold of 1.0
        assert payload["_meta"]["config"]["ks_threshold"] == 1.0


class TestCurves:
    def test_energy_column_strictly_decreasing(self, tmp_path):
        out = tmp_path / "curves.csv"
        assert run(
            "curves", "--alpha-min", "1.2", "--alpha-max", "4", "--step", "0.1",
            "--truncation", "1000", "--output", str(out),
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "alpha,S,Q,R,E,A"
        energies = [float(line.split(",")[4]) for line in lines[2:]]
        assert all(a > b for a, b in zip(energies, energies[1:]))
        assert len(energies) == 29  # inclusive grid 1.2..4.0 step 0.1

    def test_bad_grid_exits_one(self, tmp_path, capsys):
        code = run(
            "curves", "--alpha-min", "2", "--alpha-max", "1", "--step", "0.1",
            "--output", str(tmp_path / "c.csv"),
        )
        assert code == 1

    @pytest.mark.parametrize(
        "flag,value",
        [("--alpha-max", "nan"), ("--alpha-max", "inf"), ("--alpha-min", "nan"), ("--step", "nan")],
    )
    def test_non_finite_grid_exits_one(self, tmp_path, capsys, flag, value):
        assert run("curves", flag, value, "--output", str(tmp_path / "c.csv")) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "finite" in err[0]


class TestVerifyTheorem:
    def test_report_fields(self, tmp_path):
        out = tmp_path / "v.json"
        assert run(
            "verify-theorem", "--e-target", "1.0", "--support-max", "2000",
            "--output", str(out),
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["max_residual"] < 1e-9
        assert payload["model"] == "logarithmic"
        assert payload["E"] == pytest.approx(1.0, abs=1e-8)
        assert payload["lambda"] > 1

    def test_linear_model(self, tmp_path):
        out = tmp_path / "v.json"
        assert run(
            "verify-theorem", "--e-target", "3.0", "--support-max", "2000",
            "--model", "linear", "--output", str(out),
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["max_residual"] < 1e-9

    def test_infeasible_target_exits_one(self, tmp_path):
        assert run(
            "verify-theorem", "--e-target", "99", "--support-max", "100",
            "--output", str(tmp_path / "v.json"),
        ) == 1

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "1e300"])
    def test_bad_tolerance_exits_one(self, tmp_path, capsys, tol):
        out = tmp_path / "v.json"
        assert run(
            "verify-theorem", "--e-target", "2.0", "--support-max", "1000",
            "--tol", tol, "--output", str(out),
        ) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "tolerance" in err[0]
        assert not out.exists()


class TestEvolve:
    def test_series_and_determinism_across_threads(self, corpus_csv, tmp_path):
        outs = []
        for threads in ("1", "8"):
            out = tmp_path / f"evo{threads}.csv"
            assert run(
                "evolve", "--events", str(corpus_csv), "--output", str(out),
                "--threads", threads,
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        lines = outs[0].decode().splitlines()
        assert lines[1] == "month,N,S,R,logN,E,Q,alpha,A,fe_ratio"
        months = [line.split(",")[0] for line in lines[2:]]
        assert months == ["2021-01", "2021-02", "2021-03"]

    def test_strict_mode_propagates(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("ts,editor,page\n1,a,p\nbroken\n")
        ok = run("evolve", "--events", str(bad), "--output", str(tmp_path / "o.csv"))
        assert ok == 0
        assert "skipped 1" in capsys.readouterr().err
        assert run(
            "evolve", "--events", str(bad), "--output", str(tmp_path / "o2.csv"), "--strict"
        ) == 1


class TestPages:
    def test_per_page_rows(self, corpus_csv, tmp_path):
        out = tmp_path / "pages.csv"
        assert run(
            "pages", "--events", str(corpus_csv), "--output", str(out),
            "--min-edits", "10",
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "page,N,S,R,Q,total_energy,total_edits,alpha,D,is_power_law,saturated"
        assert len(lines) > 3
        flags = {line.split(",")[-1] for line in lines[2:]}
        assert flags <= {"true", "false"}


class TestTimestampDomain:
    """A timestamp must lie in [0, 253402300799], up to the end of year 9999 UTC."""

    @pytest.mark.parametrize("sub", ["evolve", "pages"])
    @pytest.mark.parametrize("ts", ["99999999999999", "1e300", "253402300800"])
    def test_far_future_row_is_a_bad_row(self, sub, ts, tmp_path, capsys):
        log = tmp_path / "events.csv"
        log.write_text(f"ts,editor,page\n# note\n1,a,p\n{ts},b,q\n2,c,p\n")
        out = tmp_path / "out.csv"
        assert run(sub, "--events", str(log), "--output", str(out)) == 0
        assert capsys.readouterr().err == "thermolens: skipped 1 malformed event rows\n"
        rows = out.read_text().splitlines()[2:]
        assert [row.split(",")[0] for row in rows] == ["1970-01" if sub == "evolve" else "p"]
        code = run(sub, "--events", str(log), "--output", str(out), "--strict")
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "DomainError: line 4:" in err[0]

    def test_last_second_of_year_9999_is_kept(self, tmp_path):
        log = tmp_path / "events.csv"
        log.write_text("ts,editor,page\n253402300799,a,p\n0,a,p\n")
        out = tmp_path / "out.csv"
        assert run("evolve", "--events", str(log), "--output", str(out), "--strict") == 0
        months = [row.split(",")[0] for row in out.read_text().splitlines()[2:]]
        assert months == ["1970-01", "9999-12"]

    @pytest.mark.parametrize(
        "horizon", ["9" * 401, "253402300800", "-1"], ids=["401-digits", "year-10000", "negative"]
    )
    @pytest.mark.parametrize("sub", ["pages", "correlate"])
    def test_horizon_outside_domain_exits_one(self, sub, horizon, tmp_path, capsys):
        log = tmp_path / "events.csv"
        log.write_text("ts,editor,page\n1,a,p\n2,b,p\n")
        args = [sub, "--events", str(log), "--output", str(tmp_path / "out")]
        if sub == "correlate":
            readership = tmp_path / "readers.csv"
            readership.write_text("page,clicks\np,10\n")
            args += ["--readership", str(readership), "--saturated-only"]
        assert run(*args, "--min-edits", "1", f"--horizon={horizon}") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "outside [0, 253402300799]" in err[0]

    @pytest.mark.parametrize("horizon, saturated", [("2", "false"), ("253402300799", "true")])
    def test_horizon_in_domain_is_used(self, horizon, saturated, tmp_path):
        log = tmp_path / "events.csv"
        log.write_text("ts,editor,page\n1,a,p\n2,b,p\n")
        out = tmp_path / "out.csv"
        assert run(
            "pages", "--events", str(log), "--output", str(out), "--min-edits", "1",
            "--horizon", horizon,
        ) == 0
        assert out.read_text().splitlines()[2].split(",")[-1] == saturated


class TestCorrelate:
    def test_report_json(self, corpus_csv, tmp_path):
        pages_out = tmp_path / "pages.csv"
        run("pages", "--events", str(corpus_csv), "--output", str(pages_out), "--min-edits", "1")
        page_ids = [line.split(",")[0] for line in pages_out.read_text().splitlines()[2:]]
        readership = tmp_path / "readers.csv"
        readership.write_text(
            "page,clicks\n" + "\n".join(f"{p},{100 + 13 * i}" for i, p in enumerate(page_ids)) + "\n"
        )
        out = tmp_path / "corr.json"
        assert run(
            "correlate", "--events", str(corpus_csv), "--readership", str(readership),
            "--output", str(out),
        ) == 0
        payload = json.loads(out.read_text())
        assert set(payload["groups"]) == {"power_law", "non_power_law", "all"}
        assert payload["pages_analyzed"] == len(page_ids)
        assert payload["pages_dropped"] == 0

    def test_saturated_only_filters(self, corpus_csv, tmp_path):
        readership = tmp_path / "readers.csv"
        readership.write_text("page,clicks\np0,10\np1,20\np2,30\n")
        out = tmp_path / "corr.json"
        assert run(
            "correlate", "--events", str(corpus_csv), "--readership", str(readership),
            "--output", str(out), "--saturated-only", "--min-edits", "100000",
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["pages_analyzed"] == 0  # nothing passes a huge min-edits bar

    def test_saturated_only_on_empty_log(self, tmp_path):
        events = tmp_path / "events.csv"
        events.write_text("ts,editor,page\n")
        readership = tmp_path / "readers.csv"
        readership.write_text("page,clicks\np0,10\n")
        payloads = []
        for extra in ([], ["--saturated-only"]):
            out = tmp_path / "corr.json"
            assert run(
                "correlate", "--events", str(events), "--readership", str(readership),
                "--output", str(out), *extra,
            ) == 0
            payload = json.loads(out.read_text())
            del payload["_meta"]
            payloads.append(payload)
        assert payloads[0] == payloads[1]
        assert payloads[0]["pages_analyzed"] == 0


class TestFieldOverCsvLimit:
    """A field over the csv module's size limit (131072) is a malformed row on its line."""

    BIG = "7" * 200_000

    def test_collection_row_exits_one(self, tmp_path, capsys):
        src = tmp_path / "coll.csv"
        src.write_text(f"# note\nvalue,count\n1,{self.BIG}\n")
        assert run("metrics", "--input", str(src), "--output", str(tmp_path / "m.csv")) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "line 3:" in err[0]

    def test_readership_row_exits_one(self, corpus_csv, tmp_path, capsys):
        readership = tmp_path / "readers.csv"
        readership.write_text(f"page,clicks\np0,{self.BIG}\n")
        assert run(
            "correlate", "--events", str(corpus_csv), "--readership", str(readership),
            "--output", str(tmp_path / "corr.json"),
        ) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "line 2:" in err[0]

    def test_event_row_is_skipped_or_strict_error(self, tmp_path, capsys):
        log = tmp_path / "events.csv"
        log.write_text(f"ts,editor,page\n1,a,p\n# note\n2,{self.BIG},p\n3,b,p\n")
        out = tmp_path / "out.csv"
        assert run("pages", "--events", str(log), "--output", str(out)) == 0
        assert capsys.readouterr().err == "thermolens: skipped 1 malformed event rows\n"
        assert run("pages", "--events", str(log), "--output", str(out), "--strict") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "line 4:" in err[0] and "field larger" in err[0]

    def test_header_exits_one(self, tmp_path, capsys):
        log = tmp_path / "events.csv"
        log.write_text(f"ts,{self.BIG},page\n1,a,p\n")
        assert run("pages", "--events", str(log), "--output", str(tmp_path / "o.csv")) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "expected header" in err[0]


class TestInvalidUtf8:
    """Bytes that are not UTF-8 are bad input: exit 1 and one stderr line."""

    BAD = b"\xff\xfe"

    def _assert_one_line(self, capsys, kind):
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"{kind} CSV is not valid UTF-8" in err[0]

    def test_collection(self, tmp_path, capsys):
        src = tmp_path / "coll.csv"
        src.write_bytes(b"value,count\n1,2\n" + self.BAD + b",3\n")
        assert run("metrics", "--input", str(src), "--output", str(tmp_path / "m.csv")) == 1
        self._assert_one_line(capsys, "collection")

    def test_event_log(self, tmp_path, capsys):
        log = tmp_path / "events.csv"
        log.write_bytes(b"ts,editor,page\n1,a,p\n2," + self.BAD + b",p\n")
        assert run("pages", "--events", str(log), "--output", str(tmp_path / "o.csv")) == 1
        self._assert_one_line(capsys, "event")

    def test_readership(self, corpus_csv, tmp_path, capsys):
        readership = tmp_path / "readers.csv"
        readership.write_bytes(b"page,clicks\n" + self.BAD + b",3\n")
        assert run(
            "correlate", "--events", str(corpus_csv), "--readership", str(readership),
            "--output", str(tmp_path / "corr.json"),
        ) == 1
        self._assert_one_line(capsys, "readership")


class TestValueAboveFloatRange:
    """A collection value above the largest float is rejected on its line."""

    @pytest.mark.parametrize(
        "argv", [("metrics",), ("metrics", "--model", "linear"), ("fit",)]
    )
    def test_exits_one(self, argv, tmp_path, capsys):
        src = tmp_path / "coll.csv"
        src.write_text(f"value,count\n1,3\n{10**400},2\n")
        assert run(*argv, "--input", str(src), "--output", str(tmp_path / "o.csv")) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "line 3:" in err[0] and "float range" in err[0]

    def test_largest_sampled_value_round_trips(self, tmp_path):
        # sample never draws above FLOAT_MAX/2, so synth output always reads back.
        src = tmp_path / "coll.csv"
        src.write_text(f"value,count\n1,3\n{int(sys.float_info.max / 2)},2\n")
        for argv in (("metrics",), ("metrics", "--model", "linear"), ("fit",)):
            assert run(*argv, "--input", str(src), "--output", str(tmp_path / "o.csv")) == 0


class TestCurvesAtLargeAlpha:
    def test_underflowed_terms_leave_finite_cells(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run("curves", "--alpha-min", "100", "--alpha-max", "100", "--output", str(out)) == 0
        cells = out.read_text().splitlines()[2].split(",")
        assert all(math.isfinite(float(c)) for c in cells)

    def test_zero_energy_leaves_q_blank(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run("curves", "--alpha-min", "1100", "--alpha-max", "1100", "--output", str(out)) == 0
        alpha, s, q, r = out.read_text().splitlines()[2].split(",")[:4]
        assert (alpha, s, q) == ("1100", "0", "")
        assert float(r) == pytest.approx(math.log(10_000))


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            run("metrics", "--output", "x.csv")
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0
        assert "thermolens" in capsys.readouterr().out
