import importlib
import json
import math
import os
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qvdp
from qvdp import cli, commands
from qvdp.cli import main, parse_args
from qvdp.bifurcation import homoclinic_curve
from qvdp.detect import classify_forced, find_limit_cycle
from qvdp.errors import NoConvergence
from qvdp.integrate import integrate, stroboscopic
from qvdp.model import Params, State, unforced_rhs
from qvdp.output import PortraitSVG, csv_lines, dumps_json, fmt, rows_to_csv

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "..", "src", "qvdp",
                           "schemas", "cli.schema.json")


def _schema():
    with open(SCHEMA_PATH) as fh:
        return json.load(fh)


def _validate(doc, name):
    schema = _schema()
    jsonschema.validate(doc, {"$ref": f"#/$defs/{name}",
                              "$defs": schema["$defs"]})


def _run(argv):
    return main(argv)


# --- serialization helpers ----------------------------------------------------

def test_fmt_round_trips_floats():
    rng = np.random.default_rng(41)
    for _ in range(200):
        x = float(rng.standard_normal() * 10.0 ** rng.integers(-12, 12))
        assert float(fmt(x)) == x
    assert fmt(1) == "1"
    with pytest.raises(ValueError):
        fmt(math.inf)


def test_dumps_json_deterministic():
    doc = {"a": 1.5, "b": [1, 2.25, None, True], "c": {"d": "x\"y"}}
    assert dumps_json(doc) == dumps_json(doc)
    parsed = json.loads(dumps_json(doc))
    assert parsed["a"] == 1.5 and parsed["c"]["d"] == 'x"y'


def test_rows_to_csv_lf_only():
    text = rows_to_csv(("a", "b"), [(1.0, 2.5), (3.0, "x")])
    assert "\r" not in text
    assert text == "a,b\n1,2.5\n3,x\n"


# --- streamed CSV output --------------------------------------------------------

_STREAMED = {
    "sweep": ["sweep", "--eps", "1", "--grid", "beta:0:3:7",
              "--grid", "mu:-1:1:5"],
    "portrait": ["portrait", "--beta", "1", "--eps", "2", "--mu", "-0.1",
                 "--seed", "2,0", "--seed", "0.8,0", "--t1", "5"],
    "forced": ["forced", "--mu", "-0.3", "--beta", "1", "--eps", "3",
               "--alpha", "-0.3", "--seed", "0,1.2", "--n", "12"],
}


@pytest.mark.parametrize("cmd", sorted(_STREAMED))
def test_streamed_csv_equals_rows_to_csv(cmd, tmp_path, monkeypatch, capsys):
    # each CSV the CLI streams has the bytes rows_to_csv gives its rows
    expected = []

    def recording(header, rows):
        rows = list(rows)
        with monkeypatch.context() as inner:
            # rows_to_csv reads qvdp.output.csv_lines too: not this one
            inner.setattr("qvdp.output.csv_lines", csv_lines)
            expected.append(rows_to_csv(header, rows))
        return csv_lines(header, rows)

    monkeypatch.setattr("qvdp.output.csv_lines", recording)
    out = tmp_path / "o.csv"
    assert main(_STREAMED[cmd] + ["--out", str(out)]) == 0
    written = [out] + ([tmp_path / "o_ts.csv"] if cmd == "forced" else [])
    assert [f.read_text() for f in written] == expected
    expected.clear()
    assert main(_STREAMED[cmd]) == 0
    assert capsys.readouterr().out.startswith("".join(expected))


def _sweep_peak_bytes(tmp_path, n: int) -> int:
    out = tmp_path / f"s{n}.csv"
    tracemalloc.start()
    try:
        assert main(["sweep", "--eps", "1", "--grid", f"beta:0:3:{n}",
                     "--grid", f"mu:-1:1:{n}", "--out", str(out)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_memory_does_not_grow_with_the_grid(tmp_path):
    # rows are streamed to the file: the traced peak of a 200 x 200 sweep
    # (a 3.3 MB CSV) is that of a 20 x 20 one up to the axes and allocator
    # noise (about 20 kB); built in memory it was 31 MB
    _sweep_peak_bytes(tmp_path, 2)  # first-use allocations
    small = _sweep_peak_bytes(tmp_path, 20)
    large = _sweep_peak_bytes(tmp_path, 200)
    assert large < 256 * 1024
    assert large < small + 64 * 1024


def test_failing_runs_leave_no_out_file(tmp_path, capsys):
    # the sweep overflows at its first cell (muc ~ 1e400), after the header
    # line; the portrait's only seed fails
    sweep = tmp_path / "s.csv"
    assert main(["sweep", "--eps", "1", "--grid", "beta:1e200:2e200:2",
                 "--grid", "mu:0:1:2", "--out", str(sweep)]) == 2
    portrait = tmp_path / "p.csv"
    assert main(["portrait", "--beta", "1", "--eps", "2", "--mu", "0.2",
                 "--seed", "1e200,0", "--format", "svg",
                 "--out", str(portrait)]) == 3
    assert list(tmp_path.iterdir()) == []
    # an existing file is left as it was
    sweep.write_text("kept\n")
    assert main(["sweep", "--eps", "1", "--grid", "beta:1e200:2e200:2",
                 "--grid", "mu:0:1:2", "--out", str(sweep)]) == 2
    assert sweep.read_text() == "kept\n"
    assert [f.name for f in tmp_path.iterdir()] == ["s.csv"]


@pytest.mark.parametrize("name", ["nodir/x.json", "."])
def test_unwritable_out_exit_2(name, tmp_path, monkeypatch, capsys):
    # a missing directory, or a directory as the target: one error line
    # that names the path given, and nothing is written
    monkeypatch.chdir(tmp_path)
    assert main(["classify", "--beta", "1", "--eps", "2", "--out", name]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {name}: ")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["classify", "--beta", "1", "--eps", "2", "--mu", "-0.1"],
    ["sweep", "--eps", "1", "--grid", "beta:0:3:3", "--grid", "mu:-1:1:3"],
    ["forced", "--mu", "-0.3", "--beta", "1", "--eps", "3", "--alpha",
     "-0.3", "--n", "4"],
    ["repro", "--n", "2"],
])
def test_empty_out_exit_2(argv, tmp_path, monkeypatch, capsys):
    # an empty --out names no file: one error line, and nothing is written
    # to the working directory or next to it
    work = tmp_path / "w"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(argv + ["--out", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write '': ")
    assert captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [work]
    assert list(work.iterdir()) == []


def test_out_through_symlink_and_into_pipe(tmp_path):
    # a symlinked --out is written through and stays a link; a pipe is
    # written in place, not replaced by a file
    argv = ["sweep", "--eps", "1", "--grid", "beta:0:3:4",
            "--grid", "mu:-1:1:3"]
    plain = tmp_path / "plain.csv"
    assert main(argv + ["--out", str(plain)]) == 0
    real, link = tmp_path / "real.csv", tmp_path / "link.csv"
    real.write_text("old\n")
    link.symlink_to(real)
    assert main(argv + ["--out", str(link)]) == 0
    assert link.is_symlink() and real.read_bytes() == plain.read_bytes()
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    assert main(argv + ["--out", str(fifo)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive() and got == [plain.read_bytes()]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "link.csv", "pipe", "plain.csv", "real.csv"]


# --- classify ------------------------------------------------------------------

def test_classify_pre_hopf_reference(tmp_path, capsys):
    out = tmp_path / "c.json"
    rc = _run(["classify", "--beta", "1", "--eps", "2", "--mu", "-0.25",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    _validate(doc, "classify")
    kinds = {e["label"]: e["kind"] for e in doc["equilibria"]}
    assert kinds == {"O": "saddle", "E1": "stable_focus", "E2": "stable_focus"}
    assert doc["region_label"] == "three_eq_no_cycle"
    assert doc["critical_mus"]["muc"] == -0.25


def test_classify_homoclinic_proximal(tmp_path):
    out = tmp_path / "c.json"
    rc = _run(["classify", "--beta", "1", "--eps", "2", "--mu", "-0.171",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["homoclinic_proximal"] is True
    assert abs(doc["mu3"] - (-0.17142857142857143)) < 1e-12


def test_classify_single_saddle_index_certificate(tmp_path):
    out = tmp_path / "c.json"
    rc = _run(["classify", "--beta", "0", "--eps", "-1", "--mu", "0",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    _validate(doc, "classify")
    assert len(doc["equilibria"]) == 1
    assert doc["equilibria"][0]["kind"] == "saddle"
    assert any("index" in c for c in doc["certificates"])
    assert doc["critical_mus"] is None and doc["mu3"] is None


def test_classify_invalid_params_exit_2(capsys):
    rc = _run(["classify", "--beta", "-1", "--eps", "2", "--mu", "0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.strip().count("\n") == 0 and "beta" in err


@pytest.mark.parametrize("argv", [
    ["classify", "--beta", "1e200", "--eps", "1"],
    ["sweep", "--eps", "1", "--grid", "beta:1e200:2e200:2",
     "--grid", "mu:0:1:2"],
])
def test_overflowing_closed_forms_exit_2(argv, capsys):
    # muc ~ (beta/eps)^2 ~ 1e400 overflows: a one-line error, not a traceback
    assert _run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_eigenvalues_leaving_the_float_range_exit_2(capsys):
    assert _run(["classify", "--mu", "-1e308", "--beta", "1e154",
                 "--eps", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: eigenvalues leave the float range at "
                   "mu=-1e+308, beta=1e+154, eps=1\n")


def _numbers(doc):
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return [x for item in doc for x in _numbers(item)]
    return [doc] if isinstance(doc, float) else []


@pytest.mark.parametrize("beta,eps,mu", [("1e154", "1e10", "0"),
                                         ("1", "1", "1e200"),
                                         ("1", "1", "-1e200"),
                                         ("0", "1", "1e-200")])
def test_closed_forms_keep_the_float_range_in_classify(beta, eps, mu, capsys):
    # the eigenvalues square sigma ~ -1e288 at (1e154, 1e10, 0) and mu at
    # mu = +-1e200, and mu^2 underflows at (0, 1, 1e-200); every value
    # here is a finite double
    assert _run(["classify", "--beta", beta, "--eps", eps, "--mu", mu]) == 0
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert err == "" and all(map(math.isfinite, _numbers(doc)))
    if beta == "0":
        # (mu, 0) at O, not (mu/2, mu/2)
        assert doc["equilibria"][0]["eigenvalues"] == [[1e-200, 0], [0, 0]]


def test_sweep_keeps_the_float_range(capsys):
    # beta^2 overflows at beta = 1.5e154, where muc ~ 2.25e288 is a double
    assert _run(["sweep", "--eps", "1e10", "--grid", "beta:1.3e154:1.5e154:2",
                 "--grid", "mu:0:1:2"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 5
    assert all(math.isfinite(float(x)) for row in rows[1:]
               for x in row[:3] + row[4:])


def test_classify_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    _run(["classify", "--beta", "1.3", "--eps", "0.7", "--mu", "0.11",
          "--out", str(a)])
    _run(["classify", "--beta", "1.3", "--eps", "0.7", "--mu", "0.11",
          "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_classify_params_block_bytes(tmp_path):
    out = tmp_path / "c.json"
    _run(["classify", "--beta", "1.3", "--eps", "0.7", "--mu", "0.11",
          "--out", str(out)])
    assert out.read_text().startswith(
        '{\n  "params": {\n    "mu": 0.11,\n    "beta": 1.3,\n'
        '    "eps": 0.69999999999999996,\n    "alpha": 0,\n'
        '    "omega": 1\n  },\n  "equilibria": [\n')


# --- melnikov ------------------------------------------------------------------

def test_melnikov_cli_values(tmp_path):
    out = tmp_path / "m.json"
    rc = _run(["melnikov", "--beta", "1", "--eps", "1", "--mu", "0",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    _validate(doc, "melnikov")
    assert abs(doc["closed_form"] - (-16.0 / 105.0)) < 1e-12
    assert doc["relative_diff"] < 1e-6


def test_melnikov_cli_near_root(tmp_path):
    out = tmp_path / "m.json"
    rc = _run(["melnikov", "--beta", "1", "--eps", "2",
               "--mu", "-0.1714285", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert abs(doc["closed_form"]) < 1e-7


def test_melnikov_readme_command_keeps_its_bytes(capsys):
    assert _run(["melnikov", "--beta", "1", "--eps", "2",
                 "--mu", "-0.1714285"]) == 0
    out, err = capsys.readouterr()
    assert out.encode() == (b'{\n'
                            b'  "closed_form": 4.7619047593983055e-08,\n'
                            b'  "quadrature": 4.7619047624438297e-08,\n'
                            b'  "mu3": -0.17142857142857146,\n'
                            b'  "relative_diff": 5.7103583233713798e-17\n'
                            b'}\n')
    assert err == ""


_MU3 = -0.17142857142857143  # homoclinic_curve(1, 2)


@pytest.mark.parametrize("flags", [
    ["--beta", "1", "--eps", "2", "--mu", "-0.1714285714"],
    ["--beta", "1", "--eps", "2", "--mu", repr(_MU3 - 1e-12)],
    ["--beta", "1", "--eps", "2", "--mu", repr(_MU3 + 1e-12)],
    ["--beta", "1.8584702170465293", "--eps", "1.0022572147386237",
     "--mu", "1.4687153492759921"],
])
def test_melnikov_agrees_next_to_the_homoclinic_curve(flags, tmp_path, capsys):
    # M cancels its terms near mu3, so the two values are compared relative
    # to the terms: a rounding-level difference is agreement, however small
    # M is; and the quadrature warns about nothing
    out = tmp_path / "m.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(["melnikov", *flags, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(out.read_text())["relative_diff"] < 1e-12


def test_melnikov_disagreement_exit_3_keeps_its_json(tmp_path, monkeypatch,
                                                     capsys):
    # the JSON is the evidence of the disagreement, so it is written before
    # the run exits 3 with one error line
    bif = importlib.import_module("qvdp.bifurcation")
    melnikov = bif.melnikov

    def off_quadrature(mu, beta, eps, method):
        res = melnikov(mu, beta, eps, method)
        if method is bif.MelnikovMethod.QUADRATURE:
            res = res._replace(value=res.value + 1e-3 * res.scale)
        return res

    monkeypatch.setattr(bif, "melnikov", off_quadrature)
    out = tmp_path / "m.json"
    assert _run(["melnikov", "--beta", "1", "--eps", "1", "--mu", "0",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: closed form and quadrature disagree: ")
    assert err.count("\n") == 1
    doc = json.loads(out.read_text())
    _validate(doc, "melnikov")
    assert doc["relative_diff"] >= 1e-6


def test_melnikov_cli_rejects_bad_domain():
    assert _run(["melnikov", "--beta", "0", "--eps", "2", "--mu", "0"]) == 2


@pytest.mark.parametrize("flags", [["--beta", "1e100", "--eps", "1"],
                                   ["--beta", "1", "--eps", "1e-110"]])
def test_melnikov_out_of_float_range_exit_2(flags, tmp_path, capsys):
    # beta^4 overflows, eps^3 underflows to 0: one error line, no file
    out = tmp_path / "m.json"
    assert _run(["melnikov", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


# --- portrait ------------------------------------------------------------------

def test_portrait_csv_contract(tmp_path):
    out = tmp_path / "p.csv"
    rc = _run(["portrait", "--beta", "1", "--eps", "2", "--mu", "-0.1",
               "--seed", "2,0", "--seed", "0.8,0", "--t1", "20",
               "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    lines = text.split("\n")
    assert lines[0] == "seed_id,t,x,y"
    assert "\r" not in text
    body = [l for l in lines[1:] if l]
    seeds = {int(l.split(",")[0]) for l in body}
    assert seeds == {0, 1}
    # 17-digit round trip
    for line in body[:50]:
        cells = line.split(",")
        for cell in cells[1:]:
            v = float(cell)
            assert fmt(v) == cell


def test_portrait_escaping_seeds_warn_but_keep_partial(tmp_path, capsys):
    out = tmp_path / "p.csv"
    rc = _run(["portrait", "--beta", "1", "--eps", "-1", "--mu", "0",
               "--seed", "2,0", "--t1", "200", "--tol", "1e-6",
               "--out", str(out)])
    assert rc == 0
    assert "escaped" in capsys.readouterr().err
    body = [l for l in out.read_text().split("\n")[1:] if l]
    assert len(body) > 2
    last_x = float(body[-1].split(",")[2])
    assert abs(last_x) > 5.0


def test_portrait_all_seeds_failing_exit_3(tmp_path, capsys):
    out = tmp_path / "p.csv"
    rc = _run(["portrait", "--beta", "1", "--eps", "2", "--mu", "0.2",
               "--seed", "1e200,0", "--out", str(out)])
    assert rc == 3


def test_portrait_non_finite_seed_exit_2(tmp_path, capsys):
    out = tmp_path / "p.csv"
    assert _run(["portrait", "--beta", "1", "--eps", "2", "--mu", "-0.1",
                 "--seed", "nan,0", "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "error: initial state must be finite\n"
    assert list(tmp_path.iterdir()) == []


def test_forced_numerical_failure_exit_3(tmp_path, monkeypatch, capsys):
    # an integration failure in the forced run: one error line, exit 3, and
    # none of the three files
    def fail(*args, **kwargs):
        raise NoConvergence("no convergence")

    # the module, which the package's exported function of its name hides
    monkeypatch.setattr(importlib.import_module("qvdp.integrate"),
                        "stroboscopic", fail)
    out = tmp_path / "f.csv"
    assert _run(["forced", "--mu", "-0.1", "--beta", "1", "--eps", "3",
                 "--alpha", "-0.3", "--n", "5", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_forced_escape_for_eps_below_zero_exit_3(tmp_path, capsys):
    # the eps < 0 orbit escapes at t = 23.82 (about 1 s): one error line,
    # exit 3, and none of the three files
    out = tmp_path / "f.csv"
    assert _run(["forced", "--mu", "0.3", "--beta", "1", "--eps", "-2",
                 "--alpha", "0.3", "--n", "20", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: state escaped") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_forced_out_must_not_be_the_json_path(tmp_path, capsys):
    # the verdict goes to --out with the extension .json: an --out f.json
    # would have the verdict replace the strobe CSV
    out = tmp_path / "f.json"
    assert _run(["forced", "--mu", "-0.1", "--beta", "1", "--eps", "3",
                 "--alpha", "-0.3", "--n", "5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(out) in err
    assert list(tmp_path.iterdir()) == []


def test_portrait_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["portrait", "--beta", "1", "--eps", "2", "--mu", "-0.2",
            "--seed", "1.1,0.3", "--t1", "15"]
    _run(argv + ["--out", str(a)])
    _run(argv + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_portrait_requires_seed(tmp_path):
    assert _run(["portrait", "--beta", "1", "--eps", "2"]) == 2


def test_forced_rejects_a_second_seed(tmp_path, capsys):
    # forced runs one orbit: a second --seed is an error, not dropped
    out = tmp_path / "f.csv"
    assert _run(["forced", "--mu", "-0.1", "--beta", "1", "--eps", "3",
                 "--alpha", "-0.3", "--seed", "0,1.2", "--seed", "1,0",
                 "--n", "5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["portrait", "--beta", "1", "--eps", "2", "--mu", "-0.1", "--t1", "5"],
    ["forced", "--beta", "1", "--eps", "3", "--mu", "-0.3", "--alpha",
     "-0.3", "--n", "20"],
])
def test_negative_seed_as_separate_value(tmp_path, argv):
    # "--seed -2,0" is the same seed as "--seed=-2,0"
    split, joined = tmp_path / "split.csv", tmp_path / "joined.csv"
    assert _run(argv + ["--seed", "-2,0", "--out", str(split)]) == 0
    assert _run(argv + ["--seed=-2,0", "--out", str(joined)]) == 0
    assert split.read_bytes() == joined.read_bytes()
    first = split.read_text().split("\n")[1].split(",")
    assert [float(v) for v in first[2:]] == [-2.0, 0.0]


@pytest.mark.parametrize("argv,flag,value", [
    (["classify", "--beta", "1", "--eps", "2"], "--mu", "-5e-05"),
    (["forced", "--mu", "-0.1", "--beta", "1", "--eps", "3", "--n", "5"],
     "--alpha", "-3e-1"),
    (["portrait", "--beta", "1", "--eps", "2", "--mu", "-0.1",
      "--seed", "1,0"], "--t1", "-1e0"),
])
def test_negative_value_in_exponent_form(tmp_path, argv, flag, value):
    # "--mu -5e-05", as repr writes it, is the same value as "--mu=-5e-05"
    split, joined = tmp_path / "split", tmp_path / "joined"
    split.mkdir()
    joined.mkdir()
    assert _run(argv + [flag, value, "--out", str(split / "o")]) == 0
    assert _run(argv + [f"{flag}={value}", "--out", str(joined / "o")]) == 0
    files = sorted(f.name for f in split.iterdir())
    assert files == sorted(f.name for f in joined.iterdir())
    for name in files:
        assert (split / name).read_bytes() == (joined / name).read_bytes()


def test_portrait_large_cycle_topology(tmp_path):
    # both a seed spiraling out of E2 and one falling in from outside end
    # on the same large cycle: late-time x-extents agree
    out = tmp_path / "p.csv"
    rc = _run(["portrait", "--beta", "1", "--eps", "2", "--mu", "-0.1",
               "--seed", "0.75,0", "--seed", "2.5,0", "--t1", "120",
               "--out", str(out)])
    assert rc == 0
    rows = [l.split(",") for l in out.read_text().split("\n")[1:] if l]
    extents = {}
    for sid in ("0", "1"):
        pts = [(float(r[1]), float(r[2])) for r in rows if r[0] == sid]
        late = [x for t, x in pts if t > 80.0]
        extents[sid] = max(late)
    assert abs(extents["0"] - extents["1"]) < 0.05 * extents["1"]


def test_portrait_svg_written(tmp_path):
    out = tmp_path / "p.csv"
    rc = _run(["portrait", "--beta", "0", "--eps", "2", "--mu", "1",
               "--seed", "2,0", "--t1", "30", "--format", "svg",
               "--disk", "--out", str(out)])
    assert rc == 0
    svg = (tmp_path / "p.svg").read_text()
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
    assert "polyline" in svg and "circle" in svg


def _polygons(svg: str) -> list[list[str]]:
    return [chunk.split('points="')[1].split('"')[0].split()
            for chunk in svg.split("<polygon")[1:]]


def test_portrait_svg_draws_the_search_orbit(tmp_path):
    out = tmp_path / "p.csv"
    argv = ["--beta", "1", "--eps", "2", "--mu", "-0.1"]
    assert _run(["portrait", *argv, "--seed", "2,0", "--t1", "10",
                 "--format", "svg", "--out", str(out)]) == 0
    cyc = find_limit_cycle(Params(mu=-0.1, beta=1.0, eps=2.0), State(2.0, 0.0))
    polygons = _polygons((tmp_path / "p.svg").read_text())
    assert [len(pts) for pts in polygons] == [len(cyc.path)]


def _polylines(svg: str) -> list[list[str]]:
    return [chunk.split('points="')[1].split('"')[0].split()
            for chunk in svg.split("<polyline")[1:]]


def test_portrait_draws_a_cycle_two_seeds_reach_once(tmp_path):
    # the README example: both seeds reach the large cycle, which is drawn
    # once, next to the two orbits
    out = tmp_path / "p.csv"
    assert _run(["portrait", "--beta", "1", "--eps", "2", "--mu", "-0.1",
                 "--seed", "2,0", "--seed", "0.8,0", "--format", "svg",
                 "--out", str(out)]) == 0
    svg = (tmp_path / "p.svg").read_text()
    assert len(_polylines(svg)) == 2
    assert len(_polygons(svg)) == 1


@pytest.mark.parametrize("seed, t1", [((2.0, 0.0), 10.0), ((0.8, 0.0), -10.0)])
def test_portrait_rows_are_the_refined_grid(seed, t1, tmp_path):
    # rows and polyline are the step ends plus the interior interpolant
    # points of Trajectory.refined, in the run's time order
    out = tmp_path / "p.csv"
    assert _run(["portrait", "--beta", "1", "--eps", "2", "--mu", "-0.1",
                 f"--seed={seed[0]},{seed[1]}", "--t1", str(t1),
                 "--format", "svg", "--out", str(out)]) == 0
    p = Params(mu=-0.1, beta=1.0, eps=2.0)
    fine = integrate(unforced_rhs(p), np.array(seed), (0.0, t1),
                     tol=(1e-12, 1e-10)).refined()
    rows = np.array([[float(v) for v in line.split(",")[1:]]
                     for line in out.read_text().split("\n")[1:] if line])
    assert np.array_equal(rows, np.column_stack([fine.t, fine.states]))
    assert np.all(np.sign(t1) * np.diff(rows[:, 0]) > 0)
    ref = PortraitSVG(half_width=3.0)
    ref.polyline(fine.states)
    assert _polylines((tmp_path / "p.svg").read_text()) == \
        _polylines(ref.render())


def test_portrait_keeps_large_cycle_past_fixed_bound(tmp_path, capsys):
    # beta/eps = 3, mu = 6.1: the large cycle reaches |y| of about 17, past
    # the fixed bound of 10 that holds for mu <= 1
    out = tmp_path / "p.csv"
    assert _run(["portrait", "--beta", "3", "--eps", "1", "--mu", "6.1",
                 "--seed", "2,0", "--t1", "40", "--out", str(out)]) == 0
    assert "escaped" not in capsys.readouterr().err
    rows = [l.split(",") for l in out.read_text().split("\n")[1:] if l]
    assert float(rows[-1][1]) == 40.0
    assert max(abs(float(r[3])) for r in rows) > 10.0


def test_portrait_draws_a_large_cycle_at_large_beta(tmp_path, capsys):
    # beta = 400, eps = 200, just past mu_3: the bounded orbit passes
    # |y| = 21, beyond 10 max(1, mu), and the search finds its cycle
    out = tmp_path / "p.csv"
    mu = homoclinic_curve(400.0, 200.0) + 0.05
    assert _run(["portrait", "--beta", "400", "--eps", "200", "--mu", repr(mu),
                 "--seed", "2.1,0", "--t1", "20", "--format", "svg",
                 "--out", str(out)]) == 0
    assert "escaped" not in capsys.readouterr().err
    rows = [l.split(",") for l in out.read_text().split("\n")[1:] if l]
    assert float(rows[-1][1]) == 20.0
    assert len(_polygons((tmp_path / "p.svg").read_text())) == 1


def test_portrait_skips_a_seed_whose_cycle_search_fails(tmp_path, capsys):
    # the field overflows at the first seed: its run fails, its search
    # raises and is skipped, and the second seed's cycle is drawn
    out = tmp_path / "p.csv"
    assert _run(["portrait", "--beta", "1", "--eps", "2", "--mu", "-0.1",
                 "--seed", "1e200,0", "--seed", "2,0", "--t1", "10",
                 "--format", "svg", "--out", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == ["warning: seed 0 failed: escaped"]
    svg = (tmp_path / "p.svg").read_text()
    assert len(_polylines(svg)) == 1
    assert len(_polygons(svg)) == 1


@pytest.mark.parametrize("flags, y_end", [
    # eps < 0 orbits do reach infinity: the bound stays 10 whatever mu
    (["--beta", "1", "--eps", "-1", "--mu", "6", "--seed", "0,5",
      "--t1", "50", "--tol", "1e-6"], 10.0),
    # a backward eps > 0 run can escape: it stops at 10 mu = 61, beyond
    # its seed (12, 0)
    (["--beta", "3", "--eps", "1", "--mu", "6.1", "--seed", "12,0",
      "--t1", "-1"], 61.0),
])
def test_portrait_escape_bounds(flags, y_end, tmp_path, capsys):
    out = tmp_path / "p.csv"
    assert _run(["portrait", *flags, "--out", str(out)]) == 0
    assert "escaped to infinity" in capsys.readouterr().err
    last = out.read_text().split("\n")[-2].split(",")
    assert abs(float(last[3]) - y_end) < 1e-9


def test_portrait_seed_beyond_its_escape_bound_fails_as_escaped(tmp_path,
                                                                capsys):
    # the backward seed (12, 0) starts beyond its bound 10: it has escaped
    # at t = 0 rather than crawling on until the step size underflows, and
    # the second seed is drawn up to its own escape
    out = tmp_path / "p.csv"
    assert _run(["portrait", "--beta", "1", "--eps", "2", "--mu", "-0.1",
                 "--seed", "12,0", "--seed", "2,0", "--t1", "-1",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: seed 0 failed: escaped",
        "warning: seed 1 escaped to infinity at t=-0.742484 "
        "(partial trajectory kept)"]
    rows = [l.split(",") for l in out.read_text().split("\n")[1:] if l]
    assert {r[0] for r in rows} == {"1"}


def test_format_only_on_portrait():
    for cmd in ("classify", "sweep", "melnikov", "forced"):
        with pytest.raises(SystemExit) as exc:
            _run([cmd, "--format", "json"])
        assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        _run(["portrait", "--seed", "1,0", "--format", "json"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["portrait", "--seed", "1,0"],
    ["sweep", "--grid", "beta:0:1:2", "--grid", "mu:0:1:2"],
    ["melnikov", "--beta", "1", "--eps", "2"],
    ["classify", "--beta", "1", "--eps", "2"],
])
def test_forcing_flags_only_where_read(argv):
    for flag in ("--alpha", "--omega"):
        with pytest.raises(SystemExit) as exc:
            _run([*argv, flag, "0.3"])
        assert exc.value.code == 2


_COMMON = {"--out", "--mu", "--beta", "--eps"}
_FLAGS = {
    "classify": _COMMON,
    "portrait": _COMMON | {"--format", "--seed", "--t1", "--tol", "--disk"},
    "sweep": _COMMON | {"--grid"},
    "melnikov": _COMMON,
    "forced": _COMMON | {"--alpha", "--omega", "--seed", "--n"},
    "repro": {"--out", "--n"},
}


def test_flag_census():
    # every flag is read by its subcommand; a new one must be listed here
    seen = {name: set(flags) for name, (_, flags) in cli.COMMANDS.items()}
    assert seen == _FLAGS
    with pytest.raises(SystemExit) as exc:  # portraits start at t = 0
        _run(["portrait", "--seed", "1,0", "--t0", "1"])
    assert exc.value.code == 2


def test_flags_without_value_are_the_parsers():
    # --disk alone takes no value; every other flag takes the next
    # argument, '-'-led or not
    seen = {flag for _, flags in cli.COMMANDS.values()
            for flag, (kind, _, _) in flags.items() if kind is None}
    assert seen == {"--disk"}


# '-'-led values argparse refused as a separate argument
_DASH_LED = ["-5e-05", "-inf", "-3e-1", "-2,0"]
_FLOAT_TEXT = st.sampled_from(_DASH_LED[:3]) | st.floats(
    allow_nan=False).map(repr)
_SEED_TEXT = st.just("-2,0") | st.builds(
    "{},{}".format, _FLOAT_TEXT, _FLOAT_TEXT)
_VALUE_TEXT = {
    str: st.sampled_from(_DASH_LED) | st.text(),
    float: _FLOAT_TEXT,
    int: st.integers().map(str),
    cli._seed_pair: _SEED_TEXT,
    cli._grid_spec: st.builds("mu:{}:{}:{}".format, _FLOAT_TEXT.filter(
        lambda t: math.isfinite(float(t))), st.just("-5e-05"),
        st.integers(2, 10**6)),
    cli._portrait_format: st.sampled_from(["csv", "svg"]),
}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data())
def test_every_flag_takes_its_value_split_or_joined(data):
    for command, (_, flags) in cli.COMMANDS.items():
        for flag, (kind, default, _) in flags.items():
            if kind is None:
                continue
            text = data.draw(_VALUE_TEXT[kind], label=f"{command} {flag}")
            split = parse_args([command, flag, text])
            assert split == parse_args([command, f"{flag}={text}"])
            value = kind(text)
            assert getattr(split, flag[2:]) == \
                ([value] if isinstance(default, list) else value)
            if isinstance(default, list):  # --seed and --grid append in order
                texts = data.draw(st.lists(_VALUE_TEXT[kind], max_size=4))
                argv = [command]
                for i, t in enumerate(texts):
                    argv += [flag, t] if i % 2 else [f"{flag}={t}"]
                assert getattr(parse_args(argv), flag[2:]) == \
                    [kind(t) for t in texts]


@pytest.mark.parametrize("argv", [
    ["classify", "--beta", "1", "--nope", "1"],  # unknown flag
    ["classify", "--alpha", "0.3"],              # a flag of forced
    ["classify", "--beta", "1", "--mu"],         # no value left
    ["portrait", "--seed", "1,0", "--disk=1"],   # --disk takes none
    ["classify", "--be", "1"],                   # no prefix abbreviation
    ["sweep", "--grid", "mu:0:1"],
    ["forced", "--n", "1.5"],
    ["portrait", "--format", "json"],
    ["clasify"],
    [],
])
def test_usage_errors_exit_2_with_one_error_line(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse_args(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: qvdp")
    assert [line for line in err.splitlines() if "error:" in line] == \
        [err.splitlines()[-1]]


@pytest.mark.parametrize("command", [None, *cli.COMMANDS])
def test_help_lists_every_flag_of_the_table(command, capsys):
    for flag in ("-h", "--help"):
        with pytest.raises(SystemExit) as exc:
            parse_args([flag] if command is None else [command, flag])
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert err == "" and out.startswith("usage: qvdp")
        names = cli.COMMANDS if command is None else cli.COMMANDS[command][1]
        assert all(name in out for name in names)


@pytest.mark.parametrize("t1", ["nan", "inf"])
def test_portrait_non_finite_end_time_exit_2(t1, capsys):
    assert _run(["portrait", "--beta", "1", "--eps", "2", "--seed", "1,0",
                 "--t1", t1]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_portrait_empty_time_span_exit_2(capsys):
    assert _run(["portrait", "--beta", "1", "--eps", "2", "--seed", "1,0",
                 "--t1", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_portrait_svg_needs_out(capsys):
    # the SVG's path is derived from --out; stdout carries the CSV alone
    assert _run(["portrait", "--beta", "1", "--eps", "2", "--mu", "-0.1",
                 "--seed", "2,0", "--t1", "1", "--format", "svg"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_portrait_svg_out_must_not_be_the_svg_path(tmp_path, capsys):
    # the SVG goes to --out with the extension .svg: an --out p.svg would
    # have the SVG replace the CSV
    out = tmp_path / "p.svg"
    assert _run(["portrait", "--beta", "1", "--eps", "2", "--mu", "-0.1",
                 "--seed", "2,0", "--t1", "1", "--format", "svg",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(out) in err
    assert list(tmp_path.iterdir()) == []


# --- sweep ---------------------------------------------------------------------

def test_sweep_contract_and_speed(tmp_path):
    out = tmp_path / "s.csv"
    t0 = time.time()
    rc = _run(["sweep", "--eps", "1",
               "--grid", "beta:0.05:3:50", "--grid", "mu:-1:1:50",
               "--out", str(out)])
    elapsed = time.time() - t0
    assert rc == 0
    assert elapsed < 5.0
    lines = [l for l in out.read_text().split("\n") if l]
    assert lines[0] == "beta,mu,eps,region,mu1,muc,mu2,mu3"
    assert len(lines) == 1 + 50 * 50


def test_sweep_writes_a_row_for_invalid_params(capsys):
    # beta = -1 is no parameter choice: its cells are reported, not fatal
    assert _run(["sweep", "--eps", "1", "--grid", "beta:-1:1:3",
                 "--grid", "mu:0:1:2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 3 * 2
    assert lines[1:3] == ["-1,0,1,invalid_params,nan,nan,nan,nan",
                          "-1,1,1,invalid_params,nan,nan,nan,nan"]
    assert all("invalid_params" not in line for line in lines[3:])


def test_sweep_regions_change_only_across_curves(tmp_path):
    out = tmp_path / "s.csv"
    _run(["sweep", "--eps", "1", "--grid", "beta:0.2:3:15",
          "--grid", "mu:-0.8:1.2:161", "--out", str(out)])
    lines = [l.split(",") for l in out.read_text().split("\n")[1:] if l]
    by_beta: dict = {}
    for cells in lines:
        by_beta.setdefault(cells[0], []).append(cells)
    for beta_txt, rows in by_beta.items():
        rows.sort(key=lambda c: float(c[1]))
        muc, mu3 = float(rows[0][5]), float(rows[0][7])
        for prev, curr in zip(rows, rows[1:]):
            if prev[3] != curr[3]:
                lo, hi = float(prev[1]), float(curr[1])
                assert (lo <= muc <= hi) or (lo <= mu3 <= hi), \
                    f"region change away from curves at beta={beta_txt}"


def test_sweep_curve_intersection_location(tmp_path):
    # mu_c and mu_3 cross only at beta -> 0 and beta = (7/3) eps
    out = tmp_path / "s.csv"
    _run(["sweep", "--eps", "1", "--grid", "beta:0.1:3:60",
          "--grid", "mu:0:1:2", "--out", str(out)])
    lines = [l.split(",") for l in out.read_text().split("\n")[1:] if l]
    seen = {}
    for cells in lines:
        seen[float(cells[0])] = float(cells[5]) - float(cells[7])
    betas = sorted(seen)
    flips = [0.5 * (a + b) for a, b in zip(betas, betas[1:])
             if seen[a] * seen[b] < 0]
    assert len(flips) == 1
    assert abs(flips[0] - 7.0 / 3.0) < 0.1


def test_sweep_requires_two_grids():
    assert _run(["sweep", "--eps", "1", "--grid", "beta:0:1:10"]) == 2
    assert _run(["sweep", "--eps", "1", "--grid", "beta:0:1:10",
                 "--grid", "gamma:0:1:10"]) == 2


def test_sweep_malformed_grid_spec():
    with pytest.raises(SystemExit) as exc:
        _run(["sweep", "--eps", "1", "--grid", "beta:0:1:1",
              "--grid", "mu:0:1:10"])
    assert exc.value.code == 2


@pytest.mark.parametrize("spec", ["mu:-inf:inf:3", "mu:0:nan:3",
                                  "mu:inf:1:3"])
def test_sweep_non_finite_grid_bound_is_a_usage_error(spec, tmp_path,
                                                      capsys):
    # rejected while parsing, before the CSV header is written
    out = tmp_path / "s.csv"
    for extra in ([], ["--out", str(out)]):
        with pytest.raises(SystemExit) as exc:
            _run(["sweep", "--eps", "2", "--grid", spec,
                  "--grid", "beta:0:1:2", *extra])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "AXIS:MIN:MAX:N" in captured.err
    assert list(tmp_path.iterdir()) == []


def _bits(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("spec", ["beta:0:3:7", "mu:-1:1:2", "mu:0.3:0.3:5",
                                  "mu:1.2:-0.8:161", "eps:-2:2.5:301",
                                  "beta:0.05:3:50", "mu:-0.3:0.1:3"])
def test_sweep_axis_is_linspace_bit_for_bit(spec):
    _, lo, hi, n = cli._grid_spec(spec)
    assert _bits(commands._axis(lo, hi, n)) == _bits(np.linspace(lo, hi, n))


def test_sweep_axis_is_linspace_on_random_specs():
    rng = np.random.default_rng(12)
    for _ in range(2000):
        lo, hi = rng.uniform(-1, 1, 2) * 10.0 ** rng.integers(-8, 9, 2)
        n = int(rng.integers(2, 400))
        assert _bits(commands._axis(lo, hi, n)) == _bits(np.linspace(lo, hi, n))


# --- forced --------------------------------------------------------------------

def test_forced_outputs_and_schema(tmp_path):
    out = tmp_path / "f.csv"
    rc = _run(["forced", "--mu", "-0.3", "--beta", "1", "--eps", "3",
               "--alpha", "-0.3", "--omega", "1", "--seed", "0,1.2",
               "--n", "60", "--out", str(out)])
    assert rc == 0
    strobe = [l for l in out.read_text().split("\n") if l]
    assert strobe[0] == "k,t,x,y"
    assert len(strobe) == 62
    ts = [l for l in (tmp_path / "f_ts.csv").read_text().split("\n") if l]
    assert ts[0] == "t,x,y"
    assert len(ts) == 2 + 60 * 16
    doc = json.loads((tmp_path / "f.json").read_text())
    _validate(doc, "forced")
    assert doc["n"] == 60


def test_forced_json_equals_library_verdict(tmp_path):
    out = tmp_path / "f.csv"
    assert _run(["forced", "--mu", "-0.1", "--beta", "1", "--eps", "3",
                 "--alpha", "-0.3", "--omega", "1", "--seed", "0,1.2",
                 "--n", "300", "--out", str(out)]) == 0
    doc = json.loads((tmp_path / "f.json").read_text())
    p = Params(mu=-0.1, beta=1.0, eps=3.0, alpha=-0.3, omega=1.0)
    report = classify_forced(p, State(0.0, 1.2), 300)
    # the CLI's strobe is a strided view of its time series, every 16th row
    series = stroboscopic(p, (0.0, 1.2), 300, per_period=16)
    strided = classify_forced(p, State(0.0, 1.2), 300, samples=series[::16])
    for r in (report, strided):
        assert doc["verdict"] == r.verdict.value
        assert doc["rotation_number"] == r.rotation_number
        assert doc["evidence"] == json.loads(json.dumps(r.evidence))


def test_forced_run_loads_no_scipy(tmp_path):
    # the closure test's neighbor distances are plain numpy: a forced run
    # that reaches it imports no scipy module
    out = tmp_path / "f.csv"
    code = ("import sys, qvdp.cli\n"
            "assert qvdp.cli.main(sys.argv[1:]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    argv = ["forced", "--mu", "-0.1", "--beta", "1", "--eps", "3",
            "--alpha", "-0.3", "--seed", "0,1.2", "--n", "60",
            "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(qvdp.__file__)))
    run = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"
    assert "closure" in json.loads((tmp_path / "f.json").read_text())["evidence"]


def test_closed_form_paths_load_no_numpy(tmp_path):
    # classify, sweep and melnikov never load numpy, the integrating
    # modules, dataclasses or inspect, nor do the RHS closures or the Hopf
    # normal form; portrait and forced load them on first use
    code = "\n".join([
        "import sys",
        "import qvdp",
        "import qvdp.cli",
        "from qvdp.model import Params, forced_rhs, unforced_rhs",
        "def heavy():",
        "    return sorted(m for m in sys.modules",
        "                  if m.split('.')[0] == 'numpy' or m in",
        "                  ('qvdp.integrate', 'qvdp.detect', 'qvdp.compactify',",
        "                   'dataclasses', 'inspect'))",
        "print(heavy())",
        "p = Params(mu=-0.1, beta=1.0, eps=3.0, alpha=-0.3, omega=1.0)",
        "unforced_rhs(p)(0.0, [1.0, 0.5])",
        "forced_rhs(p)(0.0, [1.0, 0.5])",
        "print(heavy())",
        "from qvdp.bifurcation import (hopf_cycle_prediction,",
        "    hopf_normal_form, torus_frequency_estimate)",
        "q = Params(mu=-0.2, beta=1.0, eps=2.0)",
        "hopf_normal_form(q), hopf_cycle_prediction(q)",
        "torus_frequency_estimate(q)",
        "print(heavy())",
        "for argv in sys.argv[1:]:",
        "    print(qvdp.cli.main(argv.split()), heavy() == [])",
    ])
    params = "--beta 1 --eps 2 --mu -0.1"
    runs = [f"classify {params} --out {tmp_path / 'c.json'}",
            f"sweep --eps 2 --grid beta:0:1.5:4 --grid mu:-0.3:0.1:3 "
            f"--out {tmp_path / 's.csv'}",
            f"melnikov {params} --out {tmp_path / 'm.json'}",
            f"portrait {params} --seed 2,0 --t1 10 --format svg "
            f"--out {tmp_path / 'p.csv'}",
            f"forced --mu -0.1 --beta 1 --eps 3 --alpha -0.3 --seed 0,1.2 "
            f"--n 20 --out {tmp_path / 'f.csv'}"]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(qvdp.__file__)))
    out = subprocess.run([sys.executable, "-c", code, *runs], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split("\n")[:-1] == ["[]", "[]", "[]", "0 True", "0 True",
                                    "0 True", "0 False", "0 False"]
    assert (tmp_path / "p.svg").exists() and (tmp_path / "f.json").exists()


def test_cli_loads_what_each_subcommand_runs(tmp_path):
    # import qvdp.cli, --help and a usage error load no module beyond the
    # parser's, argparse and gettext included; forced and a CSV portrait run
    # without the bifurcation module
    code = "\n".join([
        "import contextlib, io, sys",
        "import qvdp.cli",
        "def loaded():",
        "    return sorted(m for m in sys.modules if m.split('.')[0] in",
        "                  ('qvdp', 'argparse', 'gettext'))",
        "print(loaded())",
        "for argv in (['--help'], ['classify', '--mu', 'x']):",
        "    with contextlib.redirect_stdout(io.StringIO()), \\",
        "            contextlib.redirect_stderr(io.StringIO()):",
        "        try:",
        "            qvdp.cli.main(argv)",
        "        except SystemExit as exc:",
        "            code = exc.code",
        "    print(code, loaded())",
        "for argv in sys.argv[1:]:",
        "    print(qvdp.cli.main(argv.split()),",
        "          'qvdp.bifurcation' in sys.modules)",
    ])
    runs = [f"portrait --beta 1 --eps 2 --mu -0.1 --seed 2,0 --t1 10 "
            f"--out {tmp_path / 'p.csv'}",
            f"forced --mu -0.1 --beta 1 --eps 3 --alpha -0.3 --seed 0,1.2 "
            f"--n 20 --out {tmp_path / 'f.csv'}"]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(qvdp.__file__)))
    out = subprocess.run([sys.executable, "-c", code, *runs], env=env,
                         capture_output=True, text=True, check=True).stdout
    parser_only = "['qvdp', 'qvdp.cli']"
    assert out.split("\n")[:-1] == [parser_only, f"0 {parser_only}",
                                    f"2 {parser_only}", "0 False", "0 False"]
    assert (tmp_path / "p.csv").exists() and (tmp_path / "f.json").exists()


def test_subcommands_load_no_argparse(tmp_path):
    # the table parses every argv, repro's own included: no run imports
    # argparse or the gettext it loads
    code = ("import sys, qvdp.cli\n"
            "for argv in sys.argv[1:]:\n"
            "    print(qvdp.cli.main(argv.split()),\n"
            "          'argparse' in sys.modules, 'gettext' in sys.modules)")
    runs = [f"classify --beta 1 --eps 2 --mu -0.25 --out {tmp_path / 'c.json'}",
            f"repro --n 2 --out {tmp_path / 'r'}"]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(qvdp.__file__)))
    out = subprocess.run([sys.executable, "-c", code, *runs], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "0 False False\n0 False False\n"


def test_every_subcommand_dispatches_to_its_cmd():
    # dispatch looks cmd_<name> up in qvdp.commands when it runs: each
    # subcommand the table knows has one, and the parser module has none
    assert sorted(cli.COMMANDS) == ["classify", "forced", "melnikov",
                                    "portrait", "repro", "sweep"]
    assert all(callable(getattr(commands, f"cmd_{name}", None))
               for name in cli.COMMANDS)
    assert [name for name in vars(cli) if name.startswith("cmd_")] == []


def test_repro_run_as_main_module_writes_what_main_writes(tmp_path):
    # under python -m qvdp.cli the parser module is __main__: cmd_repro
    # imports parse_args from qvdp.cli afresh and writes the same bundle
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(qvdp.__file__)))
    run = subprocess.run([sys.executable, "-m", "qvdp.cli", "repro", "--n",
                          "2", "--out", str(tmp_path / "m")], env=env,
                         capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (0, "")
    assert run.stderr == f"wrote {tmp_path / 'm'}/\n"
    assert main(["repro", "--n", "2", "--out", str(tmp_path / "c")]) == 0
    names = sorted(f.name for f in (tmp_path / "m").iterdir())
    assert names == sorted(f.name for f in (tmp_path / "c").iterdir())
    assert len(names) == 13
    for name in names:
        assert (tmp_path / "m" / name).read_bytes() == \
            (tmp_path / "c" / name).read_bytes(), name


def test_forced_requires_alpha():
    assert _run(["forced", "--mu", "-0.3", "--beta", "1", "--eps", "3",
                 "--alpha", "0", "--n", "10"]) == 2


@pytest.mark.parametrize("n", ["0", "-3"])
def test_forced_requires_a_period(n, capsys):
    assert _run(["forced", "--mu", "-0.3", "--beta", "1", "--eps", "3",
                 "--alpha", "-0.3", "--n", n]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_forced_has_no_tol_flag():
    # the strobe tolerance is fixed at the integrator default (1e-12, 1e-10)
    with pytest.raises(SystemExit) as exc:
        _run(["forced", "--mu", "-0.3", "--beta", "1", "--eps", "3",
              "--alpha", "-0.3", "--n", "10", "--tol", "1e-6"])
    assert exc.value.code == 2


def test_forced_series_bounded(tmp_path):
    out = tmp_path / "f.csv"
    _run(["forced", "--mu", "-0.1", "--beta", "1", "--eps", "3",
          "--alpha", "-0.3", "--omega", "1", "--seed", "0,1.2",
          "--n", "80", "--out", str(out)])
    rows = [l.split(",") for l in
            (tmp_path / "f_ts.csv").read_text().split("\n")[1:] if l]
    xs = np.array([float(r[1]) for r in rows])
    assert np.max(np.abs(xs)) < 2.0


# --- repro ---------------------------------------------------------------------

def test_repro_bundle(tmp_path):
    outdir = tmp_path / "repro"
    rc = _run(["repro", "--out", str(outdir), "--n", "40"])
    assert rc == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert len(manifest["unforced"]) == 6
    assert len(manifest["forced"]) == 2
    assert all(e["exit_code"] == 0 for e in
               manifest["unforced"] + manifest["forced"])
    near = json.loads((outdir / "homoclinic_proximal.json").read_text())
    assert near["homoclinic_proximal"] is True
    for name in ("forced_entrained", "forced_quasiperiodic"):
        assert (outdir / f"{name}.json").exists()
        assert (outdir / f"{name}_ts.csv").exists()


def test_repro_onto_a_regular_file_exit_2(tmp_path, monkeypatch, capsys):
    # --out names the bundle's directory: an existing regular file there is
    # one error line naming it, left as it was, and nothing else is written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("old\n")
    assert main(["repro", "--n", "2", "--out", "taken"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write taken: ")
    assert captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [tmp_path / "taken"]
    assert (tmp_path / "taken").read_text() == "old\n"


def test_repro_requires_a_period(tmp_path, capsys):
    outdir = tmp_path / "repro"
    assert _run(["repro", "--out", str(outdir), "--n", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not outdir.exists()
