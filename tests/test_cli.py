import json
import math
import os
import time

import jsonschema
import numpy as np
import pytest

from qvdp.cli import main
from qvdp.output import dumps_json, fmt, rows_to_csv

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


def test_classify_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    _run(["classify", "--beta", "1.3", "--eps", "0.7", "--mu", "0.11",
          "--out", str(a)])
    _run(["classify", "--beta", "1.3", "--eps", "0.7", "--mu", "0.11",
          "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


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


def test_melnikov_cli_rejects_bad_domain():
    assert _run(["melnikov", "--beta", "0", "--eps", "2", "--mu", "0"]) == 2


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


def test_portrait_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["portrait", "--beta", "1", "--eps", "2", "--mu", "-0.2",
            "--seed", "1.1,0.3", "--t1", "15"]
    _run(argv + ["--out", str(a)])
    _run(argv + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_portrait_requires_seed(tmp_path):
    assert _run(["portrait", "--beta", "1", "--eps", "2"]) == 2


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


def test_forced_requires_alpha():
    assert _run(["forced", "--mu", "-0.3", "--beta", "1", "--eps", "3",
                 "--alpha", "0", "--n", "10"]) == 2


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
    for name in ("forced_irregular", "forced_quasiperiodic"):
        assert (outdir / f"{name}.json").exists()
        assert (outdir / f"{name}_ts.csv").exists()
