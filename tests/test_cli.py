import csv
import io
import json
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from conftest import fan_instance, halfplane_instance, square_instance

import membercover
import membercover.cli as cli
from membercover.cli import CSV_COLUMNS, run_bench, run_cli, write_csv
from membercover.instances import InstanceDoc, generate, parse_instance, serialize_instance
from membercover.oracle import (
    exact_minsize_bruteforce,
    exact_mmgsc_bruteforce,
    exact_mpgsc_bruteforce,
    memb_eval,
    verify_cover,
)
from membercover.ply import ply
from membercover.svgplot import render_svg


def _run(capsys, *argv):
    code = run_cli(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_solve_verify_roundtrip(tmp_path, capsys):
    inst = tmp_path / "in.json"
    code, out, _ = _run(capsys, "gen", "--kind", "squares", "--points", "5",
                        "--ranges", "10", "--extent", "2", "--seed", "4",
                        "--out", str(inst))
    assert code == 0
    doc = parse_instance(inst.read_text())
    assert doc.n_points == 5 and doc.n_ranges == 10

    code, out, _ = _run(capsys, "solve", str(inst))
    assert code == 0
    report = json.loads(out)
    assert report["solver"] == "squares-membership"
    assert isinstance(report["cover"], list)

    cover_file = tmp_path / "cover.json"
    cover_file.write_text(json.dumps({"cover": report["cover"]}))
    code, out, _ = _run(capsys, "verify", str(inst), str(cover_file))
    assert code == 0
    assert json.loads(out)["covers"] is True

    # an empty cover fails verification when points exist
    cover_file.write_text(json.dumps({"cover": []}))
    code, out, _ = _run(capsys, "verify", str(inst), str(cover_file))
    assert code == 2

    # ids outside the instance are a parse error, not a crash
    cover_file.write_text(json.dumps({"cover": [999]}))
    code, _out, err = _run(capsys, "verify", str(inst), str(cover_file))
    assert code == 1 and "999" in err


def test_solve_ply_objective(tmp_path, capsys):
    inst = tmp_path / "in.json"
    _run(capsys, "gen", "--kind", "squares", "--points", "4", "--ranges", "8",
         "--extent", "2", "--seed", "13", "--out", str(inst))
    code, out, _ = _run(capsys, "solve", str(inst), "--objective", "ply")
    assert code == 0
    assert json.loads(out)["solver"] == "squares-ply"


def test_solve_halfplanes_ptas(tmp_path, capsys):
    inst = tmp_path / "in.json"
    _run(capsys, "gen", "--kind", "halfplanes", "--points", "4", "--ranges", "5",
         "--seed", "2", "--out", str(inst))
    code, out, _ = _run(capsys, "solve", str(inst), "--epsilon", "1/2")
    assert code == 0
    assert json.loads(out)["solver"] == "halfplanes-ptas"


def test_exact_subcommand(tmp_path, capsys):
    inst = tmp_path / "in.json"
    _run(capsys, "gen", "--kind", "squares", "--points", "4", "--ranges", "8",
         "--extent", "2", "--seed", "15", "--out", str(inst))
    code, out, _ = _run(capsys, "exact", str(inst), "--objective", "membership")
    assert code == 0
    report = json.loads(out)
    assert report["value"] >= 0


def test_uncoverable_exit_code(tmp_path, capsys):
    inst = tmp_path / "in.json"
    inst.write_text('{"kind":"squares","S":[["0","0"]],"Sprime":[],"ranges":[[9,9]]}')
    code, _out, err = _run(capsys, "solve", str(inst))
    assert code == 2
    assert "uncoverable" in err


def test_parse_error_exit_code(tmp_path, capsys):
    inst = tmp_path / "in.json"
    inst.write_text("{broken")
    code, _out, err = _run(capsys, "solve", str(inst))
    assert code == 1


def test_usage_error_exit_code(capsys):
    code, _out, err = _run(capsys, "gen")  # missing --kind
    assert code == 1


def test_plot_valid_svg(tmp_path, capsys):
    inst = tmp_path / "in.json"
    _run(capsys, "gen", "--kind", "squares", "--points", "3", "--ranges", "4",
         "--seed", "9", "--out", str(inst))
    out_svg = tmp_path / "out.svg"
    code, _o, _e = _run(capsys, "plot", str(inst), "--out", str(out_svg))
    assert code == 0
    tree = ET.parse(out_svg)
    root = tree.getroot()
    assert root.tag.endswith("svg")
    doc = parse_instance(inst.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    rects = [
        e for e in root.iter(f"{ns}rect") if e.get("class", "").startswith("range")
    ]
    points_s = [e for e in root.iter(f"{ns}circle") if e.get("class") == "point-s"]
    points_sp = [e for e in root.iter(f"{ns}circle") if e.get("class") == "point-sprime"]
    assert len(rects) == doc.n_ranges
    assert len(points_s) == len(doc.s)
    assert len(points_sp) == len(doc.sprime)


def test_plot_halfplanes_every_object_once(tmp_path, capsys):
    inst = tmp_path / "in.json"
    _run(capsys, "gen", "--kind", "halfplanes", "--points", "3", "--ranges", "4",
         "--seed", "9", "--out", str(inst))
    doc = parse_instance(inst.read_text())
    svg = render_svg(doc, cover_ids=[0])
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    polys = [e for e in root.iter(f"{ns}polygon")]
    assert len(polys) == doc.n_ranges
    highlighted = [e for e in polys if "cover" in e.get("class", "")]
    assert len(highlighted) == 1


def test_bench_csv_schema_and_determinism(tmp_path, capsys):
    rows1, summary1 = run_bench(
        kind="squares", seeds=6, max_ranges=6, n_points=4, extent=2, with_oracle=True
    )
    rows2, summary2 = run_bench(
        kind="squares", seeds=6, max_ranges=6, n_points=4, extent=2, with_oracle=True
    )

    def value_columns(rows):
        return [
            {k: v for k, v in row.items() if k != "millis"} for row in rows
        ]

    assert value_columns(rows1) == value_columns(rows2)
    assert summary1["solvers"] == summary2["solvers"]

    buf = io.StringIO()
    write_csv(rows1, buf)
    buf.seek(0)
    parsed = list(csv.DictReader(buf))
    assert list(parsed[0].keys()) == CSV_COLUMNS
    assert len(parsed) == 6 * 2  # two solvers per squares instance


def test_solve_with_oracle_flag(tmp_path, capsys):
    inst = tmp_path / "in.json"
    _run(capsys, "gen", "--kind", "halfplanes", "--points", "4", "--ranges", "5",
         "--seed", "2", "--out", str(inst))
    code, out, _ = _run(capsys, "solve", str(inst), "--with-oracle")
    assert code == 0
    report = json.loads(out)
    assert report["oracle_value"] is not None
    assert report["value"] >= report["oracle_value"]


def _exact(tmp_path, capsys, kind, instance, *flags):
    points, sprime, ranges = instance
    doc = InstanceDoc(kind, tuple(points), tuple(sprime), tuple(ranges))
    inst = tmp_path / "in.json"
    inst.write_text(serialize_instance(doc))
    code, out, _ = _run(capsys, "exact", str(inst), *flags)
    assert code == 0
    report = json.loads(out)
    assert verify_cover(doc.s, report["witness"], doc.ranges)
    return doc, report


@pytest.mark.parametrize("seed", [7, 9])
def test_exact_ply_objective(tmp_path, capsys, seed):
    doc, report = _exact(tmp_path, capsys, "squares", square_instance(seed),
                         "--objective", "ply")
    assert report["value"] == exact_mpgsc_bruteforce(doc.s, doc.ranges)[0]
    chosen = set(report["witness"])
    assert ply([q for q in doc.ranges if q.id in chosen]).value == report["value"]


@pytest.mark.parametrize("seed", [7, 9])
def test_exact_size_objective(tmp_path, capsys, seed):
    doc, report = _exact(tmp_path, capsys, "squares", square_instance(seed),
                         "--objective", "size")
    assert report["value"] == exact_minsize_bruteforce(doc.s, doc.ranges)[0]
    assert len(set(report["witness"])) == report["value"]


@pytest.mark.parametrize("instance", [halfplane_instance(9), fan_instance(1)])
def test_exact_search_solver(tmp_path, capsys, instance):
    doc, report = _exact(tmp_path, capsys, "halfplanes", instance, "--solver", "search")
    assert report["value"] == exact_mmgsc_bruteforce(doc.s, doc.sprime, doc.ranges)[0]
    assert memb_eval(doc.sprime, report["witness"], doc.ranges) == report["value"]


@pytest.mark.parametrize("kind, instance, flags", [
    ("halfplanes", halfplane_instance(9), ("--objective", "size")),
    ("squares", square_instance(7), ()),
])
def test_exact_search_solver_outside_halfplane_membership(tmp_path, capsys, kind, instance, flags):
    # the search decides halfplane membership only; anywhere else it is
    # refused rather than silently replaced by the brute force
    points, sprime, ranges = instance
    doc = InstanceDoc(kind, tuple(points), tuple(sprime), tuple(ranges))
    inst = tmp_path / "in.json"
    inst.write_text(serialize_instance(doc))
    code, out, err = _run(capsys, "exact", str(inst), "--solver", "search", *flags)
    assert code == 1
    assert out == "" and len(err.strip().splitlines()) == 1
    assert err.startswith("error: ")


# instances that the reader refuses: coordinates outside the grammar that
# str(Fraction) writes or past the digit cap, and a JSON int past int's limit
BAD_INSTANCES = {
    name: '{"kind":"squares","S":[[%s,0]],"Sprime":[],"ranges":[[1,1]]}' % coord
    for name, coord in (
        ("exponent", '"1e10000000"'),
        ("decimal", '"0.5"'),
        ("underscore", '" 1_0 "'),
        ("zero_den", '"1/0"'),
        ("long_str", '"%s"' % ("1" * 257)),
        ("long_int", "1" * 257),
        ("json_int", "1" * 5000),
    )
}
BAD_INSTANCES["long_coeff"] = '{"kind":"halfplanes","S":[],"Sprime":[],"ranges":[[1,0,%s]]}' % (
    "1" * 257
)
BAD_INSTANCES["deep"] = "[" * 100000  # past the JSON decoder's recursion limit


@pytest.mark.parametrize(
    "argv",
    [
        ("plot", "{inst}", "--cover", "{broken}", "--out", "{svg}"),
        ("plot", "{inst}", "--cover", "{as_list}", "--out", "{svg}"),
        ("verify", "{inst}", "{as_list}"),
        ("verify", "{inst}", "{bool_id}"),
        ("solve", "{inst}", "--epsilon", "abc"),
        ("gen", "--kind", "squares", "--points", "-1"),
        *[("solve", "{%s}" % name) for name in BAD_INSTANCES],
        ("solve", "{inst}", "--epsilon", "1e999999999"),
        ("exact", "{inst}", "--max-ranges", "-1"),
        ("solve", "{binary}"),
        ("verify", "{inst}", "{int_cover}"),
        ("gen", "--kind", "squares", "--seed", " 1_0 "),
        ("gen", "--kind", "squares", "--points", "\u0663"),
        ("gen", "--kind", "squares", "--points", "1" * 300),
    ],
    ids=["plot-broken-json", "plot-list-cover", "verify-list-cover", "verify-bool-id",
         "bad-epsilon", "negative-count", *BAD_INSTANCES, "exponent-epsilon",
         "negative-max-ranges", "not-utf8", "json-int-cover", "padded-seed",
         "arabic-indic-count", "long-count"],
)
def test_bad_input_is_one_line_error(tmp_path, capsys, argv):
    inst = tmp_path / "in.json"
    _run(capsys, "gen", "--kind", "halfplanes", "--points", "3", "--ranges", "4",
         "--seed", "9", "--out", str(inst))
    files = {"inst": inst, "broken": tmp_path / "broken.json",
             "as_list": tmp_path / "list.json", "bool_id": tmp_path / "bool.json",
             "svg": tmp_path / "out.svg"}
    files["broken"].write_text('{"cover": [0,')
    files["as_list"].write_text("[0, 1]")
    files["bool_id"].write_text('{"cover": [true]}')
    files["binary"] = tmp_path / "binary.json"
    files["binary"].write_bytes(b"\x80{}")  # not UTF-8
    files["int_cover"] = tmp_path / "int_cover.json"
    files["int_cover"].write_text('{"cover": [%s]}' % ("1" * 5000))
    for name, text in BAD_INSTANCES.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(text)
    start = time.perf_counter()
    code, out, err = _run(capsys, *[a.format(**files) for a in argv])
    assert time.perf_counter() - start < 5  # refused at once, not parsed at length
    assert code == 1
    assert out == "" and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_plot_at_the_digit_cap(tmp_path, capsys):
    # svgplot draws in floats; a coordinate of MAX_DIGITS digits still fits
    inst = tmp_path / "in.json"
    inst.write_text(
        '{"kind":"squares","S":[["1","1"]],"Sprime":[],"ranges":[["%s","1"]]}' % ("9" * 256)
    )
    out_svg = tmp_path / "out.svg"
    code, _out, err = _run(capsys, "plot", str(inst), "--out", str(out_svg))
    assert code == 0 and err == ""
    assert ET.parse(out_svg).getroot().tag.endswith("svg")


def test_module_entry_point(tmp_path):
    # python -m membercover.cli runs the same CLI as the console script
    src = str(Path(membercover.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["gen", "--kind", "squares", "--points", "3", "--ranges", "4", "--seed", "5"]
    out = subprocess.run(
        [sys.executable, "-m", "membercover.cli", *argv],
        env=env, capture_output=True, text=True, check=True, cwd=tmp_path,
    )
    assert out.stdout == serialize_instance(generate("squares", 3, 4, seed=5))


def test_bench_cli_files(tmp_path, capsys):
    out_csv = tmp_path / "bench.csv"
    out_json = tmp_path / "bench.json"
    code, _o, _e = _run(
        capsys, "bench", "--kind", "halfplanes", "--seeds", "3",
        "--max-ranges", "5", "--points", "4",
        "--out-csv", str(out_csv), "--out-json", str(out_json),
    )
    assert code == 0
    summary = json.loads(out_json.read_text())
    assert summary["schema"] == 1
    with open(out_csv) as fh:
        parsed = list(csv.DictReader(fh))
    assert parsed and list(parsed[0].keys()) == CSV_COLUMNS


def test_drifted_report_raises_under_optimize():
    src = str(Path(membercover.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "from membercover import Point, UnitSquare\n"
        "from membercover.cli import RunReport\n"
        "from membercover.instances import InstanceDoc\n"
        "assert False, 'asserts are on'\n"
        "# two stacked squares have ply 2; the report claims 1\n"
        "doc = InstanceDoc('squares', (Point.of(0, 0),), (),\n"
        "                  (UnitSquare(0, Point.of(1, 1)), UnitSquare(1, Point.of(1, 1))))\n"
        "report = RunReport('squares-ply', (0, 1), 1, 2, None, 0.0)\n"
        "try:\n"
        "    report.to_json(doc)\n"
        "except RuntimeError as err:\n"
        "    print(err)\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "cached objective drifted from the cover"


def test_ply_report_reads_the_solvers_ply(monkeypatch):
    # solve_mpgsc already measures the ply of its cover; run_report keeps
    # that value, and only to_json's drift check recomputes it
    points, sprime, squares = square_instance(4, extent=2)  # ply 2
    doc = InstanceDoc("squares", tuple(points), tuple(sprime), tuple(squares))
    calls = []
    raw = cli.ply_of
    monkeypatch.setattr(cli, "ply_of", lambda rs: calls.append(rs) or raw(rs))
    report = cli.run_report(doc, "squares-ply")
    assert calls == []
    assert report.value == raw([q for q in squares if q.id in set(report.cover)]).value == 2
    report.to_json(doc)
    assert len(calls) == 1
