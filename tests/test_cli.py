import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from relattn.cli import main
from relattn.corpus import bench_layout, corpus_layout, make_spec
from relattn.layout import to_json


@pytest.fixture()
def showcase_file(tmp_path):
    path = tmp_path / "showcase.json"
    path.write_text(to_json(corpus_layout("showcase")))
    return path


def test_masks_writes_all_artifacts(tmp_path, showcase_file, capsys):
    out = tmp_path / "out"
    rc = main(["masks", str(showcase_file), "-o", str(out)])
    assert rc == 0
    for name in ("csam.csv", "csam.pgm", "mcam.csv", "mcam.pgm", "positions.csv", "blocks.csv"):
        assert (out / name).exists(), name
    stdout = capsys.readouterr().out
    assert "tokens=128" in stdout
    assert "wrote" in stdout


def test_masks_skips_mcam_without_text(tmp_path, capsys):
    spec_path = tmp_path / "notext.json"
    spec_path.write_text(to_json(make_spec(1, 2, 2, objs=1, no_spans=True)))
    out = tmp_path / "out"
    assert main(["masks", str(spec_path), "-o", str(out)]) == 0
    assert not (out / "mcam.csv").exists()
    assert "skipped" in capsys.readouterr().out


def test_masks_byte_identical_across_runs(tmp_path, showcase_file):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["masks", str(showcase_file), "-o", str(out1)]) == 0
    assert main(["masks", str(showcase_file), "-o", str(out2)]) == 0
    for f1 in sorted(out1.iterdir()):
        assert f1.read_bytes() == (out2 / f1.name).read_bytes(), f1.name


def test_masks_rejects_bad_spec(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"T": 1, "H": 2, "W": 2, "text_len": 4, "entities": [{"kind": "face"}]}')
    with pytest.raises(SystemExit) as exc:
        main(["masks", str(bad), "-o", str(tmp_path / "out")])
    assert "group" in str(exc.value)


def test_masks_missing_file():
    with pytest.raises(SystemExit, match="cannot read"):
        main(["masks", "/nonexistent/spec.json", "-o", "/tmp/x"])


def test_masks_output_that_is_a_file_is_refused_in_one_line(tmp_path, showcase_file, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    with pytest.raises(SystemExit) as exc:
        main(["masks", str(showcase_file), "-o", str(taken)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"{exc.value}\n"
    assert str(exc.value).startswith(f"relctl: cannot write to {taken}")


def test_json_report_without_a_directory_is_refused_before_the_checks(
    tmp_path, showcase_file, capsys, monkeypatch
):
    monkeypatch.setattr("relattn.cli.run_checks", lambda *a, **k: pytest.fail("checks ran"))
    target = tmp_path / "missing" / "x.json"
    with pytest.raises(SystemExit) as exc:
        main(["check", str(showcase_file), "--json", str(target)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"{exc.value}\n"
    assert str(exc.value).startswith(f"relctl: cannot write {target}")
    assert not target.parent.exists()


def test_json_report_that_is_a_directory_is_refused_before_the_forward(
    tmp_path, showcase_file, capsys, monkeypatch
):
    monkeypatch.setattr("relattn.cli.block_forward", lambda *a, **k: pytest.fail("forward ran"))
    with pytest.raises(SystemExit) as exc:
        main(["forward", str(showcase_file), "--json", str(tmp_path)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"{exc.value}\n"
    assert str(exc.value) == f"relctl: cannot write {tmp_path}: it is a directory"


def test_check_single_spec(tmp_path, showcase_file, capsys):
    rc = main(["check", str(showcase_file)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "all passed" in out
    assert "PASS csam-structure[showcase]" in out


def test_check_corpus_passes(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    rc = main(["check", "--corpus", "--json", str(report_path)])
    assert rc == 0
    doc = json.loads(report_path.read_text())
    assert doc["ok"] is True
    assert doc["command"] == "check"
    assert len(doc["checks"]) > 300
    assert "wall_time_s" in doc


def test_check_rejects_corrupted_spec(tmp_path):
    doc = {
        "T": 1,
        "H": 2,
        "W": 2,
        "text_len": 6,
        "entities": [
            {"kind": "background", "span": [0, 3]},
            {"kind": "object", "span": [2, 5]},
        ],
    }
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(["check", str(bad)])
    assert "overlaps" in str(exc.value)


def test_check_requires_exactly_one_source(capsys):
    assert main(["check"]) == 2
    assert "exactly one" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, why",
    [
        (["forward", "--r", "nan"], "r must be finite"),
        (["forward", "--r", "-1"], "r must be finite"),
        (["forward", "--d", "0"], "d must be an integer >= 1"),
        (["forward", "--seed", "-1"], "--seed must be >= 0"),
        (["bench", "--head-dim", "0"], "--head-dim must be >= 1"),
        (["bench", "--reps", "-3"], "--reps must be >= 0"),
        (["forward", "--r", "1e38"], "non-finite output"),
    ],
)
def test_bad_arguments_are_refused_in_one_line(showcase_file, capsys, argv, why):
    assert main([argv[0], str(showcase_file), *argv[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"relctl {argv[0]}: ") and why in err


def test_a_file_that_is_not_utf8_is_refused_in_one_line(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"T": 1, "H": 2, "W": 2, "text_len": 0, "entities": [], "note": "\xe9"}')
    with pytest.raises(SystemExit) as exc:
        main(["check", str(bad)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"{exc.value}\n"
    assert str(exc.value).startswith(f"relctl: cannot read {bad}")
    proc = subprocess.run(
        [sys.executable, "-m", "relattn", "check", str(bad)], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert proc.stderr == f"{exc.value}\n"


def test_forward_deterministic(showcase_file, capsys):
    assert main(["forward", str(showcase_file), "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["forward", str(showcase_file), "--seed", "7"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "loss=" in first


def test_forward_r_flag_changes_loss(showcase_file, capsys):
    assert main(["forward", str(showcase_file), "--seed", "3", "--r", "0"]) == 0
    loss_r0 = re.search(r"loss=(\S+)", capsys.readouterr().out).group(1)
    assert main(["forward", str(showcase_file), "--seed", "3", "--r", "0.5"]) == 0
    loss_r5 = re.search(r"loss=(\S+)", capsys.readouterr().out).group(1)
    assert abs(float(loss_r0) - float(loss_r5)) > 1e-6


def test_forward_json_report_is_timing_free(tmp_path, showcase_file):
    report_path = tmp_path / "fwd.json"
    assert main(["forward", str(showcase_file), "--seed", "1", "--json", str(report_path)]) == 0
    doc = json.loads(report_path.read_text())
    assert "wall_time_s" not in doc
    assert doc["ok"] is True
    assert "loss" in doc["values"]
    # byte-stable across runs
    report2 = tmp_path / "fwd2.json"
    assert main(["forward", str(showcase_file), "--seed", "1", "--json", str(report2)]) == 0
    assert report_path.read_bytes() == report2.read_bytes()


def test_forward_matches_readme_recorded_loss(tmp_path, capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    match = re.search(r"loss=(\d\.\d+e[+-]\d+)", readme.read_text())
    assert match, "README must record the reference forward loss"
    spec_path = tmp_path / "showcase.json"
    spec_path.write_text(to_json(corpus_layout("showcase")))
    assert main(["forward", str(spec_path), "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert f"loss={match.group(1)}" in out


def test_bench_zero_reps(tmp_path, showcase_file, capsys):
    rc = main(["bench", str(showcase_file), "--reps", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "timing: skipped" in out
    assert "equivalence" in out


def test_bench_blockwise_wins_on_large_sparse_layout(tmp_path, capsys):
    spec_path = tmp_path / "bench.json"
    spec_path.write_text(to_json(bench_layout()))
    report_path = tmp_path / "bench-report.json"
    rc = main(
        ["bench", str(spec_path), "--head-dim", "64", "--reps", "8", "--json", str(report_path)]
    )
    assert rc == 0
    doc = json.loads(report_path.read_text())
    assert doc["values"]["speedup_ratio"] <= 1.0
    assert "wall_time_s" in doc


def test_module_entry_point(tmp_path):
    spec_path = tmp_path / "s.json"
    spec_path.write_text(to_json(make_spec(1, 2, 2, bg=1)))
    proc = subprocess.run(
        [sys.executable, "-m", "relattn", "masks", str(spec_path), "-o", str(tmp_path / "o")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "o" / "csam.csv").exists()
    assert "wall" in proc.stderr  # timing stays off stdout
