import contextlib
import copy
import io
import json
import os
import subprocess
import sys

import pytest

import friedrichs
from friedrichs import checks
from friedrichs.cli import main

QUICK = "100,316.2,1000,3163"


def test_sweep_subcommand_writes_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["sweep", "--tau", QUICK, "--out", str(out),
                 "--format", "csv,json,svg", "--check"])
    assert code == 0
    assert sorted(os.listdir(out)) == ["manifest.json", "sweep.csv", "sweep.svg"]
    text = capsys.readouterr().out
    assert "check probe_slope: PASS" in text


def test_sweep_check_failure_exits_four(tmp_path, capsys):
    # three taus leave no fit, so the slope checks cannot pass
    code = main(["sweep", "--tau", "100,316.2,1000", "--format", "csv",
                 "--out", str(tmp_path / "o"), "--check"])
    assert code == 4
    assert "check probe_slope: FAIL" in capsys.readouterr().out


def test_check_section_exits_two(tmp_path, capsys):
    # the check expectations follow beta and gap_shift; no key sets them
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[check]\nprobe_slope = -9.0\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "unknown config section [check]" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_error_exits_two(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[model]\nno_such_key = 1\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert main(["sweep", "--tau", "not-a-number"]) == 2
    cfg.write_text("[model]\nk_max = -1\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    cfg.write_text("[integrate]\nmax_step = nan\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    cfg.write_text("[model]\nk_max = 1e308\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert main(["sweep", "--tau", "100,nan"]) == 2
    assert main(["sweep", "--tau", "100,100,1000"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--tau", " "], "--tau lists no values"),
    (["sweep", "--tau", QUICK, "--format="], "--format is empty"),
    (["sweep", "--tau", QUICK, "--out="], "--out is empty"),
    (["sweep", "--config="], "--config is empty"),
    (["report", "--manifest", "m.json", "--format="], "--format is empty"),
    (["report", "--manifest", "m.json", "--out="], "--out is empty"),
], ids=["sweep-tau", "sweep-format", "sweep-out", "sweep-config",
        "report-format", "report-out"])
def test_empty_flag_refused_by_name(argv, message, tmp_path, monkeypatch, capsys,
                                    manifest_payload):
    # an empty value is an error, not the flag left out: nothing runs and
    # nothing is written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.json").write_text(json.dumps(manifest_payload))
    assert main(argv) == 2
    out = capsys.readouterr()
    assert message in out.err
    assert out.out == ""
    assert sorted(os.listdir(tmp_path)) == ["m.json"]


def test_jobs_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--jobs", "2"])
    assert exc.value.code == 2


@pytest.fixture(scope="module")
def verified():
    """The exit code of one `friedrichs verify` and its output per criterion."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify"])
    blocks = {}
    for line in out.getvalue().splitlines():
        if line.startswith("[criterion"):
            criterion = int(line[len("[criterion"):line.index("]")])
            blocks[criterion] = []
        if line.startswith("verify:"):
            break
        blocks[criterion].append(line)
    return code, {n: "\n".join(lines) for n, lines in blocks.items()}


def test_defect_check_passes(verified):
    code, blocks = verified
    assert code == 0
    assert blocks[3].startswith("[criterion  3] PASS")
    assert "defect slope" in blocks[3]
    assert blocks[3].count(" exact norms in ") == 4


def test_fourier_check_passes(verified):
    assert verified[1][6].startswith("[criterion  6] PASS")


def test_fourier_check_with_no_usable_p_exits_four(monkeypatch, capsys):
    # |cos(phase)| = 2.4e-5 at p = 127.121: no ratio is checked
    monkeypatch.setattr(checks, "REGISTRY",
                        {6: lambda: checks.bump_asymptotics((127.121,))})
    assert main(["verify"]) == 4
    out = capsys.readouterr().out
    assert "[criterion  6] FAIL" in out and "near-zero, skipped" in out


def test_volterra_check_passes(verified):
    assert verified[1][7].startswith("[criterion  7] PASS")
    assert verified[1][8].startswith("[criterion  8] PASS")


def test_tilde_check_passes(verified):
    assert verified[1][10].startswith("[criterion 10] PASS")
    assert "sign=-1" in verified[1][10]


def _modules_after_import(module, names) -> str:
    """Which of names a fresh interpreter holds after import module."""
    src = os.path.dirname(os.path.dirname(friedrichs.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (f"import sys, {module}; print(sorted(m for m in sys.modules "
            f"if m in {tuple(names)!r}))")
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_import_loads_no_process_pool():
    assert _modules_after_import("friedrichs.cli", (
        "multiprocessing", "concurrent.futures.process")) == "[]\n"


def test_import_loads_no_scipy():
    assert _modules_after_import("friedrichs.cli", ("scipy",)) == "[]\n"


def test_package_and_sweep_import_no_checks():
    # the registry imports sweep, not the other way round
    assert _modules_after_import("friedrichs.sweep", ("friedrichs.checks",)) == "[]\n"


def test_report_reemits(tmp_path):
    out = tmp_path / "first"
    assert main(["sweep", "--tau", QUICK, "--out", str(out),
                 "--format", "csv,json"]) == 0
    again = tmp_path / "second"
    assert main(["report", "--manifest", str(out / "manifest.json"),
                 "--out", str(again), "--format", "csv"]) == 0
    assert (out / "sweep.csv").read_bytes() == (again / "sweep.csv").read_bytes()


def test_report_unknown_second_format_writes_nothing(tmp_path, capsys,
                                                     manifest_payload):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest_payload))
    out = tmp_path / "report"
    assert main(["report", "--manifest", str(path), "--out", str(out),
                 "--format", "csv,pdf"]) == 2
    assert "unknown output format 'pdf'" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def manifest_payload(tmp_path_factory):
    out = tmp_path_factory.mktemp("manifest")
    assert main(["sweep", "--tau", QUICK, "--out", str(out), "--format", "json"]) == 0
    return json.loads((out / "manifest.json").read_text())


def _drop_n_steps(payload):
    del payload["records"][1]["n_steps"]


@pytest.mark.parametrize("spoil, message", [
    (lambda p: p["config"].update(scheme="auto"), "config: unknown keys scheme"),
    (_drop_n_steps, "record 1: missing keys n_steps")], ids=["unknown", "missing"])
def test_report_rejects_manifest_keys(tmp_path, capsys, manifest_payload, spoil,
                                      message):
    payload = copy.deepcopy(manifest_payload)
    spoil(payload)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(payload))
    assert main(["report", "--manifest", str(path), "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
