import copy
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import friedrichs
from friedrichs import checks, contour
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
    assert main(["fourier-check", "--p", "abc"]) == 2
    assert main(["fourier-check", "--p", ","]) == 2
    assert main(["fourier-check", "--p", "100,nan"]) == 2
    for tau in ("0", "-5", "nan"):
        assert main(["volterra-check", "--single-tau", tau]) == 2


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--tau="], "--tau lists no values"),
    (["sweep", "--tau", " "], "--tau lists no values"),
    (["sweep", "--tau", QUICK, "--format="], "--format is empty"),
    (["sweep", "--tau", QUICK, "--out="], "--out is empty"),
    (["sweep", "--config="], "--config is empty"),
    (["report", "--manifest", "m.json", "--format="], "--format is empty"),
    (["report", "--manifest", "m.json", "--out="], "--out is empty"),
], ids=["simulate-tau", "sweep-tau", "sweep-format", "sweep-out", "sweep-config",
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


@pytest.mark.parametrize("p", ["-5", "0", "100,0"])
def test_fourier_check_refuses_nonpositive_p_before_output(p, capsys):
    assert main(["fourier-check", "--p", p]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "--p" in out.err


def test_jobs_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--jobs", "2"])
    assert exc.value.code == 2


def _modules_after_cli_import(names) -> str:
    """Which of names a fresh interpreter holds after import friedrichs.cli."""
    src = os.path.dirname(os.path.dirname(friedrichs.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (f"import sys, friedrichs.cli; print(sorted(m for m in sys.modules "
            f"if m in {tuple(names)!r}))")
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_import_loads_no_process_pool():
    assert _modules_after_cli_import(
        ("multiprocessing", "concurrent.futures.process")) == "[]\n"


def test_import_loads_no_scipy():
    assert _modules_after_cli_import(("scipy",)) == "[]\n"


def test_simulate_prints_leak_samples(capsys):
    code = main(["simulate", "--tau", "100", "--single-tau", "100"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# tau=100.0 steps=512 drift=")
    assert lines[1] == "# s leak"
    assert lines[-1].startswith("# sup leak in window: ")
    rows = [line.split() for line in lines[2:-1]]
    # eleven window times snapped to the 512-step grid, then the probe
    assert [s for s, _ in rows] == [
        "0.000000", "0.099609", "0.199219", "0.300781", "0.400391", "0.500000",
        "0.599609", "0.699219", "0.800781", "0.900391", "1.000000", "1.500000"]
    assert rows[0][1] == "0.000000000000e+00"
    assert rows[-1][1] == rows[-2][1]


def test_fourier_check_passes(capsys):
    assert main(["fourier-check", "--check"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_fourier_check_with_no_usable_p_exits_four(capsys):
    # |cos(phase)| = 2.4e-5 at p = 127.121: no ratio is checked
    assert main(["fourier-check", "--p", "127.121", "--check"]) == 4
    assert "near-zero, skipped" in capsys.readouterr().out


def _wrong_parity(series):
    def planted(*args, **kwargs):
        ser = series(*args, **kwargs)
        ser.terms[1][0, 0] = 1e-6 * np.linalg.norm(ser.terms[1])
        return ser
    return planted


def _flat_decay(defect):
    def planted(model, tau, *args):
        value, norms, batches = defect(model, tau, *args)
        return value * tau ** 0.5, norms, batches
    return planted


@pytest.mark.parametrize("command, module, name, plant, criterion", [
    ("defect-check", checks, "_settled_defect", _flat_decay,
     lambda model: checks.uniform_defect()),
    ("fourier-check", checks, "bump_transform",
     lambda bump: lambda p: bump(p) * (1.0 + 1e-5 * (p == 0.0)),
     lambda model: checks.bump_asymptotics((100.0, 200.0, 400.0))),
    ("volterra-check", checks, "wave_operator_series", _wrong_parity,
     lambda model: checks.series_parity(checks.volterra_series(model, 100.0))),
    ("tilde-check", contour, "_IBP_SIGN", lambda sign: -sign,
     lambda model: checks.contour_calculus(3))],
    ids=["defect-check", "fourier-check", "volterra-check", "tilde-check"])
def test_planted_error_fails_command_and_criterion(command, module, name, plant,
                                                   criterion, monkeypatch, capsys,
                                                   model_b15_small):
    # the command and its tier-1 criterion run the same check; criteria 7
    # and 8 read model_b15_small's grid
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    assert not criterion(model_b15_small).ok
    assert main([command, "--check"]) == 4
    assert f"{command}: FAIL" in capsys.readouterr().out


def test_defect_check_passes(capsys):
    assert main(["defect-check", "--check"]) == 0
    out = capsys.readouterr().out
    assert "defect-check: PASS" in out
    assert out.count(" exact norms in ") == 4


def test_volterra_check_passes(capsys):
    assert main(["volterra-check", "--check", "--single-tau", "100"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_tilde_check_passes(capsys):
    assert main(["tilde-check", "--check"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "sign=-1" in out


def test_tilde_check_seed_moves_only_the_eigenbasis_check(capsys):
    # --seed draws the 8x8 eigenbasis-rule problem; the identity checks run
    # ibp_suite's fixed profile seeds, so their lines must not change or
    # name a seed
    runs = []
    for seed in ("3", "11"):
        assert main(["tilde-check", "--seed", seed]) == 0
        lines = capsys.readouterr().out.splitlines()
        cut = next(i for i, line in enumerate(lines)
                   if line.startswith("identity checks"))
        runs.append((lines[:cut], lines[cut:]))
    assert runs[0][0] != runs[1][0]
    assert runs[0][1] == runs[1][1]
    assert not any("seed" in line for line in runs[0][1])
    with pytest.raises(SystemExit):
        main(["tilde-check", "--help"])
    assert "eigenbasis" in capsys.readouterr().out


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
