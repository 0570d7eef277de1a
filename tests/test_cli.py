import collections
import contextlib
import copy
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict, replace

import pytest

import friedrichs
from friedrichs import checks
from friedrichs.cli import _config_from_args, build_parser, main
from friedrichs.sweep import (emit_report, load_config_file, load_manifest,
                              resolve_config, run_sweep)

QUICK = "100,316.2,1000,3163"
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _readme_sample(first_line):
    """The README code block that opens with first_line."""
    text = open(README, encoding="utf-8").read()
    [block] = [b for b in re.findall(r"^```\n(.*?)^```$", text, re.S | re.M)
               if b.startswith(first_line)]
    return block


def test_sweep_subcommand_writes_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["sweep", "--tau", QUICK, "--out", str(out),
                 "--format", "csv,json,svg", "--check"])
    assert code == 0
    assert sorted(os.listdir(out)) == ["manifest.json", "sweep.csv", "sweep.svg"]
    text = capsys.readouterr().out
    assert "check probe_slope: PASS" in text


def test_sweep_check_failure_exits_four(tmp_path, capsys):
    # four checks cannot bring the change down to 1e-7
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[model]\nnodes_per_panel = 4\n"
                   "[integrate]\ncalibrate_rel_tol = 1e-7\n")
    code = main(["sweep", "--config", str(cfg), "--tau", QUICK, "--format", "csv",
                 "--out", str(tmp_path / "o"), "--check"])
    assert code == 4
    assert "check step_calibration: FAIL" in capsys.readouterr().out


def test_first_order_dominant_alone_fails_tau_5(tmp_path, capsys):
    # at tau = 5 the squared in-window amplitude is not subdominant; the
    # failing run's manifest still re-emits its CSV
    out_dir, again = tmp_path / "sweep", tmp_path / "report"
    assert main(["sweep", "--tau", "5", "--check", "--out", str(out_dir)]) == 4
    out = capsys.readouterr().out
    assert _readme_sample("no slope checks") in out
    checks = [line for line in out.splitlines() if line.startswith("check ")]
    assert [line for line in checks if ": FAIL " in line] == [
        "check first_order_dominant: FAIL 0.6551375 (max 0.5)"]
    assert len(checks) == 3
    assert main(["report", "--manifest", str(out_dir / "manifest.json"),
                 "--out", str(again), "--format", "csv"]) == 0
    assert (again / "sweep.csv").read_bytes() == (out_dir / "sweep.csv").read_bytes()


def test_all_errored_sweep_reports_every_error(tmp_path, capsys):
    # no record meets a drift tolerance of 1e-30: every tau's error is
    # printed, --check exits 4, the plot is the empty frame, and report
    # re-emits it. Calibrated, no end tau is left to compare, so
    # step_calibration has no value and fails
    for calibrate in (False, True):
        cfg, out, again = (tmp_path / f"{name}_{calibrate}"
                           for name in ("c.cfg", "o", "again"))
        cfg.write_text(f"[integrate]\ndrift_tolerance = 1e-30\ncalibrate = {calibrate}\n"
                       "[output]\nformats = csv, json, svg\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--check"]) == 4
        captured = capsys.readouterr()
        assert len(re.findall(r"^tau=\S+: IntegrationFailure: unitarity drift ",
                              captured.err, re.M)) == 5
        assert ("check step_calibration: FAIL None (tol 0.005)"
                in captured.out) == calibrate
        assert (out / "sweep.svg").stat().st_size > 0
        assert main(["report", "--manifest", str(out / "manifest.json"),
                     "--out", str(again), "--format", "svg"]) == 0
        assert (again / "sweep.svg").read_bytes() == (out / "sweep.svg").read_bytes()


def test_path_directory_round_trips(tmp_path):
    # a path object is a directory both as a config override and as
    # emit_report's out_dir; the config keeps it as a str, which the
    # manifest's JSON can encode, and report re-emits the same CSV
    cfg = resolve_config({}, tau_values=(1000.0,), directory=tmp_path / "run",
                         formats=("csv", "json"))
    assert cfg.directory == str(tmp_path / "run")
    result = run_sweep(cfg)
    paths = emit_report(result)
    assert load_manifest(paths["json"]).config == cfg
    again = emit_report(result, formats=("csv",), out_dir=tmp_path / "again")
    assert main(["report", "--manifest", paths["json"], "--out",
                 str(tmp_path / "report"), "--format", "csv"]) == 0
    for csv in (again["csv"], tmp_path / "report" / "sweep.csv"):
        assert open(csv, "rb").read() == open(paths["csv"], "rb").read()


def test_one_tau_sweep_check_passes(tmp_path, capsys):
    # one tau gives no fit, so it has no slope checks, and says so
    assert main(["sweep", "--tau", "1000", "--check", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "no slope checks: a fit needs" in out and "_slope:" not in out
    assert "check step_calibration: PASS" in out


def test_flags_and_config_file_resolve_alike(tmp_path, capsys):
    # a flag's text is read by the config grammar, and overrides the file
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[model]\nbeta = 1.25\ngap_shift = 0.5\n[output]\ndirectory = d\n"
                   "formats = csv svg\n[sweep]\ntau_values = 100 1e3\n")

    def resolve(*flags):
        return _config_from_args(build_parser().parse_args(["sweep", *flags]))

    from_file = resolve("--config", str(cfg))
    assert resolve("--tau", "100 1e3", "--beta", "1.25", "--gap", "0.5",
                   "--out", "d", "--format", "csv svg") == from_file
    assert resolve("--config", str(cfg), "--beta", "1.5") == replace(from_file, beta=1.5)
    assert main(["sweep", "--beta", "abc"]) == 2
    assert "bad value for [model] beta: 'abc'" in capsys.readouterr().err


#: every declared key at a valid value other than its default
EVERY_KEY = """\
[model]
beta = 1.25
theta_total = 0.7
gap_shift = 0.1
k_max = 2.0
k_min = 1e-5
n_panels = 18
nodes_per_panel = 4
cutoff_fraction = 0.6
[sweep]
tau_values = 100, 1000
[integrate]
max_step = 0.00390625
calibrate = false
calibrate_rel_tol = 0.01
drift_tolerance = 1e-8
[output]
directory = every
formats = csv, json, svg
jobs = 2
"""


def test_every_key_round_trips_through_the_manifest(tmp_path, monkeypatch):
    # a sweep with no setting at its default: the manifest holds each one,
    # its hash is pinned, and report re-emits the same CSV bytes
    monkeypatch.chdir(tmp_path)
    (tmp_path / "every.cfg").write_text(EVERY_KEY)
    assert main(["sweep", "--config", "every.cfg"]) == 0
    manifest = tmp_path / "every" / "manifest.json"
    stored, default = load_manifest(str(manifest)), asdict(resolve_config({}))
    assert stored.config == resolve_config(load_config_file("every.cfg"))
    assert [key for key, value in asdict(stored.config).items()
            if value == default[key]] == []
    assert stored.config_hash == (
        "d67f92ac532dd8af2c9438e5df4c47585eac002d386252f42f9966ce656a36d1")
    assert main(["report", "--manifest", str(manifest), "--out", "again",
                 "--format", "csv"]) == 0
    assert (tmp_path / "again" / "sweep.csv").read_bytes() == \
        (tmp_path / "every" / "sweep.csv").read_bytes()


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
    cfg.write_text("[integrate]\nmax_step = 1e-300\n")     # past the step budget
    assert main(["sweep", "--config", str(cfg)]) == 2
    cfg.write_text("[model]\nk_max = 1e308\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert main(["sweep", "--tau", "100,nan"]) == 2
    assert main(["sweep", "--tau", "100,100,1000"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--tau", " "], "--tau is empty"),
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
    """The exit code of one `friedrichs verify`, its output per criterion,
    and how often it called run_sweep and wave_operator_series."""
    calls, out = collections.Counter(), io.StringIO()

    def counted(made):
        def call(*args, **kwargs):
            calls[made.__name__] += 1
            return made(*args, **kwargs)
        return call

    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        for name in ("run_sweep", "wave_operator_series"):
            mp.setattr(checks, name, counted(getattr(checks, name)))
        code = main(["verify"])
    blocks = out.getvalue().split("\nverify:")[0].split("[criterion")[1:]
    return code, {int(b[:b.index("]")]): "[criterion" + b.rstrip() for b in blocks}, \
        calls


def test_verify_makes_each_input_once(verified):
    # six sweep configs and criterion 11's fresh rerun; one series for 7 and 8
    assert verified[2] == {"run_sweep": 7, "wave_operator_series": 1}


def test_readme_verify_sample_is_real_output(verified):
    assert _readme_sample("[criterion  2]") == verified[1][2] + "\n"


def test_defect_check_passes(verified):
    code, blocks, _ = verified
    assert code == 0
    assert blocks[3].startswith("[criterion  3] PASS")
    assert "defect_slope: PASS" in blocks[3]
    assert blocks[3].count(" exact norms in ") == 4


def test_fourier_check_passes(verified):
    assert verified[1][6].startswith("[criterion  6] PASS")


def test_volterra_check_passes(verified):
    assert verified[1][7].startswith("[criterion  7] PASS")
    assert verified[1][8].startswith("[criterion  8] PASS")


def test_tilde_check_passes(verified):
    assert verified[1][10].startswith("[criterion 10] PASS")
    assert "sign=-1" in verified[1][10]


def test_fourier_check_with_no_usable_p_exits_four(monkeypatch, capsys):
    # |cos(phase)| = 2.4e-5 at p = 127.121: no ratio is checked
    monkeypatch.setattr(checks, "REGISTRY",
                        {6: lambda inputs: checks.bump_asymptotics((127.121,))})
    assert main(["verify"]) == 4
    out = capsys.readouterr().out
    assert "[criterion  6] FAIL" in out and "near-zero, skipped" in out


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
    # --format lists, comma or space separated as in the config file, give
    # the same files from sweep and from report
    for name, sep in (("comma", ","), ("space", " ")):
        out, again = tmp_path / name, tmp_path / f"report_{name}"
        assert main(["sweep", "--tau", QUICK, "--out", str(out),
                     "--format", sep.join(("csv", "json", "svg"))]) == 0
        assert main(["report", "--manifest", str(out / "manifest.json"),
                     "--out", str(again), "--format", f"csv{sep}svg"]) == 0
        assert sorted(os.listdir(again)) == ["sweep.csv", "sweep.svg"]
    for name in ("sweep.csv", "sweep.svg"):
        assert len({p.read_bytes() for p in tmp_path.glob(f"*/{name}")}) == 1


def test_report_unknown_second_format_writes_nothing(tmp_path, capsys,
                                                     manifest_payload):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest_payload))
    out = tmp_path / "report"
    assert main(["report", "--manifest", str(path), "--out", str(out),
                 "--format", "csv,pdf"]) == 2
    assert "formats must be a nonempty list from csv, json, svg, got ('csv', 'pdf')" \
        in capsys.readouterr().err
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
    (lambda p: p["config"].update(s_probe=1.5, window_samples=256),
     "config: unknown keys s_probe, window_samples"),
    (_drop_n_steps, "record 1: missing keys n_steps")],
    ids=["unknown", "retired", "missing"])
def test_report_rejects_manifest_keys(tmp_path, capsys, manifest_payload, spoil,
                                      message):
    payload = copy.deepcopy(manifest_payload)
    spoil(payload)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(payload))
    assert main(["report", "--manifest", str(path), "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
