"""Command line entry points: exit codes, file outputs, config precedence."""

import csv
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from test_training import use_cpus

from sampreg import cli, optimizer, training, transform
from sampreg.sampler import save_betas
from sampreg.volume import Volume, load_volume, save_volume


GOLD_PARAMS = "1.5,-1.0,0.5,0.02,-0.015,0.01"

# enough iterations to converge on the 32^3 end-to-end cases without
# dragging out the contract tests that only care about file layout
FAST = ["--max-iters", "1", "--levels", "2"]
TUNED = ["--max-iters", "120", "--initial-radius", "2.0", "--min-radius", "0.1"]


@pytest.fixture(scope="session")
def cli_ws(tmp_path_factory):
    """Workspace with a phantom pair generated through the CLI itself."""
    ws = tmp_path_factory.mktemp("cli_ws")
    rc = cli.main([
        "phantom", "--size", "32", "--seed", "7",
        "--out", str(ws / "fixed.rvol"),
        "--make-moving", str(ws / "moving.rvol"),
        "--params", GOLD_PARAMS,
        "--gold", str(ws / "gold.json"),
        "--noise", "0.0",
    ])
    assert rc == 0
    return ws


@pytest.fixture(scope="session")
def manifest(cli_ws):
    """Two-pair manifest reusing the workspace pair.

    Entry 0 carries the transform inline, entry 1 points at the gold file,
    so both manifest branches get exercised.
    """
    gold = json.loads((cli_ws / "gold.json").read_text())["transform"]
    path = cli_ws / "manifest.json"
    path.write_text(json.dumps([
        {"fixed": "fixed.rvol", "moving": "moving.rvol", "gold": gold},
        {"fixed": "fixed.rvol", "moving": "moving.rvol", "gold": "gold.json"},
    ]))
    return path


def write_betas(path, values):
    save_betas(values, path)
    return str(path)


def capture_histogram_settings(monkeypatch):
    """Stub registration; returns the set of (num_bins, kernel_radius) seen."""
    seen = set()

    def stub(*args, cfg, **kwargs):
        seen.add((cfg.num_bins, cfg.kernel_radius))
        return SimpleNamespace(
            final_params=transform.RigidParams.identity((0.0, 0.0, 0.0)),
            elapsed_s=0.0,
        )

    use_cpus(monkeypatch, 1)
    monkeypatch.setattr(optimizer, "register", stub)
    return seen


# ---------------------------------------------------------------------------
# phantom
# ---------------------------------------------------------------------------


def test_phantom_writes_volume_and_sidecar(cli_ws):
    fixed = load_volume(cli_ws / "fixed.rvol")
    assert fixed.dims == (32, 32, 32)
    np.testing.assert_array_equal(fixed.spacing, [1, 1, 1])
    sidecar = json.loads((cli_ws / "fixed.rvol.provenance.json").read_text())
    assert sidecar["config"]["command"] == "phantom"
    assert sidecar["config"]["size"] == 32
    assert sidecar["config"]["seed"] == 7


def test_phantom_gold_file_echoes_params(cli_ws):
    doc = json.loads((cli_ws / "gold.json").read_text())
    gold = transform.RigidParams.from_dict(doc["transform"])
    np.testing.assert_allclose(gold.t, [1.5, -1.0, 0.5])
    np.testing.assert_allclose(gold.r, [0.02, -0.015, 0.01])
    fixed = load_volume(cli_ws / "fixed.rvol")
    np.testing.assert_allclose(gold.center, fixed.center_mm)
    assert doc["config"]["params"] == GOLD_PARAMS


def test_phantom_moving_differs_and_has_sidecar(cli_ws):
    fixed = load_volume(cli_ws / "fixed.rvol")
    moving = load_volume(cli_ws / "moving.rvol")
    assert moving.dims == fixed.dims
    assert not np.array_equal(moving.data, fixed.data)
    assert (cli_ws / "moving.rvol.provenance.json").exists()


def test_phantom_is_rerun_identical(cli_ws, tmp_path):
    out = tmp_path / "again.rvol"
    rc = cli.main(["phantom", "--size", "32", "--seed", "7", "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == (cli_ws / "fixed.rvol").read_bytes()


def test_phantom_takes_negative_params_after_an_equals_sign(tmp_path):
    params = "-1.5,1,0.5,-0.02,0.01,0.02"
    gold_path = tmp_path / "gold.json"
    rc = cli.main([
        "phantom", "--size", "32", "--out", str(tmp_path / "v.rvol"),
        "--make-moving", str(tmp_path / "m.rvol"), f"--params={params}",
        "--gold", str(gold_path),
    ])
    assert rc == 0
    doc = json.loads(gold_path.read_text())
    gold = transform.RigidParams.from_dict(doc["transform"])
    np.testing.assert_allclose(gold.t, [-1.5, 1.0, 0.5])
    np.testing.assert_allclose(gold.r, [-0.02, 0.01, 0.02])
    assert doc["config"]["params"] == params


def test_phantom_rejects_small_size(tmp_path, capsys):
    rc = cli.main(["phantom", "--size", "16", "--out", str(tmp_path / "v.rvol")])
    assert rc == 2
    assert "--size" in capsys.readouterr().err


def test_phantom_rejects_malformed_params(tmp_path, capsys):
    rc = cli.main([
        "phantom", "--size", "32", "--out", str(tmp_path / "v.rvol"),
        "--make-moving", str(tmp_path / "m.rvol"), "--params", "1,2,3",
    ])
    assert rc == 2
    assert "--params" in capsys.readouterr().err


def test_phantom_rejects_params_without_make_moving(tmp_path, capsys):
    rc = cli.main([
        "phantom", "--size", "32", "--out", str(tmp_path / "v.rvol"),
        "--params", GOLD_PARAMS,
    ])
    assert rc == 2
    assert "--make-moving" in capsys.readouterr().err


def test_phantom_rejects_oversized_translation(tmp_path, capsys):
    rc = cli.main([
        "phantom", "--size", "32", "--out", str(tmp_path / "v.rvol"),
        "--make-moving", str(tmp_path / "m.rvol"),
        "--params", "25,0,0,0,0,0",
    ])
    assert rc == 2
    assert "--params" in capsys.readouterr().err


@pytest.mark.parametrize("flags, named", [
    (["--params", GOLD_PARAMS], "--params/--gold"),
    (["--gold", "gold.json"], "--params/--gold"),
    (["--make-moving", "m.rvol"], "--make-moving"),
    (["--make-moving", "m.rvol", "--params", GOLD_PARAMS, "--gamma", "0"], "--gamma"),
    (["--gamma", "-1"], "--gamma"),
    (["--make-moving", "m.rvol", "--params", GOLD_PARAMS, "--noise", "-0.5"], "--noise"),
    (["--make-moving", "m.rvol", "--params", "25,0,0,0,0,0"], "--params"),
    (["--seed", "-3"], "--seed"),
    (["--make-moving", "m.rvol", "--params", "1,2,3,4,5,x"], "--params"),
    (["--make-moving", "m.rvol", "--params=nan,0,0,0,0,0"], "--params"),
    (["--make-moving", "m.rvol", "--params", GOLD_PARAMS, "--noise", "inf"], "--noise"),
])
def test_phantom_usage_error_names_its_flag_and_writes_nothing(
        tmp_path, capsys, monkeypatch, flags, named):
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["phantom", "--size", "32", "--out", "v.rvol"] + flags)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"sampreg phantom: {named}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["register", "train", "sweep", "mask"])
def test_negative_seed_is_usage_error_naming_the_flag(cli_ws, manifest, tmp_path, capsys,
                                                      command):
    out = tmp_path / "out"
    inputs = {
        "register": register_args(cli_ws, out, "--sampler", "urs"),
        "train": ["train", "--pairs", str(manifest), "--out", str(out)],
        "sweep": ["sweep", "--pairs", str(manifest), "--samplers", "urs", "--out", str(out)],
        "mask": ["mask", "--volume", str(cli_ws / "fixed.rvol"), "--sampler", "urs",
                 "--out", str(out)],
    }[command]
    rc = cli.main(inputs + ["--seed", "-3"])
    assert rc == 2
    assert f"sampreg {command}: --seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flags, named", [
    ("register", ["--config", "nope.json"], "--config"),
    ("register", ["--config", "foo.json"], "--sampler"),
    ("register", ["--sampler", "urs", "--levels", "0"], "--levels"),
    ("register", ["--sampler", "mixed", "--betas", "nope.json"], "--betas: cannot read"),
    ("register", ["--sampler", "mixed", "--betas", "bad.json"], "--betas: malformed file"),
    ("train", ["--particles", "1"], "--particles"),
    ("sweep", ["--samplers", ","], "--samplers"),
    ("sweep", ["--samplers", "urs", "--rates", "x"], "--rates"),
    ("sweep", ["--samplers", "urs", "--trials", "0"], "--trials"),
    ("mask", ["--sampler", "mixed"], "--betas"),
    ("mask", ["--sampler", "urs", "--level", "0"], "--level"),
    ("mask", ["--sampler", "gms", "--level", "0"], "--level"),
])
def test_usage_error_names_its_flag_and_writes_nothing(cli_ws, manifest, tmp_path, capsys,
                                                       monkeypatch, command, flags, named):
    monkeypatch.chdir(tmp_path)
    Path("foo.json").write_text(json.dumps({"sampler": "foo"}))
    Path("bad.json").write_text(json.dumps({"levels": [{"r": 1}]}))
    inputs = {
        "register": ["register", "--fixed", str(cli_ws / "fixed.rvol"),
                     "--moving", str(cli_ws / "moving.rvol")],
        "train": ["train", "--pairs", str(manifest)],
        "sweep": ["sweep", "--pairs", str(manifest)],
        "mask": ["mask", "--volume", str(cli_ws / "fixed.rvol")],
    }[command]
    rc = cli.main(inputs + flags + ["--out", "out"])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"sampreg {command}: {named}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "foo.json"]


@pytest.mark.parametrize("command", ["register", "sweep", "mask"])
@pytest.mark.parametrize("levels", [
    [{"r": 1, "beta": 0.2}, {"r": 1, "beta": 0.9}],
    [{"r": 1.7, "beta": 0.2}],
    [{"r": 1, "beta": True}],
])
def test_malformed_betas_file_is_usage_error(cli_ws, manifest, tmp_path, capsys,
                                             command, levels):
    betas = tmp_path / "betas.json"
    betas.write_text(json.dumps({"levels": levels}))
    out = tmp_path / "out"
    inputs = {
        "register": register_args(cli_ws, out, "--sampler", "mixed", "--levels", "1"),
        "sweep": ["sweep", "--pairs", str(manifest), "--samplers", "mixed", "--levels", "1",
                  "--out", str(out)],
        "mask": ["mask", "--volume", str(cli_ws / "fixed.rvol"), "--sampler", "mixed",
                 "--out", str(out)],
    }[command]
    rc = cli.main(inputs + ["--betas", str(betas)])
    assert rc == 2
    assert f"sampreg {command}: --betas: malformed file" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# register
# ---------------------------------------------------------------------------


def register_args(cli_ws, out, *extra):
    return [
        "register",
        "--fixed", str(cli_ws / "fixed.rvol"),
        "--moving", str(cli_ws / "moving.rvol"),
        "--out", str(out),
        *extra,
    ]


def test_register_recovers_gold_transform(cli_ws, tmp_path):
    out = tmp_path / "result.json"
    rc = cli.main(register_args(
        cli_ws, out, "--sampler", "urs", "--rate", "0.05", *TUNED,
    ))
    assert rc == 0
    doc = json.loads(out.read_text())
    est = transform.RigidParams.from_dict(doc["result"]["final"])
    gold = transform.RigidParams.from_dict(
        json.loads((cli_ws / "gold.json").read_text())["transform"]
    )
    probes = training.default_probe_points(load_volume(cli_ws / "fixed.rvol"))
    err = np.linalg.norm(
        transform.apply_many(est, probes) - transform.apply_many(gold, probes),
        axis=1,
    )
    assert err.max() <= 1.0


def test_register_output_layout(cli_ws, tmp_path):
    out = tmp_path / "result.json"
    rc = cli.main(register_args(
        cli_ws, out, "--sampler", "urs", "--seed", "3", *FAST,
    ))
    assert rc == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"config", "result"}
    assert doc["config"]["sampler"] == "urs"
    assert doc["config"]["seed"] == 3
    assert doc["config"]["max_iters"] == 1
    assert len(doc["result"]["levels"]) == 2
    assert doc["result"]["sampler"]["kind"] == "urs"
    assert doc["result"]["seed"] == 3


def test_register_mixed_requires_betas(cli_ws, tmp_path, capsys):
    rc = cli.main(register_args(cli_ws, tmp_path / "r.json", "--sampler", "mixed"))
    assert rc == 2
    assert "--betas" in capsys.readouterr().err


def test_register_betas_missing_a_level_is_usage_error_before_reading_a_volume(
        cli_ws, tmp_path, capsys, monkeypatch):
    def refuse(path):
        raise AssertionError("a volume was read")

    monkeypatch.setattr(cli, "load_volume", refuse)
    betas = write_betas(tmp_path / "betas.json", {1: 0.2, 2: 0.4, 3: 0.6})
    out = tmp_path / "r.json"
    rc = cli.main(register_args(cli_ws, out, "--sampler", "mixed", "--betas", betas))
    assert rc == 2
    assert "sampreg register: --betas: no mixing weight for levels [4]" in capsys.readouterr().err
    assert not out.exists()


def test_register_mixed_uses_betas_file(cli_ws, tmp_path):
    betas = write_betas(tmp_path / "betas.json", {1: 0.3, 2: 0.6})
    out = tmp_path / "result.json"
    rc = cli.main(register_args(
        cli_ws, out, "--sampler", "mixed", "--betas", betas, *FAST,
    ))
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["sampler"]["betas"] == {"1": 0.3, "2": 0.6}


def test_register_missing_input_is_usage_error(cli_ws, tmp_path, capsys):
    rc = cli.main([
        "register", "--fixed", str(tmp_path / "nope.rvol"),
        "--moving", str(cli_ws / "moving.rvol"),
        "--out", str(tmp_path / "r.json"), "--sampler", "urs",
    ])
    assert rc == 2
    assert "--fixed" in capsys.readouterr().err


def test_register_corrupt_input_is_runtime_error(cli_ws, tmp_path, capsys):
    bad = tmp_path / "bad.rvol"
    bad.write_bytes(b"not a volume at all")
    rc = cli.main([
        "register", "--fixed", str(bad),
        "--moving", str(cli_ws / "moving.rvol"),
        "--out", str(tmp_path / "r.json"), "--sampler", "urs",
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith("sampreg register: error:")


def test_programming_error_propagates_with_its_traceback(cli_ws, tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("register() got an unexpected keyword argument 'seeds'")

    monkeypatch.setattr(optimizer, "register", broken)
    with pytest.raises(TypeError, match="unexpected keyword"):
        cli.main(register_args(cli_ws, tmp_path / "r.json", "--sampler", "urs"))
    assert not (tmp_path / "r.json").exists()


def test_register_rejects_bad_rate(cli_ws, tmp_path, capsys):
    rc = cli.main(register_args(
        cli_ws, tmp_path / "r.json", "--sampler", "urs", "--rate", "0",
    ))
    assert rc == 2
    assert "--rate" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, field", [
    ("--bins", "4", "num_bins"),
    ("--kernel-radius", "4", "kernel_radius"),
])
def test_register_rejects_histogram_settings(cli_ws, tmp_path, capsys, flag, value, field):
    rc = cli.main(register_args(cli_ws, tmp_path / "r.json", "--sampler", "urs", flag, value))
    assert rc == 2
    err = capsys.readouterr().err
    assert "optimizer settings" in err and field in err


@pytest.mark.parametrize("flag, value, field", [
    ("--damping", "nan", "damping"),
    ("--damping", "inf", "damping"),
    ("--initial-radius", "inf", "initial_radius"),
])
def test_register_rejects_non_finite_trust_region_settings(cli_ws, tmp_path, capsys,
                                                           flag, value, field):
    out = tmp_path / "r.json"
    rc = cli.main(register_args(cli_ws, out, "--sampler", "urs", flag, value))
    assert rc == 2
    err = capsys.readouterr().err
    assert "optimizer settings" in err and field in err
    assert not out.exists()


def test_register_has_no_rotation_scale_flag(cli_ws, tmp_path):
    # a radian's cost follows from the fixed volume; it is not a setting
    with pytest.raises(SystemExit) as exc:
        cli.main(register_args(cli_ws, tmp_path / "r.json", "--sampler", "urs",
                               "--rotation-scale", "7"))
    assert exc.value.code == 2


def test_register_config_file_then_flags_precedence(cli_ws, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"rate": 0.005, "seed": 9, "max_iters": 1, "num_levels": 2}
    ))
    out = tmp_path / "result.json"
    rc = cli.main(register_args(
        cli_ws, out, "--sampler", "urs",
        "--config", str(cfg_path), "--rate", "0.002",
    ))
    assert rc == 0
    cfg = json.loads(out.read_text())["config"]
    assert cfg["rate"] == 0.002  # flag beats config file
    assert cfg["seed"] == 9  # config file beats default
    assert cfg["max_iters"] == 1
    assert cfg["num_levels"] == 2


def test_register_rejects_unknown_config_key(cli_ws, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    # the trust-region update factors are fixed in the optimizer, and the
    # rotation scale follows from the fixed volume: none of them is a setting
    for key, value in (("bogus", 1), ("expand", 2.0), ("shrink", 0.25),
                       ("accept_low", 0.25), ("accept_high", 0.75),
                       ("rotation_scale", 7.0), ("rotation_scale", None)):
        cfg_path.write_text(json.dumps({key: value}))
        rc = cli.main(register_args(
            cli_ws, tmp_path / "r.json", "--sampler", "urs", "--config", str(cfg_path),
        ))
        assert rc == 2, key
        assert f"unknown keys ['{key}']" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command, loaded, key", [
    ("register", {"num_bins": "x"}, "num_bins"),
    ("register", {"max_iters": 2.5}, "max_iters"),
    ("register", {"seed": True}, "seed"),
    ("register", {"damping": "wide"}, "damping"),
    ("mask", {"num_bins": "x"}, "num_bins"),
    ("mask", {"rate": "0.1"}, "rate"),
    ("mask", {"sampler": 3}, "sampler"),
])
def test_config_value_of_the_wrong_type_is_usage_error(cli_ws, tmp_path, capsys,
                                                       command, loaded, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(loaded))
    inputs = (register_args(cli_ws, tmp_path / "r.json") if command == "register"
              else ["mask", "--volume", str(cli_ws / "fixed.rvol"),
                    "--out", str(tmp_path / "m.rvol")])
    rc = cli.main(inputs + ["--sampler", "urs", "--config", str(cfg_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--config" in err and key in err


def test_config_takes_integral_floats(cli_ws, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"rate": 1, "initial_radius": 2,
                                    "max_iters": 1, "num_levels": 2}))
    out = tmp_path / "result.json"
    rc = cli.main(register_args(cli_ws, out, "--sampler", "urs", "--config", str(cfg_path)))
    assert rc == 0
    cfg = json.loads(out.read_text())["config"]
    assert (cfg["rate"], cfg["initial_radius"]) == (1, 2)
    assert "rotation_scale" not in cfg


def test_config_that_is_not_an_object_is_usage_error(cli_ws, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("[0.1]")
    rc = cli.main(register_args(
        cli_ws, tmp_path / "r.json", "--sampler", "urs", "--config", str(cfg_path),
    ))
    assert rc == 2
    assert "JSON object" in capsys.readouterr().err


def test_register_resamples_anisotropic_input(cli_ws, tmp_path):
    fixed = load_volume(cli_ws / "fixed.rvol")
    v = Volume(fixed.data[::2, ::2, ::2], spacing=(2.0, 2.0, 2.0))
    path = tmp_path / "coarse.rvol"
    save_volume(v, path)
    out = tmp_path / "result.json"
    rc = cli.main([
        "register", "--fixed", str(path), "--moving", str(path),
        "--out", str(out), "--sampler", "urs", "--max-iters", "0",
        "--levels", "1",
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["levels"][0]["termination"] == "budget"


def test_register_rerun_is_identical_after_dropping_timing(cli_ws, tmp_path):
    docs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        rc = cli.main(register_args(
            cli_ws, out, "--sampler", "urs", "--seed", "4", *FAST,
        ))
        assert rc == 0
        doc = json.loads(out.read_text())
        doc["result"].pop("elapsed_s")
        docs.append(doc)
    assert docs[0] == docs[1]


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def train_args(manifest, out, *extra):
    return [
        "train", "--pairs", str(manifest), "--out", str(out),
        "--mc", "1", "--particles", "2", "--iters", "1",
        "--levels", "2", "--max-iters", "1", "--rate", "0.01",
        *extra,
    ]


def test_train_writes_betas_and_report(manifest, tmp_path):
    out = tmp_path / "betas.json"
    report_path = tmp_path / "report.json"
    rc = cli.main(train_args(manifest, out, "--report", str(report_path)))
    assert rc == 0
    doc = json.loads(out.read_text())
    assert [entry["r"] for entry in doc["levels"]] == [2, 1]
    assert all(0.0 <= entry["beta"] <= 1.0 for entry in doc["levels"])
    assert doc["config"]["mc"] == 1
    report = json.loads(report_path.read_text())
    assert [lv["level"] for lv in report["report"]["levels"]] == [2, 1]
    for lv in report["report"]["levels"]:
        values = [row["best_value"] for row in lv["history"]]
        assert values == sorted(values, reverse=True)


def test_train_same_seed_rerun_is_identical(manifest, tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert cli.main(train_args(manifest, out)) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_train_forwards_histogram_flags(manifest, tmp_path, monkeypatch):
    seen = capture_histogram_settings(monkeypatch)
    out = tmp_path / "betas.json"
    rc = cli.main(train_args(manifest, out, "--bins", "24", "--kernel-radius", "3"))
    assert rc == 0
    assert seen == {(24, 3)}


def test_train_rejects_missing_manifest(tmp_path, capsys):
    rc = cli.main([
        "train", "--pairs", str(tmp_path / "nope.json"),
        "--out", str(tmp_path / "betas.json"),
    ])
    assert rc == 2
    assert "--pairs" in capsys.readouterr().err


def test_train_rejects_empty_manifest(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text("[]")
    rc = cli.main(["train", "--pairs", str(path),
                   "--out", str(tmp_path / "betas.json")])
    assert rc == 2
    assert "nonempty" in capsys.readouterr().err


def test_train_rejects_entry_missing_key(cli_ws, tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps([{"fixed": str(cli_ws / "fixed.rvol")}]))
    rc = cli.main(["train", "--pairs", str(path),
                   "--out", str(tmp_path / "betas.json")])
    assert rc == 2
    assert "entry 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_manifest_gold_file_that_is_not_an_object_is_usage_error(cli_ws, tmp_path, capsys,
                                                                 command):
    (tmp_path / "gold.json").write_text("[1, 2]")
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps([{"fixed": str(cli_ws / "fixed.rvol"),
                                 "moving": str(cli_ws / "moving.rvol"), "gold": "gold.json"}]))
    out = tmp_path / "out"
    extra = {"train": [], "sweep": ["--samplers", "urs"]}[command]
    rc = cli.main([command, "--pairs", str(path), "--out", str(out), *extra])
    assert rc == 2
    assert "--pairs: entry 0: gold file gold.json must hold a JSON object" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_train_rejects_bad_mc(manifest, tmp_path, capsys):
    rc = cli.main([
        "train", "--pairs", str(manifest),
        "--out", str(tmp_path / "betas.json"), "--mc", "0",
    ])
    assert rc == 2
    assert "--mc" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_case_and_aggregate_arithmetic(manifest, tmp_path):
    cases = tmp_path / "cases.csv"
    agg = tmp_path / "agg.csv"
    rc = cli.main([
        "sweep", "--pairs", str(manifest),
        "--samplers", "urs,gms", "--rates", "0.01,0.005", "--trials", "2",
        "--levels", "2", "--max-iters", "1",
        "--out", str(cases), "--aggregate", str(agg),
    ])
    assert rc == 0
    lines = cases.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    config = json.loads(lines[0][len("# config: "):])
    assert config["samplers"] == ["urs", "gms"]
    rows = list(csv.DictReader(lines[1:]))
    # pairs x samplers x rates x trials
    assert len(rows) == 2 * 2 * 2 * 2
    assert set(r["sampler"] for r in rows) == {"urs", "gms"}
    assert set(r["pair_id"] for r in rows) == {"pair0", "pair1"}
    agg_rows = list(csv.DictReader(agg.read_text().splitlines()[1:]))
    assert len(agg_rows) == 4
    assert all(0.0 <= float(r["failure_rate"]) <= 1.0 for r in agg_rows)


def test_sweep_forwards_histogram_flags(manifest, tmp_path, monkeypatch):
    seen = capture_histogram_settings(monkeypatch)
    rc = cli.main([
        "sweep", "--pairs", str(manifest), "--samplers", "urs",
        "--rates", "0.01", "--trials", "1", "--bins", "24",
        "--kernel-radius", "3", "--out", str(tmp_path / "cases.csv"),
    ])
    assert rc == 0
    assert seen == {(24, 3)}


def test_sweep_mixed_requires_betas(manifest, tmp_path, capsys):
    rc = cli.main([
        "sweep", "--pairs", str(manifest), "--samplers", "mixed",
        "--out", str(tmp_path / "cases.csv"),
    ])
    assert rc == 2
    assert "--betas" in capsys.readouterr().err


def test_sweep_betas_missing_a_level_is_usage_error(manifest, tmp_path, capsys):
    betas = write_betas(tmp_path / "betas.json", {1: 0.2, 2: 0.4, 3: 0.6})
    rc = cli.main([
        "sweep", "--pairs", str(manifest), "--samplers", "urs,mixed", "--betas", betas,
        "--rates", "0.01", "--trials", "1", "--out", str(tmp_path / "cases.csv"),
    ])
    assert rc == 2
    assert "--betas: no mixing weight for levels [4]" in capsys.readouterr().err
    assert not (tmp_path / "cases.csv").exists()


@pytest.mark.parametrize("threshold", ["-1", "0", "nan"])
def test_sweep_rejects_a_threshold_that_fails_every_case(manifest, tmp_path, capsys,
                                                         threshold):
    rc = cli.main([
        "sweep", "--pairs", str(manifest), "--samplers", "urs", "--rates", "0.01",
        "--trials", "1", "--threshold", threshold, "--out", str(tmp_path / "cases.csv"),
    ])
    assert rc == 2
    assert "--threshold" in capsys.readouterr().err
    assert not (tmp_path / "cases.csv").exists()


def test_sweep_rejects_unknown_sampler(manifest, tmp_path, capsys):
    rc = cli.main([
        "sweep", "--pairs", str(manifest), "--samplers", "urs,bogus",
        "--out", str(tmp_path / "cases.csv"),
    ])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


def test_sweep_rejects_out_of_range_rate(manifest, tmp_path, capsys):
    rc = cli.main([
        "sweep", "--pairs", str(manifest), "--samplers", "urs",
        "--rates", "1.5", "--out", str(tmp_path / "cases.csv"),
    ])
    assert rc == 2
    assert "1.5" in capsys.readouterr().err


def test_sweep_rerun_matches_after_dropping_times(manifest, tmp_path):
    def run(name):
        path = tmp_path / name
        rc = cli.main([
            "sweep", "--pairs", str(manifest), "--samplers", "urs",
            "--rates", "0.01", "--trials", "2", "--levels", "2",
            "--max-iters", "1", "--out", str(path),
        ])
        assert rc == 0
        rows = list(csv.DictReader(path.read_text().splitlines()[1:]))
        for row in rows:
            row.pop("time_ms")
        return rows

    assert run("a.csv") == run("b.csv")


# ---------------------------------------------------------------------------
# mask
# ---------------------------------------------------------------------------


def test_mask_urs_sets_expected_fraction(cli_ws, tmp_path):
    out = tmp_path / "mask.rvol"
    rc = cli.main([
        "mask", "--volume", str(cli_ws / "fixed.rvol"),
        "--sampler", "urs", "--rate", "0.05", "--out", str(out),
    ])
    assert rc == 0
    mask = load_volume(out)
    assert set(np.unique(mask.data)) <= {0.0, 1.0}
    count = float(mask.data.sum())
    expect = 0.05 * mask.num_voxels
    assert abs(count - expect) <= 4.0 * np.sqrt(expect)
    sidecar = json.loads((out.with_name("mask.rvol.provenance.json")).read_text())
    assert sidecar["config"]["command"] == "mask"


def test_mask_gms_differs_from_urs(cli_ws, tmp_path):
    paths = {}
    for kind in ("urs", "gms"):
        out = tmp_path / f"{kind}.rvol"
        rc = cli.main([
            "mask", "--volume", str(cli_ws / "fixed.rvol"),
            "--sampler", kind, "--rate", "0.05", "--out", str(out),
        ])
        assert rc == 0
        paths[kind] = load_volume(out).data
    assert not np.array_equal(paths["urs"], paths["gms"])


def test_mask_mixed_reads_level_weight(cli_ws, tmp_path):
    betas = write_betas(tmp_path / "betas.json", {1: 0.5})
    out = tmp_path / "mask.rvol"
    rc = cli.main([
        "mask", "--volume", str(cli_ws / "fixed.rvol"),
        "--sampler", "mixed", "--betas", betas, "--rate", "0.05",
        "--out", str(out),
    ])
    assert rc == 0
    assert load_volume(out).data.sum() > 0


def test_mask_mixed_missing_level_is_usage_error(cli_ws, tmp_path, capsys):
    betas = write_betas(tmp_path / "betas.json", {2: 0.5})
    rc = cli.main([
        "mask", "--volume", str(cli_ws / "fixed.rvol"),
        "--sampler", "mixed", "--betas", betas, "--level", "1",
        "--out", str(tmp_path / "mask.rvol"),
    ])
    assert rc == 2
    assert "--level" in capsys.readouterr().err


def test_mask_gms_constant_volume_is_runtime_error(tmp_path, capsys):
    flat = Volume(np.full((32, 32, 32), 5.0), spacing=(1.0, 1.0, 1.0))
    path = tmp_path / "flat.rvol"
    save_volume(flat, path)
    rc = cli.main([
        "mask", "--volume", str(path), "--sampler", "gms",
        "--rate", "0.05", "--out", str(tmp_path / "mask.rvol"),
    ])
    assert rc == 1
    assert "gradient" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("kind", ["gms", "mixed"])
def test_mask_refuses_gradient_support_below_budget(tmp_path, capsys, kind):
    # one bright voxel: 6 gradient-positive voxels against a budget of 1638
    dot = np.zeros((32, 32, 32))
    dot[16, 16, 16] = 100.0
    path = tmp_path / "dot.rvol"
    save_volume(Volume(dot, spacing=(1.0, 1.0, 1.0)), path)
    betas = write_betas(tmp_path / "betas.json", {1: 0.5})
    out = tmp_path / "mask.rvol"
    rc = cli.main([
        "mask", "--volume", str(path), "--sampler", kind, "--betas", betas,
        "--rate", "0.05", "--out", str(out),
    ])
    assert rc == 1
    assert "gradient support below budget" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# argparse plumbing
# ---------------------------------------------------------------------------


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["register"])
    assert exc.value.code == 2
