"""Command line entry points: exit codes, file outputs, config precedence."""

import csv
import json
from types import SimpleNamespace

import numpy as np
import pytest

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


def test_register_rejects_bad_rate(cli_ws, tmp_path, capsys):
    rc = cli.main(register_args(
        cli_ws, tmp_path / "r.json", "--sampler", "urs", "--rate", "0",
    ))
    assert rc == 2
    assert "--rate" in capsys.readouterr().err


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
    cfg_path.write_text(json.dumps({"bogus": 1}))
    rc = cli.main(register_args(
        cli_ws, tmp_path / "r.json", "--sampler", "urs", "--config", str(cfg_path),
    ))
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("command, loaded, key", [
    ("register", {"num_bins": "x"}, "num_bins"),
    ("register", {"max_iters": 2.5}, "max_iters"),
    ("register", {"seed": True}, "seed"),
    ("register", {"rotation_scale": "wide"}, "rotation_scale"),
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


def test_config_takes_integral_floats_and_null_rotation_scale(cli_ws, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"rate": 1, "initial_radius": 2, "rotation_scale": None,
                                    "max_iters": 1, "num_levels": 2}))
    out = tmp_path / "result.json"
    rc = cli.main(register_args(cli_ws, out, "--sampler", "urs", "--config", str(cfg_path)))
    assert rc == 0
    cfg = json.loads(out.read_text())["config"]
    assert (cfg["rate"], cfg["initial_radius"], cfg["rotation_scale"]) == (1, 2, None)


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
