import json

import numpy as np
import pytest

from nmarl import cli, trainer, verify
from nmarl.config import construct, load_config, parse_config
from nmarl.errors import ConfigError
from nmarl.policy import CoupledSoftmaxPolicy, MixingSpec
from nmarl.trainer import evaluate_policy


def tiny_path_config(out_dir, iterations=40, seeds=(1,)):
    return {
        "env": {"name": "path_planning", "overrides": {"terminal_zero_reward": True}},
        "dscp": {
            "iterations": iterations,
            "kappa_p": 1,
            "lr": {"eta0": 5.0, "t0": 100.0, "form": "eta0/(t+t0)"},
            "eval_every": 20,
            "eval_episodes": 20,
            "eval_method": "fixed_horizon",
        },
        "seeds": list(seeds),
        "out_dir": str(out_dir),
    }


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestConfigParsing:
    def test_unknown_keys_rejected(self, tmp_path):
        obj = tiny_path_config(tmp_path)
        obj["unexpected"] = 1
        with pytest.raises(ConfigError):
            parse_config(obj)

    def test_unknown_dscp_key_rejected(self, tmp_path):
        obj = tiny_path_config(tmp_path)
        obj["dscp"]["learning_rate"] = 0.1
        with pytest.raises(ConfigError):
            parse_config(obj)

    @pytest.mark.parametrize("key", ["eval_executed", "kappa_r"])
    def test_dropped_eval_executed_key_rejected(self, tmp_path, key):
        obj = tiny_path_config(tmp_path)
        obj["dscp"][key] = 1
        with pytest.raises(ConfigError, match=f"unknown keys.*{key}"):
            parse_config(obj)

    def test_missing_env_block(self, tmp_path):
        obj = tiny_path_config(tmp_path)
        del obj["env"]
        with pytest.raises(ConfigError):
            parse_config(obj)

    def test_repeated_seeds_named(self, tmp_path):
        obj = tiny_path_config(tmp_path)
        obj["seeds"] = [3, 1, 3, 2, 1]
        with pytest.raises(ConfigError, match=r"seeds must be distinct.*repeated: \[1, 3\]"):
            parse_config(obj)
        obj["seeds"] = [3, 1, 2]
        assert parse_config(obj).seeds == [3, 1, 2]

    def test_unsupported_lr_form(self, tmp_path):
        obj = tiny_path_config(tmp_path)
        obj["dscp"]["lr"]["form"] = "constant"
        with pytest.raises(ConfigError):
            parse_config(obj)

    def test_set_overrides(self, tmp_path):
        obj = tiny_path_config(tmp_path)
        run = parse_config(obj, ["dscp.iterations=7", "dscp.lr.eta0=1.5"])
        assert run.dscp.iterations == 7
        assert run.dscp.eta0 == 1.5

    def test_power_config_builds(self, tmp_path):
        run = load_config("configs/power_control.json")
        m = run.build_model()
        assert m.n == 3
        assert m.state_sizes == (4, 4, 4)

    def test_shipped_path_config_valid(self):
        run = load_config("configs/path_planning.json")
        assert run.dscp.iterations == 20000
        assert run.graph.n == 10


PC, PP = "configs/power_control.json", "configs/path_planning.json"

# Each input trained (exit 0), wrote a metrics file, raised a traceback or
# failed only inside the first run until the constructors became the config
# schema and the model was built before any run.
BAD_INPUTS = [
    (PC, "dscp.iterations=abc"),
    (PC, "dscp.lr.eta0=abc"),
    (PC, "dscp.mixing=5"),
    (PC, "dscp=5"),
    (PC, "dscp.mixing.self_weight=-1"),
    (PC, "dscp.mixing.self_weight=NaN"),
    (PC, "dscp.eval_horizon_eps=0"),
    (PC, "env.overrides.gamma=1.5"),
    (PC, "env.overrides.levels=abc"),
    (PC, 'env.overrides.price=[0.1,0.1,"a"]'),
    (PC, 'graph.edges=[[1,"x"]]'),
    (PC, "graph.n=3.7"),
    (PC, "dscp.iterations=true"),
    (PC, "dscp.kappa_p=1.7"),
    (PC, "dscp.lr.t0=Infinity"),
    (PC, "dscp.eval_every=-5"),
    (PC, "env.overrides.levels=2.5"),
    (PC, "seeds=[]"),
    (PC, "seeds=[true]"),
    (PC, "seeds=[1,-1]"),
    (PC, "seeds=[1,1,2]"),
    (PC, "env.overrides.start=[0.5,0,0]"),
    (PC, "env.overrides.start=[true,0,0]"),
    (PC, "env.overrides.noise=[1,1,NaN]"),
    (PC, "env.overrides.price=[1,1,Infinity]"),
    (PC, "env.overrides.gains=[[1,0.2,NaN],[0.2,1,0.2],[0,0.2,1]]"),
    (PP, "env.overrides.gamma=0"),
    (PP, "env.overrides.r_eps=abc"),
    (PP, 'env.overrides.terminal_zero_reward="no"'),
    (PP, "env.overrides.starts=5"),
    (PP, 'env.overrides.starts=[["b1"],"b2","b3","b4","b5","b1","b2","b3","b4","b5"]'),
    (PP, "env.overrides.successors=5"),
    (PP, 'env.overrides.successors={"b1":"c1"}'),
    (PP, "env.overrides.collision_weight=-1"),
]


# Each row is a config and the arguments after it: a bad ``--set`` override of
# ``train``, or a whole bad command. A sweep listing a kappa_p twice trained
# both into one kp<k>/ and kept one entry in sweep.json; one listing a seed
# twice trained it twice into one metrics file and counted it twice.
BAD_RUNS = [(c, ["train", "--set", b], f"{'pc' if c == PC else 'pp'}:{b}") for c, b in BAD_INPUTS]
BAD_RUNS.append((PC, ["sweep", "--kappa-p", "1", "1"], "pc:sweep --kappa-p 1 1"))
BAD_RUNS.append(
    (PC, ["sweep", "--kappa-p", "0", "--set", "seeds=[1,1,2]"], "pc:sweep seeds=[1,1,2]")
)
# Rewards or a reward bound that are not finite: the first exited 1 with a math
# domain error at the first evaluation, the second trained on NaN rewards
# until exit 3, and the third declared an infinite bound.
HUGE_GAIN = "env.overrides.gains=[[1,0.2,0],[0.2,1,0.2],[0,0.2,1e308]]"
HUGE_PRICE = "env.overrides.price=[0.1,0.1,1e308]"
HUGE_COSTS = ["env.overrides.r_eps=1e308", "env.overrides.collision_weight=1e308"]
BAD_RUNS += [
    (PC, ["train", "--set", HUGE_GAIN], "pc:gains 1e308"),
    (PC, ["train", "--set", HUGE_GAIN, "--set", HUGE_PRICE], "pc:gains and price 1e308"),
    (PP, ["train", "--set", HUGE_COSTS[0], "--set", HUGE_COSTS[1]], "pp:costs 1e308"),
]
# Finite reward bounds too large for training: at 5e307 the agent sum of the
# rewards overflows, at 1e160 the squared gradient-estimate norm; both exited
# 3 with a RuntimeWarning after the output directory existed.
BAD_RUNS += [
    (PC, ["train", "--set", f"env.overrides.price=[{p},{p},{p}]"], f"pc:price {p}")
    for p in ("5e307", "1e160")
]
# Two cycles the path structure's walk used to accept, each as a whole
# successor map: one through the destination, whose successors the walk did
# not visit, and one behind a successor that already reaches the destination.
DEFAULT_SUCCESSORS = {
    "b1": ["c1"], "b2": ["c1", "c2"], "b3": ["c2", "c3"], "b4": ["c3", "c4"], "b5": ["c4"],
    "c1": ["d1"], "c2": ["d1", "d2"], "c3": ["d2", "d3"], "c4": ["d3"],
    "d1": ["e"], "d2": ["e"], "d3": ["e"], "e": [],
}
CYCLES = {
    "pp:cycle through the destination": {"e": ["b1"]},
    "pp:cycle behind a reaching successor": {"b1": ["c1", "c2"], "c2": ["b1"]},
}
BAD_RUNS += [
    (PP, ["train", "--set", "env.overrides.successors="
          + json.dumps({**DEFAULT_SUCCESSORS, **change}, separators=(",", ":"))], name)
    for name, change in CYCLES.items()
]


@pytest.mark.parametrize("cfg, bad", [r[:2] for r in BAD_RUNS], ids=[r[2] for r in BAD_RUNS])
def test_bad_input_exits_2_before_training(tmp_path, capsys, monkeypatch, cfg, bad):
    monkeypatch.setattr(cli, "run_dscp", lambda *a, **kw: pytest.fail("training started"))
    small = ["--set", "dscp.iterations=2", "--set", "dscp.eval_episodes=5", "--set", "seeds=[1]"]
    command, *rest = bad
    rc = cli.main([command, "--config", cfg, "--out", str(tmp_path), *small, *rest])
    assert rc == 2
    assert not list(tmp_path.glob("**/metrics_seed*.csv"))
    assert not list(tmp_path.glob("kp*"))
    err = capsys.readouterr().err.splitlines()
    assert len([line for line in err if line.startswith("error: ")]) == 1


def test_evaluation_horizon_over_the_cap_exits_2(tmp_path, capsys):
    # the t = 1 evaluation would step 253 284 348 steps x 400 episodes
    rc = cli.main([
        "train", "--config", PP, "--out", str(tmp_path), "--set", "seeds=[1]",
        "--set", "dscp.iterations=2", "--set", "env.overrides.gamma=0.9999999",
    ])
    assert rc == 2
    assert "horizon 253284348 exceeds cap" in capsys.readouterr().err
    assert not (tmp_path / "metrics_seed1.csv").exists()


def test_block_key_sets():
    """Every block accepts each key it documents and rejects any other."""
    pc = {
        "env": {"name": "power_control", "overrides": {
            "n": 2, "levels": 3, "gains": [[1, 0.2], [0.2, 1]], "noise": [1, 1],
            "price": [0.1, 0.1], "gamma": 0.9, "start": [0, 1],
        }},
        "graph": {"n": 2, "edges": [[1, 2]]},
        "dscp": {
            "iterations": 1, "kappa_p": 1, "batch": 1, "eval_every": 0, "eval_episodes": 5,
            "eval_method": "geometric", "eval_horizon_eps": 1e-3, "direct_params": True,
            "check_invariants": True, "record_wall_time": False, "seed": 0,
            "lr": {"eta0": 1, "t0": 1, "form": "eta0/(t+t0)"},
            "mixing": {"self_weight": 0.8, "neighbor_weight_total": 0.2},
        },
        "seeds": [0],
        "out_dir": "unused",
    }
    pp = {
        "env": {"name": "path_planning", "overrides": {
            "starts": ["a", "b"], "gamma": 0.9, "r_eps": 0.5, "collision_weight": 0.5,
            "terminal_zero_reward": True, "locations": ["a", "b", "z"],
            "successors": {"a": ["b"], "b": ["z"], "z": []}, "destination": "z",
        }},
        "dscp": {"iterations": 1},
    }
    blocks = [
        (pc, [], "config root"), (pc, ["env"], "env block"),
        (pc, ["env", "overrides"], "env.overrides"), (pc, ["graph"], "graph block"),
        (pc, ["dscp"], "dscp block"), (pc, ["dscp", "lr"], "dscp.lr"),
        (pc, ["dscp", "mixing"], "dscp.mixing"), (pp, ["env", "overrides"], "env.overrides"),
    ]
    for full in (pc, pp):
        parse_config(full).build_model().validate()
    for full, path, where in blocks:
        obj = json.loads(json.dumps(full))
        node = obj
        for key in path:
            node = node[key]
        node["bogus"] = 1
        with pytest.raises(ConfigError, match=rf"unknown keys \['bogus'\] in {where}"):
            parse_config(obj).build_model()
    with pytest.raises(ConfigError, match=r"unknown keys \['bogus'\] in checkpoint mixing"):
        construct(MixingSpec, {"self_weight": 0.9, "kappa_p": 1, "bogus": 1}, "checkpoint mixing")


def test_one_agent_path_planning_trains(tmp_path):
    rc = cli.main(
        ["train", "--config", PP, "--out", str(tmp_path), "--set", 'env.overrides.starts=["b1"]',
         "--set", "dscp.iterations=5", "--set", "dscp.eval_every=5",
         "--set", "dscp.eval_episodes=5", "--set", "seeds=[1]"]
    )
    assert rc == 0
    assert (tmp_path / "metrics_seed1.csv").exists()


class TestTrain:
    def test_writes_expected_files_and_rows(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, tiny_path_config(out, iterations=100))
        rc = cli.main(["train", "--config", cfg])
        assert rc == 0
        csv = (out / "metrics_seed1.csv").read_text().splitlines()
        assert len(csv) == 101  # header + one row per iteration
        assert csv[0] == "t,J_est,J_se,grad_norm_est,consensus_err,lr,wall_ms"
        assert (out / "summary.json").exists()
        assert (out / "checkpoint_seed1.json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg = write_config(tmp_path, tiny_path_config(tmp_path / "unused"))
        assert cli.main(["train", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["train", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "metrics_seed1.csv").read_bytes() == (
            out2 / "metrics_seed1.csv"
        ).read_bytes()

    def test_missing_env_block_exit_2(self, tmp_path):
        obj = tiny_path_config(tmp_path)
        del obj["env"]
        cfg = write_config(tmp_path, obj)
        assert cli.main(["train", "--config", cfg]) == 2

    def test_path_destination_override_applied(self, tmp_path):
        # d1 is not reachable from e, so an honoured override fails validation
        rc = cli.main(
            ["train", "--config", "configs/path_planning.json", "--out", str(tmp_path),
             "--set", "env.overrides.destination=d1", "--set", "dscp.iterations=1",
             "--set", "seeds=[1]"]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "start", ["[7,0,0]", "[-1,0,0]", "[0,0]"], ids=["above", "negative", "short"]
    )
    def test_start_outside_space_exit_2(self, tmp_path, start):
        cfg = "configs/power_control.json"
        small = ["--set", "dscp.iterations=1", "--set", "dscp.eval_episodes=10"]
        bad = ["--set", f"env.overrides.start={start}"]
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path), *small, *bad]) == 2
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path), *small]) == 0
        ckpt = str(tmp_path / "checkpoint_seed1.json")
        assert cli.main(
            ["eval", "--config", cfg, "--checkpoint", ckpt, "--episodes", "10", *bad]
        ) == 2

    def test_summary_config_revalidates(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, tiny_path_config(out))
        assert cli.main(["train", "--config", cfg]) == 0
        summary = json.loads((out / "summary.json").read_text())
        run = parse_config(summary["config"])
        assert run.dscp.iterations == 40
        assert summary["results"][0]["final_J"] is not None


    @pytest.mark.parametrize(
        "cfg, kappa_p", [(PP, 2), (PC, 1)], ids=["pp-kappa2", "pc-kappa1"]
    )
    def test_diverging_step_size_exits_3(self, tmp_path, cfg, kappa_p):
        # exited 0 with inf in consensus_err (and numpy overflow warnings)
        # before a non-finite training state stopped the run
        args = ["--set", "dscp.iterations=4", "--set", f"dscp.kappa_p={kappa_p}",
                "--set", "dscp.lr.eta0=1e308", "--set", "seeds=[1]"]
        with np.errstate(over="ignore"):
            rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path), *args])
        assert rc == 3
        assert not (tmp_path / "metrics_seed1.csv").exists()


class TestEval:
    def test_zero_checkpoint_matches_fresh_eval(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, tiny_path_config(out, iterations=1))
        assert cli.main(["train", "--config", cfg]) == 0
        rc = cli.main(
            [
                "eval",
                "--config", cfg,
                "--checkpoint", str(out / "checkpoint_seed1.json"),
                "--episodes", "200",
                "--seed", "3",
            ]
        )
        assert rc == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        # the t=1 row of a fresh run evaluates the same zero parameters
        summary = json.loads((out / "summary.json").read_text())
        j_train = summary["results"][0]["final_J"]
        se = max(summary["results"][0]["final_J_se"], result["se"])
        assert abs(result["J"] - j_train) < 4 * (2 * se)

    def test_uses_checkpoint_mixing_weights(self, tmp_path, capsys):
        # a trained (nonzero) checkpoint, so the mixing weights shape the policy
        out = tmp_path / "out"
        cfg = write_config(tmp_path, tiny_path_config(out, iterations=60))
        assert cli.main(
            ["train", "--config", cfg, "--set", "dscp.mixing.self_weight=0.5"]
        ) == 0
        ckpt = out / "checkpoint_seed1.json"
        capsys.readouterr()
        rc = cli.main(
            ["eval", "--config", cfg, "--checkpoint", str(ckpt), "--episodes", "50", "--seed", "3"]
        )
        assert rc == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        run = load_config(cfg)
        m = run.build_model()
        pol = CoupledSoftmaxPolicy(
            m.graph, m.n_states, m.n_actions,
            MixingSpec(self_weight=0.5, neighbor_weight_total=0.1, kappa_p=1),
        )
        theta = np.asarray(json.loads(ckpt.read_text())["params"])
        assert np.any(theta != 0.0)
        j, se = evaluate_policy(
            m, pol, theta, 50, np.random.default_rng(np.random.SeedSequence([3, 2])),
            method=run.dscp.eval_method, horizon_eps=run.dscp.eval_horizon_eps,
        )
        assert (result["J"], result["se"]) == (j, se)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda c: c.pop("mixing"),
            lambda c: c.pop("kappa_p"),
            lambda c: c.update(kappa_p=1.5),
            lambda c: c["mixing"].update(self_weight="heavy"),
            lambda c: c["mixing"].update(neighbor_weight_total=-0.1),
            lambda c: c["mixing"].update(bogus=1),
            lambda c: c["params"][0].__setitem__(0, float("nan")),
            # same S * A, so the parameter shape alone would pass
            lambda c: c.update(n_states=c["n_actions"], n_actions=c["n_states"]),
        ],
        ids=[
            "no_mixing", "no_kappa_p", "float_kappa_p", "text_weight", "negative_weight",
            "unknown_mixing_key",
            "nan_params", "swapped_space",
        ],
    )
    def test_malformed_checkpoint_exit_2(self, tmp_path, edit):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, tiny_path_config(out, iterations=1))
        assert cli.main(["train", "--config", cfg]) == 0
        ckpt = json.loads((out / "checkpoint_seed1.json").read_text())
        edit(ckpt)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(ckpt))
        rc = cli.main(
            ["eval", "--config", cfg, "--checkpoint", str(bad), "--episodes", "10"]
        )
        assert rc == 2

    def test_negative_seed_exit_2(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, tiny_path_config(out, iterations=1))
        assert cli.main(["train", "--config", cfg]) == 0
        rc = cli.main(
            ["eval", "--config", cfg, "--checkpoint", str(out / "checkpoint_seed1.json"),
             "--episodes", "10", "--seed", "-1"]
        )
        assert rc == 2

    def test_zero_episodes_exit_2(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, tiny_path_config(out, iterations=1))
        cli.main(["train", "--config", cfg])
        rc = cli.main(
            ["eval", "--config", cfg, "--checkpoint",
             str(out / "checkpoint_seed1.json"), "--episodes", "0"]
        )
        assert rc == 2

    def test_dimension_mismatch_exit_2(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, tiny_path_config(out, iterations=1))
        cli.main(["train", "--config", cfg])
        ckpt = json.loads((out / "checkpoint_seed1.json").read_text())
        ckpt["params"] = [row[:-3] for row in ckpt["params"]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(ckpt))
        rc = cli.main(
            ["eval", "--config", cfg, "--checkpoint", str(bad), "--episodes", "10"]
        )
        assert rc == 2


class TestAtomicOutputs:
    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("previous")
        with pytest.raises(RuntimeError):
            with cli.atomic_write(path) as fp:
                fp.write("half of the new")
                fp.flush()
                raise RuntimeError("disk gone")
        assert path.read_text() == "previous"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_completed_write_replaces_file(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("previous")
        with cli.atomic_write(path) as fp:
            fp.write("new")
        assert path.read_text() == "new"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_interrupted_rerun_keeps_metrics(self, tmp_path, monkeypatch):
        # A rerun whose CSV write dies midway leaves the first run's CSV whole.
        out = tmp_path / "run"
        cfg = write_config(tmp_path, tiny_path_config(out, iterations=3))
        assert cli.main(["train", "--config", cfg]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def broken(record, fp, include_wall_time=False):
            fp.write("t,J_est\n1,")
            raise OSError("no space left on device")

        monkeypatch.setattr(trainer.TrainRecord, "write_csv", broken)
        with pytest.raises(OSError):
            cli.main(["train", "--config", cfg, "--set", "dscp.iterations=4"])
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestSweep:
    def test_single_point_sweep(self, tmp_path):
        out = tmp_path / "sweep"
        cfg = write_config(tmp_path, tiny_path_config(out, iterations=30))
        rc = cli.main(
            ["sweep", "--config", cfg, "--kappa-p", "0", "--out", str(out)]
        )
        assert rc == 0
        agg = json.loads((out / "sweep.json").read_text())
        assert set(agg["kappa_p"]) == {"0"}
        assert agg["kappa_p"]["0"]["mean_final_J"] is not None
        assert (out / "kp0" / "metrics_seed1.csv").exists()

    def test_multi_kappa_ordering_reported(self, tmp_path):
        out = tmp_path / "sweep"
        cfg = write_config(tmp_path, tiny_path_config(out, iterations=25))
        rc = cli.main(
            ["sweep", "--config", cfg, "--kappa-p", "0", "1", "--out", str(out)]
        )
        assert rc == 0
        agg = json.loads((out / "sweep.json").read_text())
        assert set(agg["mean_final_J_by_kappa"]) == {"0", "1"}

    def test_every_kappa_validated_before_training(self, tmp_path):
        # direct_params needs kappa_p 1, so kappa_p 0 is invalid
        out = tmp_path / "sweep"
        cfg = write_config(tmp_path, tiny_path_config(out, iterations=2))
        rc = cli.main(
            ["sweep", "--config", cfg, "--kappa-p", "1", "0", "--out", str(out),
             "--set", "dscp.direct_params=true"]
        )
        assert rc == 2
        assert not list(out.glob("**/metrics_seed*.csv"))

    def test_bad_override_leaves_no_run_directory(self, tmp_path):
        out = tmp_path / "sweep"
        rc = cli.main(
            ["sweep", "--config", PC, "--kappa-p", "0", "1", "--out", str(out),
             "--set", "env.overrides.levels=2.5"]
        )
        assert rc == 2
        assert not list(tmp_path.glob("**/kp*"))

    def test_negative_kappa_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, tiny_path_config(tmp_path / "x"))
        rc = cli.main(["sweep", "--config", cfg, "--kappa-p", "-1"])
        assert rc == 2


class TestVerifyCommand:
    def test_quick_suite_passes(self, tmp_path, capsys):
        rc = cli.main(["verify", "--level", "quick", "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["pass"] is True
        assert {c["name"] for c in report["checks"]} >= {
            "value_decomposition", "gradient_forms", "pushsum_invariants",
        }

    def test_mutated_return_estimate_is_caught(self, monkeypatch):
        # simulate a sign-flip defect in the return estimator and make sure
        # the unbiasedness check flags it
        import nmarl.estimator as est_mod

        original = est_mod.q_estimates
        monkeypatch.setattr(
            est_mod, "q_estimates", lambda *a, **kw: -original(*a, **kw)
        )
        ok, detail = verify.check_estimator_unbiased(samples=20_000)
        assert not ok

    def test_mutated_score_sums_break_policy_scores_check(self, monkeypatch):
        # each row still has mean zero when it weighs agent j's score by
        # coupling[i, j] in place of coupling[j, i] (the line's coupling is
        # not symmetric), but not when a stack row is scored with the true
        # parameters, each agent's own row of the stack; the check fails both
        original_init = CoupledSoftmaxPolicy.__init__

        def transposed(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            self._shares = self.coupling[:, :, None]

        monkeypatch.setattr(CoupledSoftmaxPolicy, "__init__", transposed)
        assert not verify.check_policy_scores()[0]
        monkeypatch.undo()
        original = CoupledSoftmaxPolicy.score_sums

        def true_view(self, states, actions, params):
            arr = np.asarray(params, dtype=float)
            if arr.ndim == 3:
                arr = arr[np.arange(self.n), np.arange(self.n)]
            return original(self, states, actions, arr)

        monkeypatch.setattr(CoupledSoftmaxPolicy, "score_sums", true_view)
        assert not verify.check_policy_scores()[0]

    def test_mutated_weights_break_pushsum_check(self, monkeypatch):
        import nmarl.pushsum as ps_mod

        original = ps_mod.inject_all

        def skewed(st, w, deltas):
            return original(st, w, deltas * 1.01)

        monkeypatch.setattr(ps_mod, "inject_all", skewed)
        report_entry = [
            c for c in verify.run_suite("quick")["checks"]
            if c["name"] == "pushsum_invariants"
        ][0]
        assert report_entry["pass"] is False
