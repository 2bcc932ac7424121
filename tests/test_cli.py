"""Config loading, subcommand behavior, and the exit-code contract."""

import json
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from gen import random_network
from smallgain import cli, paths, simulate
from smallgain.cli import load_config, main
from smallgain.errors import ConfigError, SgcFails
from smallgain.gains import GainNetwork, MaxAgg, OuterSum, SumAgg
from smallgain.parser import format_gain, parse_gain
from smallgain.paths import OmegaPath, construct_path, validate_path, write_csv
from smallgain.sgc import INCONCLUSIVE, SgcVerdict

DEMO_DIR = pathlib.Path(__file__).resolve().parent.parent / "demos" / "configs"


def write_cfg(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def max_net(slope, ext="0"):
    g = f"{slope}*s"
    return {
        "n": 2,
        "gains": [["0", g], [g, "0"]],
        "external_gains": [ext, ext],
        "mu": ["max", "max"],
    }


LINEAR_MODEL = {
    "family": "linear",
    "A": [[[-1.0]], [[-1.0]]],
    "coupling": [
        {"i": 0, "j": 1, "matrix": [[0.2]]},
        {"i": 1, "j": 0, "matrix": [[0.2]]},
    ],
    "B": [[[1.0]], [[1.0]]],
    "Q": [[[2.0]], [[2.0]]],
    "epsilon": 0.5,
}


# ---------------------------------------------------------------------------
# check


def bent_max_net(slope):
    # not c*s^q: no power change makes it homogeneous, so the cycle route runs
    g = f"{slope}*s+0.1*s/(1+s)"
    return {
        "n": 2,
        "gains": [["0", g], [g, "0"]],
        "external_gains": ["0", "0"],
        "mu": ["max", "max"],
    }


def test_check_contractive_max_pair(tmp_path, capsys):
    # linear gains: the Perron bound proves it, and no cycle is sampled
    code = main(["check", write_cfg(tmp_path, max_net(0.5))])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == ["Perron bound: 0.5 (CertifiedHolds)",
                                "verdict: CertifiedHolds"]
    code = main(["check", write_cfg(tmp_path, bent_max_net(0.5))])
    out = capsys.readouterr().out
    assert code == 0
    assert "cycle condition: holds" in out
    assert "verdict: CertifiedHolds" in out


def test_check_violating_max_pair(tmp_path, capsys):
    code = main(["check", write_cfg(tmp_path, max_net(2.0))])
    out = capsys.readouterr().out
    assert code == 1
    assert "Perron bound: 2 (CertifiedFails), witness (1, 1)" in out
    assert "cycle condition" not in out
    assert "verdict: CertifiedFails" in out
    code = main(["check", write_cfg(tmp_path, bent_max_net(2.0))])
    out = capsys.readouterr().out
    assert code == 1
    assert "cycle condition: fails on cycle" in out
    assert "witness" in out
    assert "verdict: CertifiedFails" in out


def test_check_inconclusive_backed_by_path(tmp_path, capsys):
    doc = {
        "n": 2,
        "gains": [["0", "1*s/(1+s)"], ["1*s/(1+s)", "0"]],
        "external_gains": ["0", "0"],
        "mu": ["sum", "sum"],
    }
    code = main(["check", write_cfg(tmp_path, doc)])
    out = capsys.readouterr().out
    assert code == 0
    assert "path construction" in out
    assert "Inconclusive" in out


def test_check_failed_path_fallback_prints_verdict(tmp_path, capsys):
    # a 3-cycle of power gains (exponents 1/2, 1, 2.01) on sum rows: no
    # per-node power change makes it homogeneous, as the exponent product
    # is 1.005, so no route decides it and the path construction stalls
    doc = {
        "n": 3,
        "gains": [["0", "0.4*sqrt(s)", "0"], ["0", "0", "0.5*s"],
                  ["0.3*s^2.01", "0", "0"]],
        "external_gains": ["0", "0", "0"],
        "mu": ["sum", "sum", "sum"],
    }
    code = main(["check", write_cfg(tmp_path, doc), "--seed", "0"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[-2].startswith("path construction: PathStalled: ")
    assert lines[-1] == "verdict: Inconclusive (PathStalled)"


def test_check_model_config_uses_design_network(tmp_path, capsys):
    code = main(["check", write_cfg(tmp_path, {"model": LINEAR_MODEL})])
    out = capsys.readouterr().out
    assert code == 0
    assert "Perron bound: 0.4" in out


@pytest.mark.parametrize("cmd", ["check", "path", "certify", "simulate", "verify"])
def test_config_with_network_and_model_rejected(cmd, tmp_path, capsys):
    # max rows 2*s both ways fail, the model's design holds: every command
    # would judge one of two networks, so the config holds only one
    doc = json.loads((DEMO_DIR / "linear_two_block.json").read_text())
    doc.update(max_net(2.0))
    code = main([cmd, write_cfg(tmp_path, doc)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == ("config error: /model: a config holds either the declarative "
                   "network sections or a model, not both\n")


def test_config_without_network_or_model_rejected(tmp_path, capsys):
    code = main(["check", write_cfg(tmp_path, {"simulation": {"T": 1.0}})])
    assert code == 2
    assert "/gains" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# path


def test_path_three_sum_csv(tmp_path, capsys):
    doc = {
        "n": 3,
        "gains": [["0", "0.25*s", "0.25*s"],
                  ["0.25*s", "0", "0.25*s"],
                  ["0.25*s", "0.25*s", "0"]],
        "external_gains": ["0", "0", "0"],
        "mu": ["sum", "sum", "sum"],
    }
    out_csv = tmp_path / "path.csv"
    code = main(["path", write_cfg(tmp_path, doc), "--out", str(out_csv)])
    assert code == 0
    assert "min margin" in capsys.readouterr().out
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "r,sigma_1,sigma_2,sigma_3,margin_min"
    # the network is linear: the ray along w = (I - G)^-1 1 = (2, 2, 2)
    r, s1, s2, s3, _m = (float(v) for v in lines[1].split(","))
    assert s1 == pytest.approx(r, rel=1e-9)
    assert s2 == pytest.approx(r, rel=1e-9)
    assert s3 == pytest.approx(r, rel=1e-9)


def test_path_noncontractive_cycle_exit(tmp_path, capsys):
    # the gate refutes a linear max ring by its Perron bound
    code = main(["path", write_cfg(tmp_path, max_net(2.0)),
                 "--out", str(tmp_path / "p.csv")])
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        "Perron bound: 2 (CertifiedFails), witness (1, 1)",
        "verdict: CertifiedFails"]
    # and one whose gains are not power laws by the cycle route
    g = "1.6*s+0.4*s/(1+s)"
    doc = {**max_net(2.0), "gains": [["0", g], [g, "0"]]}
    code = main(["path", write_cfg(tmp_path, doc), "--out", str(tmp_path / "p.csv")])
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        "cycle condition: fails on cycle (2, 1), witness (1e-08, 2e-08)",
        "verdict: CertifiedFails"]


@pytest.mark.parametrize("cmd", ["path", "certify"])
def test_failing_construction_prints_the_verdict(tmp_path, capsys, cmd):
    # the ray's Perron bound re-checks the witness (1, 1), as check prints it
    code = main([cmd, str(DEMO_DIR / "max_pair_bad.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        "Perron bound: 2 (CertifiedFails), witness (1, 1)",
        "verdict: CertifiedFails"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("cmd", ["path", "certify"])
def test_mixed_route_failure_prints_the_rechecked_witness(tmp_path, capsys, cmd):
    # the falsifier refutes the network before the mixed route, whose
    # inflated unbounded part fails its Perron bound, runs: path and certify
    # print check's deciding line and write nothing
    doc = {"n": 3, "external_gains": ["0"] * 3, "mu": ["sum"] * 3,
           "gains": [["0", "2*s", "0"], ["2*s", "0", "0"],
                     ["(0.5*s/(1+s))o(1*s^2)", "0", "0"]]}
    cfg = write_cfg(tmp_path, doc)
    assert main(["check", cfg]) == 1
    deciding = "falsification: witness (5.91011e-07, 1e-06, 0)"
    assert capsys.readouterr().out.splitlines()[-2:] == [deciding,
                                                         "verdict: CertifiedFails"]
    code = main([cmd, cfg, "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [deciding, "verdict: CertifiedFails"]
    assert not list(tmp_path.glob("out*"))


def test_check_fallback_prints_a_constructor_failure(monkeypatch, capsys):
    # routes that decide nothing leave the verdict to the path construction,
    # whose gate's proof of failure is printed as check prints a failing route
    monkeypatch.setattr(cli, "decide", lambda net, seed: SgcVerdict(
        status=INCONCLUSIVE, method="falsify",
        routes=(SgcVerdict(status=INCONCLUSIVE, method="falsify"),)))
    assert main(["check", str(DEMO_DIR / "max_pair_bad.json")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "falsification: no witness found",
        "Perron bound: 2 (CertifiedFails), witness (1, 1)",
        "verdict: CertifiedFails"]


def test_path_deterministic_bytes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, max_net(0.5, ext="1*s"))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["path", cfg, "--seed", "3", "--out", str(a)]) == 0
    assert main(["path", cfg, "--seed", "3", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# certify


def test_certify_linear_demo_bundle(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"model": LINEAR_MODEL})
    prefix = tmp_path / "cert"
    code = main(["certify", cfg, "--out", str(prefix)])
    out = capsys.readouterr().out
    assert code == 0
    assert "certificate margins" in out
    for suffix in (".path.csv", ".phi.csv", ".margins.csv"):
        assert (tmp_path / f"cert{suffix}").exists()
    phi_lines = (tmp_path / "cert.phi.csv").read_text().strip().split("\n")
    assert phi_lines[0] == "r,phi"
    margin_lines = (tmp_path / "cert.margins.csv").read_text().strip().split("\n")
    assert margin_lines[0] == "r,margin_1,margin_2,margin_min"
    assert all(float(line.split(",")[-1]) > 0 for line in margin_lines[1:])


def test_certify_notes_identity_budget(tmp_path, capsys):
    code = main(["certify", write_cfg(tmp_path, max_net(0.5))])
    out = capsys.readouterr().out
    assert code == 0
    assert "phi: identity" in out


def test_certify_restricted_input_range(tmp_path, capsys):
    # bounded internal gains keep the row images below 0.5, but half of
    # each row's path margin grows with the path: input 2 is covered, and
    # only an input past the budget map's last anchor value is not
    doc = {
        "n": 2,
        "gains": [["0", "0.5*s/(1+s)"], ["0.5*s/(1+s)", "0"]],
        "external_gains": ["1*s", "1*s"],
        "mu": ["sum", "sum"],
        "simulation": {"input": {"kind": "constant", "value": [2.0]}},
    }
    assert main(["certify", write_cfg(tmp_path, doc)]) == 0
    assert "input level 2 covered at threshold" in capsys.readouterr().out
    doc["simulation"]["input"]["value"] = [1e7]
    code = main(["certify", write_cfg(tmp_path, doc)])
    out = capsys.readouterr().out
    assert code == 1
    assert "OutOfRange: budget map is certified up to" in out
    assert "restricted input range" in out


def test_certify_sum_rows_without_shift(tmp_path, capsys):
    # rows that add the input on top take half of their path margin; no
    # diagonal shift is asked for
    doc = {"n": 2, "gains": [["0", "0.3*s"], ["0.3*s", "0"]],
           "external_gains": ["1*s", "1*s"], "mu": ["sum", "sum"]}
    code = main(["certify", write_cfg(tmp_path, doc)])
    out = capsys.readouterr().out
    assert code == 0
    assert "certificate margins: min" in out


def test_certify_reducible_block_max_sum(tmp_path, capsys):
    # the block-max-sum row's indices name whole-network columns; the
    # reducible route evaluates them on the block's own columns
    doc = {"n": 3,
           "gains": [["0", "0", "0"], ["0", "0", "0.4*s"], ["0.3*s", "0.4*s", "0"]],
           "external_gains": ["0", "0", "0"],
           "mu": ["sum", {"block_max_sum": [[2]]}, "sum"]}
    code = main(["certify", write_cfg(tmp_path, doc)])
    out = capsys.readouterr().out
    assert code == 0
    assert "certificate margins: min" in out


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_trajectory(tmp_path, capsys):
    doc = {"model": LINEAR_MODEL,
           "simulation": {"x0": [2.0, -1.0], "T": 1.0, "dt": 0.001,
                          "input": {"kind": "step", "value": [1.0]}}}
    out_csv = tmp_path / "traj.csv"
    code = main(["simulate", write_cfg(tmp_path, doc), "--out", str(out_csv)])
    assert code == 0
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "t,x_1,x_2,u_1,V"
    assert len(lines) == 1002
    first = [float(v) for v in lines[1].split(",")]
    assert first[1] == 2.0 and first[2] == -1.0


def test_simulate_requires_initial_state(tmp_path, capsys):
    code = main(["simulate", write_cfg(tmp_path, {"model": LINEAR_MODEL})])
    err = capsys.readouterr().err
    assert code == 2
    assert "/simulation/x0" in err


def test_simulate_divergence_exit(tmp_path, capsys):
    doc = {"model": {"family": "linear", "A": [[[1.0]]]},
           "simulation": {"x0": [1.0], "T": 40.0, "dt": 0.01}}
    code = main(["simulate", write_cfg(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 1
    assert "NotHurwitz" in captured.out or "Diverged" in captured.out


# ---------------------------------------------------------------------------
# verify


def verify_doc(T=12.0):
    return {"model": LINEAR_MODEL,
            "simulation": {"x0": [2.0, -1.0], "T": T, "dt": 0.002}}


@pytest.mark.parametrize("cmd", ["simulate", "verify"])
@pytest.mark.parametrize("key, value", [
    ("dt", 0.0), ("dt", -1.0), ("dt", float("nan")), ("dt", float("inf")),
    ("T", 0.0), ("T", 0.001), ("T", float("nan")), ("T", float("inf")),
])
def test_bad_step_or_horizon_rejected(cmd, key, value, tmp_path, capsys):
    # json reads NaN and Infinity; a horizon must cover one step of 0.002
    doc = verify_doc()
    doc["simulation"][key] = value
    code = main([cmd, write_cfg(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"config error: /simulation/{key}: ")


def test_verify_passes_on_healthy_certificate(tmp_path, capsys):
    code = main(["verify", write_cfg(tmp_path, verify_doc())])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("verdict=pass") == 2
    assert "verdict=fail" not in out


def test_verify_catches_corrupted_certificate(tmp_path, capsys, monkeypatch):
    # shrink the certificate's path and keep its budget map: the empirical
    # checks must catch the broken certificate
    real = cli.certify

    def corrupted(*args, **kwargs):
        cl = real(*args, **kwargs)
        return replace(cl, sigma=OmegaPath(cl.sigma.radii, cl.sigma.values * 0.01))

    monkeypatch.setattr(cli, "certify", corrupted)
    doc = verify_doc()
    doc["simulation"]["input"] = {"kind": "step", "value": [1.0]}
    code = main(["verify", write_cfg(tmp_path, doc)])
    out = capsys.readouterr().out
    assert code == 1
    assert "verdict=fail" in out


def test_driven_verify_integrates_once(tmp_path, capsys, monkeypatch):
    # the zero-input and the driven trajectory checks share one RK4 batch,
    # and their reports print in that order
    groups = []
    rk4 = simulate._rk4
    monkeypatch.setattr(simulate, "_rk4", lambda model, X, signals, *rest:
                        groups.append(len(signals)) or rk4(model, X, signals, *rest))
    doc = verify_doc(T=4.0)
    doc["simulation"]["input"] = {"kind": "step", "value": [1.0]}
    main(["verify", write_cfg(tmp_path, doc)])
    out = capsys.readouterr().out
    assert groups == [2]
    assert 0 < out.index("trajectory check (zero-input)") < out.index(
        "trajectory check (driven)")


def test_verify_input_past_certified_range(tmp_path, capsys):
    # the sum design's budget map is concave (phi(r) ~ sqrt(r)), so its last
    # chord overstates the budget past the last anchor: an input that large
    # is out of the certified range, not covered by an extrapolated threshold
    doc = json.loads((DEMO_DIR / "linear_two_block.json").read_text())
    doc["simulation"]["input"]["value"] = [1e9]
    cfg = write_cfg(tmp_path, doc)
    for cmd in ("verify", "certify"):
        code = main([cmd, cfg, "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("OutOfRange: budget map is certified up to ")
        assert "verdict=pass" not in out


def test_input_entering_no_gain_skips_the_driven_check(tmp_path, capsys, monkeypatch):
    # with B = 0 the certificate has no external gain, so its threshold is
    # 0 for every input: certify prints that threshold, and verify runs the
    # zero-input check alone, since the input cannot move the state
    groups = []
    rk4 = simulate._rk4
    monkeypatch.setattr(simulate, "_rk4", lambda model, X, signals, *rest:
                        groups.append(len(signals)) or rk4(model, X, signals, *rest))
    doc = json.loads((DEMO_DIR / "linear_two_block.json").read_text())
    doc["model"]["B"] = [[[0.0]], [[0.0]]]
    doc["simulation"]["dt"] = 0.05
    cfg = write_cfg(tmp_path, doc)
    assert main(["certify", cfg]) == 0
    out = capsys.readouterr().out
    assert "phi: identity (no external gains)\n" in out
    assert "input level 1 covered at threshold 0\n" in out
    assert main(["verify", cfg]) == 0
    out = capsys.readouterr().out
    assert groups == [1]
    assert out.count("verdict=pass") == 2
    assert "verdict=fail" not in out
    assert "input threshold" not in out
    assert out.endswith("trajectory check (driven) skipped: the input enters "
                        "no gain of the certificate\n")


# ---------------------------------------------------------------------------
# config errors


def test_malformed_gain_reports_pointer(tmp_path, capsys):
    doc = max_net(0.5)
    doc["gains"][0][1] = "0.5*"
    code = main(["check", write_cfg(tmp_path, doc)])
    err = capsys.readouterr().err
    assert code == 2
    assert "/gains/0/1" in err
    assert "position" in err


def test_nonzero_diagonal_rejected(tmp_path, capsys):
    doc = max_net(0.5)
    doc["gains"][1][1] = "1*s"
    code = main(["check", write_cfg(tmp_path, doc)])
    err = capsys.readouterr().err
    assert code == 2
    assert "/gains/1/1" in err


def test_aggregation_missing_active_slot_reported_at_its_row(tmp_path, capsys):
    # row 1's single block leaves out its active column 2
    doc = {"n": 3,
           "gains": [["0", "0", "0"], ["0.3*s", "0", "0.4*s"], ["0", "0", "0"]],
           "external_gains": ["0", "0", "0"],
           "mu": ["sum", {"block_max_sum": [[0]]}, "sum"]}
    code = main(["check", write_cfg(tmp_path, doc)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == ("config error: /mu/1: block-max-sum aggregation ignores "
                   "active gain slots [2]\n")


def test_nonzero_diagonal_message_and_pointer(tmp_path, capsys):
    doc = max_net(0.5)
    doc["gains"][0][0] = "0.1*s"
    assert main(["check", write_cfg(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == \
        "config error: /gains/0/0: diagonal gains must be 0\n"


def _first_config_error(tmp_path, capsys, doc):
    assert main(["check", write_cfg(tmp_path, doc)]) == 2
    return capsys.readouterr().err


def test_config_with_two_errors_reports_the_first(tmp_path, capsys):
    # the diagonal is checked before external gains and mu parse
    doc = max_net(0.5, ext="0.5*")
    doc["gains"][1][1] = "0.1*s"
    doc["mu"][0] = "median"
    assert _first_config_error(tmp_path, capsys, doc) == \
        "config error: /gains/1/1: diagonal gains must be 0\n"
    # a nonzero diagonal comes before an earlier row's aggregation audit
    doc = max_net(0.5)
    doc["gains"][1][1] = "0.1*s"
    doc["mu"][0] = {"block_max_sum": [[0]]}
    assert _first_config_error(tmp_path, capsys, doc) == \
        "config error: /gains/1/1: diagonal gains must be 0\n"
    # every mu entry parses before the aggregations are audited, so a later
    # row's bad entry comes before an earlier row's missing active slot
    doc = max_net(0.5)
    doc["mu"] = [{"block_max_sum": [[0]]}, "median"]
    err = _first_config_error(tmp_path, capsys, doc)
    assert err.startswith("config error: /mu/1: aggregation must be")


def test_unknown_mu_tag_rejected(tmp_path, capsys):
    doc = max_net(0.5)
    doc["mu"][0] = "median"
    code = main(["check", write_cfg(tmp_path, doc)])
    err = capsys.readouterr().err
    assert code == 2
    assert "/mu/0" in err


def test_invalid_json_rejected(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code = main(["check", str(p)])
    err = capsys.readouterr().err
    assert code == 2
    assert "invalid JSON" in err


def test_unknown_model_family_rejected(tmp_path, capsys):
    code = main(["check", write_cfg(tmp_path, {"model": {"family": "affine"}})])
    err = capsys.readouterr().err
    assert code == 2
    assert "/model/family" in err


# ---------------------------------------------------------------------------
# config loading: one parse per distinct gain text

PALETTE = ("0.4*s^1.3", "0.3*s", "0.2*sqrt(s)", "0.5*s/(1+s)", "max(0.1*s,0.2*s^2)",
           "(0.3*s)o(1*s^0.8)", "id+(0.1*s)")


def sparse_doc(rng, n):
    """A large sparse network: mostly the zero gain, a few repeated texts."""
    gains = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in rng.choice([j for j in range(n) if j != i], size=2, replace=False):
            gains[i][j] = PALETTE[rng.integers(len(PALETTE))]
    mu = []
    for i in range(n):
        tag = ("sum", "max", "outer")[rng.integers(3)]
        if tag == "outer":
            rho = ("1*s^2", "0.3*s", "id+(0.1*s)")[rng.integers(3)]
            tag = ({"outer_sum": rho} if rng.random() < 0.5 else
                   {"outer_sum": {"rho": rho, "external_in_sum": False}})
        mu.append(tag)
    ext = [("0", "0.3*s", "1*s")[rng.integers(3)] for _ in range(n)]
    return {"n": n, "gains": gains, "external_gains": ext, "mu": mu}


def doc_texts(doc):
    texts = [t for row in doc["gains"] for t in row] + list(doc["external_gains"])
    for tag in doc["mu"]:
        if isinstance(tag, dict):
            spec = tag["outer_sum"]
            texts.append(spec if isinstance(spec, str) else spec["rho"])
    return texts


def test_load_parses_each_distinct_text_once(tmp_path, monkeypatch):
    calls = []
    parse = cli.parse_gain

    def counted(text):
        calls.append(text)
        return parse(text)

    monkeypatch.setattr(cli, "parse_gain", counted)
    rng = np.random.default_rng(14)
    for n in (8, 10, 12):
        doc = sparse_doc(rng, n)
        calls.clear()
        net = load_config(write_cfg(tmp_path, doc)).net
        texts = doc_texts(doc)
        assert sorted(calls) == sorted(set(texts))
        entries = [g for row in net.gamma for g in row] + list(net.gamma_u)
        entries += [m.rho for m in net.mu if isinstance(m, OuterSum)]
        assert len(entries) == len(texts)
        first = {}
        for text, expr in zip(texts, entries):
            assert expr is first.setdefault(text, expr)
    # a second load parses again: nothing is kept between calls
    calls.clear()
    load_config(write_cfg(tmp_path, doc))
    assert sorted(calls) == sorted(set(texts))


def test_repeated_bad_text_reported_at_first_occurrence(tmp_path, capsys):
    doc = max_net(0.5)
    doc["gains"][0][1] = doc["gains"][1][0] = "0.5*"
    code = main(["check", write_cfg(tmp_path, doc)])
    err = capsys.readouterr().err
    assert code == 2
    assert "/gains/0/1" in err and "/gains/1/0" not in err


@pytest.mark.parametrize("bad", [["0.5*s"], None, 0.5, {"g": "0.5*s"}])
def test_non_string_gain_reported_at_its_pointer(bad, tmp_path):
    doc = sparse_doc(np.random.default_rng(3), 4)
    doc["gains"][2][3] = bad
    with pytest.raises(ConfigError) as exc:
        load_config(write_cfg(tmp_path, doc))
    assert exc.value.pointer == "/gains/2/3"
    doc["gains"][2][3] = "0.5*s"
    doc["external_gains"][1] = bad
    with pytest.raises(ConfigError) as exc:
        load_config(write_cfg(tmp_path, doc))
    assert exc.value.pointer == "/external_gains/1"


def entrywise_mu(tag):
    if isinstance(tag, str):
        return SumAgg() if tag == "sum" else MaxAgg()
    spec = tag["outer_sum"]
    if isinstance(spec, str):
        return OuterSum(parse_gain(spec))
    return OuterSum(parse_gain(spec["rho"]), external_in_sum=spec["external_in_sum"])


def entrywise_net(doc):
    """Reference: every entry parsed on its own, as one ``parse_gain`` call."""
    n = doc["n"]
    return GainNetwork(
        n,
        tuple(tuple(parse_gain(doc["gains"][i][j]) for j in range(n))
              for i in range(n)),
        tuple(parse_gain(t) for t in doc["external_gains"]),
        tuple(entrywise_mu(tag) for tag in doc["mu"]))


def generated_docs():
    rng = np.random.default_rng(2010)
    for _ in range(20):
        net, _ = random_network(rng, nmax=6)
        yield {"n": net.n,
               "gains": [[format_gain(g) for g in row] for row in net.gamma],
               "external_gains": [format_gain(g) for g in net.gamma_u],
               "mu": ["sum" if isinstance(m, SumAgg) else "max" for m in net.mu]}
    for n in range(3, 14):
        yield sparse_doc(rng, n)


def test_loaded_network_equals_entrywise_parse(tmp_path):
    docs = [json.loads(p.read_text()) for p in sorted(DEMO_DIR.glob("*.json"))]
    docs = [d for d in docs if "gains" in d]
    assert len(docs) >= 4
    for doc in docs + list(generated_docs()):
        net = load_config(write_cfg(tmp_path, doc)).net
        assert net == entrywise_net(doc)


# ---------------------------------------------------------------------------
# shipped demo configs stay loadable


@pytest.mark.parametrize("name", sorted(p.name for p in DEMO_DIR.glob("*.json")))
def test_demo_configs_check(name, capsys):
    code = main(["check", str(DEMO_DIR / name)])
    capsys.readouterr()
    assert code in (0, 1)


def test_parser_built_once_with_independent_namespaces(tmp_path, capsys, monkeypatch):
    seen = []
    for cmd in ("check", "path"):
        monkeypatch.setitem(cli._DISPATCH, cmd, lambda cfg, args: seen.append(args) or 0)
    cfg = write_cfg(tmp_path, max_net(0.5))
    cli._build_parser.cache_clear()
    assert main(["path", cfg, "--seed", "5", "--out", "x.csv"]) == 0
    assert main(["check", cfg]) == 0
    first, second = seen
    assert (first.cmd, first.seed, first.out) == ("path", 5, "x.csv")
    assert (second.cmd, second.seed) == ("check", 0)
    assert not hasattr(second, "out")
    # the path range and the test hook are not settable
    for bad in (["check"], ["bogus", cfg], ["check", cfg, "--seed", "x"],
                ["path", cfg, "--rmax", "10"], ["verify", cfg, "--scale-sigma", "0.01"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
    assert main(["check", cfg]) == 0
    assert seen[-1].seed == 0 and len(seen) == 3
    capsys.readouterr()
    assert cli._build_parser.cache_info().misses == 1


# ---------------------------------------------------------------------------
# path routes chosen from the network's structure


DEMO_ROUTES = {
    "bounded_pair": "bounded",
    "linear_two_block": "ray",
    "max_pair": "ray",
    "max_pair_bad": None,  # refuted by the Perron bound, no path
    "neural_pair": "majorant",
    "three_sum": "ray",
}


def test_demo_config_routes():
    assert sorted(DEMO_ROUTES) == sorted(p.stem for p in DEMO_DIR.glob("*.json"))
    for name, route in DEMO_ROUTES.items():
        net = load_config(DEMO_DIR / f"{name}.json").effective_net
        if route is None:
            with pytest.raises(SgcFails, match=r"Perron bound: 2 \(CertifiedFails\)"):
                construct_path(net)
        else:
            assert construct_path(net).route == route, name


def sum_net(gains):
    n = len(gains)
    return {"n": n, "gains": gains, "external_gains": ["0"] * n, "mu": ["sum"] * n}


# linear sum networks that hold (spectral radius 0.41 and 0.47) with rows
# summing past one, where chaining up along the ones direction stalls
ROW_SUM_NETS = {
    "irreducible_row_sum": sum_net(
        [["0", "0.14*s", "0"], ["0.38*s", "0", "0.16*s"],
         ["0.58*s", "0.54*s", "0"]]),
    "reducible_row_sum": sum_net(
        [["0", "0.45*s", "0", "0", "0"], ["0.46*s", "0", "0", "0", "0"],
         ["0", "0.35*s", "0", "0.4*s", "0.69*s"], ["0", "0", "0", "0", "0.22*s"],
         ["0.56*s", "0", "0.25*s", "0", "0"]]),
}


@pytest.mark.parametrize("name", sorted(ROW_SUM_NETS))
def test_certify_linear_sum_with_large_row_sums(name, tmp_path, capsys):
    cfg = write_cfg(tmp_path, ROW_SUM_NETS[name])
    assert main(["certify", cfg]) == 0
    assert "certificate margins: min" in capsys.readouterr().out
    net = load_config(cfg).effective_net
    res = construct_path(net)
    assert res.route == "ray"
    assert validate_path(net, res.sigma).valid


def test_certify_badly_scaled_linear_sum(tmp_path, capsys):
    # spectral radius 0.5 with gains eleven decades apart: the Neumann
    # vector reads a bound of 1 - 7.5e-11, an inverse-iteration step 0.625
    cfg = write_cfg(tmp_path, sum_net([["0", "1e10*s"], ["2.5e-11*s", "0"]]))
    assert main(["certify", cfg]) == 0
    assert "certificate margins: min" in capsys.readouterr().out
    net = load_config(cfg).effective_net
    res = construct_path(net)
    assert res.route == "ray"
    assert validate_path(net, res.sigma).valid


def test_certify_badly_scaled_max_rows(tmp_path, capsys):
    # the same gains on max rows: the Perron bound of w = 1 + T(w) reads 1,
    # so the ray stalls and the closure path of the max route takes it
    cfg = write_cfg(tmp_path, {**max_net(0.5),
                               "gains": [["0", "1e10*s"], ["2.5e-11*s", "0"]]})
    assert main(["certify", cfg]) == 0
    assert "certificate margins: min" in capsys.readouterr().out
    net = load_config(cfg).effective_net
    res = construct_path(net)
    assert res.route == "max"
    assert validate_path(net, res.sigma).valid


def test_path_and_certify_share_the_linear_model_path(tmp_path, capsys):
    cfg = str(DEMO_DIR / "linear_two_block.json")
    assert main(["path", cfg, "--out", str(tmp_path / "path.csv")]) == 0
    assert main(["certify", cfg, "--out", str(tmp_path / "bundle")]) == 0
    capsys.readouterr()
    path_csv = (tmp_path / "path.csv").read_bytes()
    assert path_csv == (tmp_path / "bundle.path.csv").read_bytes()


def percent_csv(header, table):
    """The CSV text of ``header`` and ``table`` by ``%`` on each cell."""
    return "\n".join([",".join(header)] + [",".join("%.12g" % x for x in row)
                                           for row in np.asarray(table).tolist()]) + "\n"


def test_certify_bundle_twice_matches_the_cell_format(tmp_path, monkeypatch, capsys):
    # the second run reads the radius grid's cells from the first column's
    # cache; every file equals the % text of the table it was written from
    written = []

    def spy(out, header, table):
        written.append((out, percent_csv(header, table)))
        write_csv(out, header, table)

    monkeypatch.setattr(paths, "write_csv", spy)
    monkeypatch.setattr(cli, "write_csv", spy)
    hits = paths._first_column.cache_info().hits
    for run in range(2):
        prefix = str(tmp_path / f"bundle{run}")
        assert main(["certify", str(DEMO_DIR / "max_pair.json"), "--out", prefix]) == 0
    capsys.readouterr()
    assert [pathlib.Path(out).name for out, _ in written] == [
        f"bundle{run}.{kind}.csv" for run in range(2) for kind in ("path", "phi", "margins")]
    assert paths._first_column.cache_info().hits >= hits + 5
    for out, ref in written:
        assert pathlib.Path(out).read_text() == ref


@pytest.mark.parametrize("width", [1, 3, 7, 2049])
def test_write_csv_partial_last_block(width, tmp_path):
    # 1000 rows: one block of 2048 // width rows leaves a partial last one
    rows = 1000 if width < 100 else 3
    rng = np.random.default_rng(width)
    table = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-8, 8, (rows, width))
    header = [f"c{i}" for i in range(width)]
    write_csv(tmp_path / "t.csv", header, table)
    assert (tmp_path / "t.csv").read_text() == percent_csv(header, table)


@pytest.mark.parametrize("doc", [ROW_SUM_NETS["irreducible_row_sum"], max_net(0.5),
                                 {"model": LINEAR_MODEL}])
def test_homogeneous_key_is_ignored(doc, tmp_path, capsys):
    plain = write_cfg(tmp_path, doc, "plain.json")
    flagged = write_cfg(tmp_path, {**doc, "homogeneous": True}, "flagged.json")
    for cmd in ("check", "certify"):
        runs = [(main([cmd, cfg]), capsys.readouterr().out) for cfg in (plain, flagged)]
        assert runs[0] == runs[1]


# holding networks where seed-and-chain stalled, with the route that builds
# each path: the ray where the network is homogeneous after a per-node power
# change, the closure path of the max route where a bent gain keeps it off
BEND = "(0.9*s+0.1*s/(1+s))"
STALLED_NETS = {
    # cycle gain 0.4*sqrt(0.5*0.3)*s < s on sum rows, p = (1, 2, 2)
    "sqrt_cycle_sum": (sum_net([["0", "0.4*sqrt(s)", "0"], ["0", "0", "0.5*s"],
                                ["0.3*s^2", "0", "0"]]), "ray"),
    # max rows, cycle mean 0.46 in t_i = s_i^(1/p_i)
    "max_mixed_exponents": ({**max_net(0.5),
                             "gains": [["0", "0.5*s^2"], ["0.3*sqrt(s)", "0"]]}, "ray"),
    "max_mixed_exponents_bent": ({**max_net(0.5),
                                  "gains": [["0", f"(0.5*s^2)o{BEND}"],
                                            ["0.3*sqrt(s)", "0"]]}, "max"),
    # max rows, cycle mean 0.23 with one slope above one
    "max_large_slope": ({"n": 3, "gains": [["0", "0", "0.14*s"], ["0.07*s", "0", "0"],
                                           ["0", "1.2*s", "0"]],
                         "external_gains": ["0"] * 3, "mu": ["max"] * 3}, "ray"),
    "max_large_slope_bent": ({"n": 3, "gains": [["0", "0", "0.14*s"],
                                                [f"(0.07*s)o{BEND}", "0", "0"],
                                                ["0", "1.2*s", "0"]],
                              "external_gains": ["0"] * 3, "mu": ["max"] * 3}, "max"),
}


@pytest.mark.parametrize("name", sorted(STALLED_NETS))
def test_stalled_reproducers_check_and_certify(name, tmp_path, capsys):
    doc, route = STALLED_NETS[name]
    cfg = write_cfg(tmp_path, doc)
    assert main(["check", cfg]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "verdict: CertifiedHolds"
    assert any(line.startswith("Perron bound: ") for line in out) == (route == "ray")
    assert main(["certify", cfg, "--out", str(tmp_path / "bundle")]) == 0
    assert "certificate margins: min" in capsys.readouterr().out
    assert construct_path(load_config(cfg).effective_net).route == route


# reducible networks whose fed blocks have bounded inflow: the flat
# reparametrization drifts by less than one ulp at small radii
FLAT_DRIFT = {
    "A": {"n": 3, "gains": [
        ["0", "1.922901*s/(1+s)", "0"],
        ["max(id+(0.339215*sqrt(s))+1.839944*s^2.9151,4*atan(s),1*sqrt(s))", "0", "0"],
        ["(2.377675*s/(1+s))o((max(0.705445*sqrt(s),3.276994*s/(1+s)))o(1.64192*atan(s)))",
         "(max(0.450107*atan(s)+4*atan(s),0+0.810354*atan(s),0+0))o(2.119937*s)", "0"]],
        "external_gains": ["0", "0", "(id+(3.136516*sqrt(s)))o(0.691126*atan(s))"],
        "mu": ["sum", "sum", "max"]},
    "B": {"n": 4, "gains": [
        ["0", "0", "0", "(3.805413*atan(s))o((max(1.351824*s,1.054784*sqrt(s),"
         "1.842265*s^2.0409))o(5*s+1.354862*sqrt(s)))"],
        ["0", "0", "0", "(3.518826*atan(s))o((0)o(max(5*s/(1+s),4*s)))"],
        ["0", "0", "0", "0"],
        ["0", "0", "max(id+(2.312424*s+1*s/(1+s)+2*atan(s)),id+(3.47439*sqrt(s))"
         "+max(2*atan(s),1.809398*s^1.7338))", "0"]],
        "external_gains": ["0", "0", "0", "0"], "mu": ["sum", "sum", "max", "sum"]},
}


@pytest.mark.parametrize("name", sorted(FLAT_DRIFT))
def test_flat_reparametrization_is_lifted_not_raised(name, tmp_path, capsys):
    # each flat anchor is lifted one ulp above the one before, and the
    # validation decides: every command returns an exit code
    cfg = write_cfg(tmp_path, FLAT_DRIFT[name])
    codes = [main(["check", cfg]),
             main(["path", cfg, "--out", str(tmp_path / "p.csv")]),
             main(["certify", cfg, "--out", str(tmp_path / "bundle")])]
    assert "Traceback" not in capsys.readouterr().out
    # A fails by a re-checked witness near zero: the gate of construct_path
    # refutes it for path and certify as check does
    assert codes == ([1, 1, 1] if name == "A" else [0, 0, 0])
