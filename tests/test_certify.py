"""The one certificate builder, ``compose.certify``, and the commands on it."""

import importlib
import json
import pathlib

import numpy as np
import pytest

from smallgain import cli, paths
from smallgain.cli import load_config, main
from smallgain.compose import PLFunction, certify, compose
from smallgain.errors import GeneralCondFails, SmallGainError
from smallgain.paths import (
    RADIUS_MAX,
    VALIDATION_GRID,
    construct_path,
    path_margins,
)

# the package's ``compose`` name is the function; this is its module
compose_mod = importlib.import_module("smallgain.compose")
ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMO_DIR = ROOT / "demos" / "configs"


def benchmark_docs(monkeypatch):
    """Demo configs, four rounds of certify-mix (the fourth fails) and two
    of verify-models, seed 0."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    docs = {p.stem: json.loads(p.read_text()) for p in sorted(DEMO_DIR.glob("*.json"))}
    for make, rounds in ((workloads.certify_mix, 4), (workloads.verify_models, 2)):
        for job in make(0, ROOT, rounds=rounds):
            if job.stratum != "known":
                docs[job.name] = job.doc
    return docs


def certify_args(cfg):
    """What ``certify`` takes for a loaded config, as the commands pick it."""
    if cfg.design is None:
        return cfg.effective_net, ()
    return cfg.design.net, cfg.design.specs


def test_certify_equals_path_then_compose(tmp_path, monkeypatch):
    built = failed = models = 0
    for name, doc in benchmark_docs(monkeypatch).items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        net, specs = certify_args(load_config(path))
        try:
            res = construct_path(net, seed=0)
            ref = compose(net, res.sigma, specs)
        except SmallGainError as exc:
            with pytest.raises(type(exc)) as got:
                certify(net, specs)
            assert str(got.value) == str(exc), name
            failed += 1
            continue
        cl = certify(net, specs)
        assert cl.route == res.route, name
        assert cl.subsystems == tuple(specs), name
        for a, b in ((cl.sigma.radii, ref.sigma.radii),
                     (cl.sigma.values, ref.sigma.values),
                     (cl.phi.radii, ref.phi.radii), (cl.phi.values, ref.phi.values),
                     (cl.margins, ref.margins)):
            assert a.tobytes() == b.tobytes(), name
        margins = path_margins(net, cl.sigma, VALIDATION_GRID, cl.phi)[1]
        assert cl.margins.tobytes() == margins.tobytes(), name
        assert cl.margins.min() > 0.0, name
        built += 1
        models += bool(specs)
    assert built >= 30 and failed >= 8 and models >= 8


def test_certify_without_subsystems_has_no_energies():
    doc = json.loads((DEMO_DIR / "max_pair.json").read_text())
    net = cli._load_network(doc)
    cl = certify(net)
    assert cl.subsystems == () and cl.state_dim == 0
    assert cl.route == "ray" and cl.margins.shape == (len(VALIDATION_GRID), 2)


def identity_budget(net, sigma):
    return PLFunction(np.array([0.0, RADIUS_MAX]), np.array([0.0, RADIUS_MAX]))


def test_certificate_failure_reports_margin_and_radius(monkeypatch):
    # the identity budget lets the input fill each row past its path margin
    doc = {"n": 2, "gains": [["0", "0.5*s"], ["0.5*s", "0"]],
           "external_gains": ["1*s", "1*s"], "mu": ["sum", "sum"]}
    net = cli._load_network(doc)
    sigma = construct_path(net).sigma
    monkeypatch.setattr(compose_mod, "derive_phi", identity_budget)
    with pytest.raises(GeneralCondFails) as exc:
        compose(net, sigma)
    assert str(exc.value).startswith("margin -")
    assert str(exc.value).endswith(f" at radius {exc.value.radius:.6g}")


@pytest.mark.parametrize("out", [False, True])
def test_model_certify_evaluates_validation_margins_once(out, tmp_path, capsys,
                                                         monkeypatch):
    grid = VALIDATION_GRID
    calls = []

    def counting(real):
        def wrapper(net, sigma, radii, phi=None):
            if phi is not None and np.array_equal(np.asarray(radii), grid):
                calls.append(1)
            return real(net, sigma, radii, phi)
        return wrapper

    for mod in (compose_mod, paths, cli):
        if hasattr(mod, "path_margins"):
            monkeypatch.setattr(mod, "path_margins", counting(mod.path_margins))
    argv = ["certify", str(DEMO_DIR / "neural_pair.json")]
    if out:
        argv += ["--out", str(tmp_path / "bundle")]
    assert main(argv) == 0
    assert "certificate margins: min" in capsys.readouterr().out
    assert len(calls) == 1


def test_config_alpha_rejected(tmp_path, capsys):
    # the budget map keeps half of each row's path margin: a config that
    # still sets a diagonal shift would silently get another budget
    doc = json.loads((DEMO_DIR / "neural_pair.json").read_text())
    doc["alpha"] = "0.02*s"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    for cmd in ("check", "certify", "simulate", "verify"):
        assert main([cmd, str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("config error: /alpha: "), cmd
