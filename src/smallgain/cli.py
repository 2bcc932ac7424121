"""Command line front end.

Configs are JSON documents holding one network: either the declarative
network sections (``n``, ``gains``, ``external_gains``, ``mu``), which
describe a gain network with expressions in the textual gain grammar, or
``model``, which instantiates one of the built-in dynamic families whose
gain design supplies the network and the subsystem energies; a config
with both is rejected.  ``simulation`` holds the initial state, input
signal, horizon, and step size.  Indices inside configs are zero-based
(they address JSON array positions); report output numbers subsystems
from one.

Exit codes: 0 when the requested analysis certifies (or an inconclusive
check is backed by a successful path construction), 1 when it fails or a
constructor rejects the network, 2 on config errors, which are reported on
stderr with JSON-pointer paths.  ``check``, ``path`` and ``certify`` pass
one gate, :func:`sgc.decide`: a network it refutes exits 1 from each of
them with the line of the route that proved the failure, with its witness
or cycle, then ``verdict: CertifiedFails``; ``path`` and ``certify`` build
nothing for it.  Any other rejection prints the error name and message.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass

import numpy as np

from .compose import CompositeLyapunov, certify
from .errors import (
    CompatibilityError,
    ConfigError,
    OutOfRange,
    ParseError,
    RejectedNotClassK,
    SgcFails,
    SmallGainError,
)
from .gains import (
    BlockMaxSum,
    GainNetwork,
    MaxAgg,
    OuterSum,
    SumAgg,
)
from .parser import parse_gain
from .paths import (
    VALIDATION_GRID,
    construct_path,
    export_path_csv,
    validate_path,
    write_csv,
)
from .sgc import CERTIFIED_FAILS, decide, route_line
from .simulate import (
    CohenGrossberg,
    InputSignal,
    LinearBlock,
    cg_gains,
    check_decrease,
    check_iss_bounds,
    DecreaseSpec,
    IssRunSpec,
    export_trajectory_csv,
    integrate,
    linear_gains,
)

# ---------------------------------------------------------------------------
# Config loading


@dataclass
class LoadedConfig:
    """A loaded config.  ``net`` is its one network, from the declarative
    sections or from the model's gain design; it is ``None`` when the
    design failed (``design_error``) or the config gives neither."""

    net: GainNetwork | None
    model: object | None
    design: object | None
    design_error: SmallGainError | None
    x0: np.ndarray | None
    signal: InputSignal | None
    T: float
    dt: float

    @property
    def effective_net(self) -> GainNetwork:
        """``net``, or the reason the config has none."""
        if self.net is not None:
            return self.net
        if self.design_error is not None:
            raise self.design_error
        raise ConfigError(
            "either the declarative network sections or a model are required",
            pointer="/gains")


def _want(obj, key, kind, pointer, required=True, default=None):
    if key not in obj:
        if required:
            raise ConfigError(f"missing required key {key!r}", pointer=pointer)
        return default
    val = obj[key]
    if kind is float and isinstance(val, (int, float)) and not isinstance(val, bool):
        return float(val)
    if kind is int and isinstance(val, int) and not isinstance(val, bool):
        return val
    if not isinstance(val, kind) or isinstance(val, bool) and kind is not bool:
        raise ConfigError(f"{key!r} must be a {kind.__name__}",
                          pointer=f"{pointer}/{key}")
    return val


def _parse_gain_at(text, pointer):
    if not isinstance(text, str):
        raise ConfigError("gain expressions are grammar strings", pointer=pointer)
    try:
        return parse_gain(text)
    except (ParseError, RejectedNotClassK) as exc:
        raise ConfigError(str(exc), pointer=pointer)


def _parse_mu_entry(tag, pointer, gain_at):
    if tag == "sum":
        return SumAgg()
    if tag == "max":
        return MaxAgg()
    if isinstance(tag, dict) and set(tag) == {"outer_sum"}:
        spec = tag["outer_sum"]
        if isinstance(spec, str):
            return OuterSum(gain_at(spec, pointer + "/outer_sum"),
                            external_in_sum=True)
        if isinstance(spec, dict) and set(spec) <= {"rho", "external_in_sum"}:
            rho = gain_at(spec.get("rho"), pointer + "/outer_sum/rho")
            ext_in = spec.get("external_in_sum", True)
            if not isinstance(ext_in, bool):
                raise ConfigError("external_in_sum must be a boolean",
                                  pointer=pointer + "/outer_sum/external_in_sum")
            return OuterSum(rho, external_in_sum=ext_in)
        raise ConfigError("outer_sum takes a gain string or {rho, external_in_sum}",
                          pointer=pointer + "/outer_sum")
    if isinstance(tag, dict) and set(tag) == {"block_max_sum"}:
        blocks = tag["block_max_sum"]
        if (not isinstance(blocks, list)
                or not all(isinstance(b, list) for b in blocks)
                or not all(isinstance(i, int) and not isinstance(i, bool)
                           for b in blocks for i in b)):
            raise ConfigError("block_max_sum is a list of index lists",
                              pointer=pointer + "/block_max_sum")
        return BlockMaxSum(tuple(tuple(b) for b in blocks))
    raise ConfigError(
        'aggregation must be "sum", "max", {"outer_sum": ...} or '
        '{"block_max_sum": ...}', pointer=pointer)


def _load_network(doc) -> GainNetwork:
    """Build the declarative network of a config document.

    Each distinct gain text of ``gains``, ``external_gains`` and the
    ``outer_sum`` rho maps of ``mu`` is parsed once per call; entries that
    repeat a text share its (frozen) tree.  A bad text is reported at its
    first row-major occurrence, a non-string entry at its own pointer.
    The diagonal is checked before ``external_gains`` and ``mu`` parse;
    :class:`GainNetwork` audits each row's aggregation.
    """
    parsed = {}

    def gain_at(text, pointer):
        # only strings are looked up: a list or null must not be hashed
        if not (isinstance(text, str) and text in parsed):
            parsed[text] = _parse_gain_at(text, pointer)
        return parsed[text]

    n = _want(doc, "n", int, "")
    if n < 1:
        raise ConfigError("n must be at least 1", pointer="/n")
    gains = _want(doc, "gains", list, "")
    ext = _want(doc, "external_gains", list, "")
    mu_tags = _want(doc, "mu", list, "")
    if len(gains) != n or any(not isinstance(row, list) or len(row) != n
                              for row in gains):
        raise ConfigError(f"gains must be a {n} by {n} array of strings",
                          pointer="/gains")
    if len(ext) != n:
        raise ConfigError(f"external_gains must list {n} entries",
                          pointer="/external_gains")
    if len(mu_tags) != n:
        raise ConfigError(f"mu must list {n} entries", pointer="/mu")
    gamma = tuple(
        tuple(gain_at(gains[i][j], f"/gains/{i}/{j}") for j in range(n))
        for i in range(n))
    for i in range(n):
        if not gamma[i][i].is_zero:
            raise ConfigError("diagonal gains must be 0", pointer=f"/gains/{i}/{i}")
    gamma_u = tuple(gain_at(ext[i], f"/external_gains/{i}")
                    for i in range(n))
    mu = tuple(_parse_mu_entry(mu_tags[i], f"/mu/{i}", gain_at)
               for i in range(n))
    try:
        return GainNetwork(n, gamma, gamma_u, mu)
    except CompatibilityError as exc:
        # the diagonal is checked above: this is a row's aggregation audit
        raise ConfigError(str(exc.__cause__), pointer=f"/mu/{exc.row}")


def _matrix(val, pointer):
    try:
        arr = np.array(val, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError("expected a numeric matrix", pointer=pointer)
    if arr.ndim > 2:
        raise ConfigError("expected a numeric matrix", pointer=pointer)
    return np.atleast_2d(arr)


def _load_model(doc):
    family = _want(doc, "family", str, "/model")
    if family == "linear":
        A_raw = _want(doc, "A", list, "/model")
        A = tuple(_matrix(a, f"/model/A/{i}") for i, a in enumerate(A_raw))
        delta = {}
        for k, entry in enumerate(doc.get("coupling", [])):
            if not isinstance(entry, dict):
                raise ConfigError("coupling entries are {i, j, matrix} objects",
                                  pointer=f"/model/coupling/{k}")
            i = _want(entry, "i", int, f"/model/coupling/{k}")
            j = _want(entry, "j", int, f"/model/coupling/{k}")
            delta[(i, j)] = _matrix(entry.get("matrix"),
                                    f"/model/coupling/{k}/matrix")
        B_raw = doc.get("B")
        if B_raw is None:
            B = tuple(None for _ in A)
        else:
            if not isinstance(B_raw, list) or len(B_raw) != len(A):
                raise ConfigError("B must list one matrix or null per block",
                                  pointer="/model/B")
            B = tuple(None if b is None else _matrix(b, f"/model/B/{i}")
                      for i, b in enumerate(B_raw))
        Q_raw = doc.get("Q")
        if Q_raw is None:
            Q = [np.eye(a.shape[0]) for a in A]
        else:
            if not isinstance(Q_raw, list) or len(Q_raw) != len(A):
                raise ConfigError("Q must list one weight matrix per block",
                                  pointer="/model/Q")
            Q = [_matrix(q, f"/model/Q/{i}") for i, q in enumerate(Q_raw)]
        eps = _want(doc, "epsilon", float, "/model", required=False, default=0.5)
        try:
            model = LinearBlock(A=A, delta=delta, B=B)
        except SmallGainError as exc:
            raise ConfigError(f"{type(exc).__name__}: {exc}", pointer="/model")
        # a failing gain design (e.g. a non-Hurwitz block) is a runtime
        # verdict, not a config defect: simulate still runs uncertified
        try:
            return model, linear_gains(model, Q, eps), None
        except SmallGainError as exc:
            return model, None, exc
    if family == "cohen_grossberg":
        kw = {}
        for key in ("alpha_lo", "alpha_hi", "b_slope", "t_matrix", "act_scale"):
            kw[key] = _want(doc, key, list, "/model")
        eps = _want(doc, "epsilon", float, "/model", required=False, default=0.5)
        rho_slope = _want(doc, "rho_slope", float, "/model", required=False,
                          default=1.0)
        bt = _want(doc, "bt", float, "/model", required=False, default=1.0)
        try:
            model = CohenGrossberg(**kw)
        except (SmallGainError, TypeError, ValueError) as exc:
            raise ConfigError(f"{exc}", pointer="/model")
        try:
            return model, cg_gains(model, epsilon=eps, rho_slope=rho_slope,
                                   bt=bt), None
        except SmallGainError as exc:
            return model, None, exc
    raise ConfigError(f"unknown model family {family!r}", pointer="/model/family")


def _load_signal(doc):
    kind = _want(doc, "kind", str, "/simulation/input")
    try:
        if kind == "constant":
            return InputSignal.constant(_want(doc, "value", list,
                                              "/simulation/input"))
        if kind == "step":
            return InputSignal.step(
                _want(doc, "value", list, "/simulation/input"),
                at=_want(doc, "at", float, "/simulation/input",
                         required=False, default=0.0))
        if kind == "sinusoid":
            return InputSignal.sinusoid(
                _want(doc, "value", list, "/simulation/input"),
                omega=_want(doc, "omega", float, "/simulation/input"),
                phase=_want(doc, "phase", float, "/simulation/input",
                            required=False, default=0.0))
        if kind == "piecewise":
            return InputSignal.piecewise(
                _want(doc, "times", list, "/simulation/input"),
                _want(doc, "levels", list, "/simulation/input"))
    except ValueError as exc:
        raise ConfigError(str(exc), pointer="/simulation/input")
    raise ConfigError(f"unknown input kind {kind!r}",
                      pointer="/simulation/input/kind")


def load_config(path) -> LoadedConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", pointer="")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}", pointer="")
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object", pointer="")
    if "alpha" in doc:
        raise ConfigError("there is no diagonal shift to set: the budget map "
                          "keeps half of each row's path margin", pointer="/alpha")
    net = None
    if any(k in doc for k in ("n", "gains", "external_gains", "mu")):
        if "model" in doc:
            raise ConfigError("a config holds either the declarative network "
                              "sections or a model, not both", pointer="/model")
        net = _load_network(doc)
    model = design = design_error = None
    if "model" in doc:
        mdoc = doc["model"]
        if not isinstance(mdoc, dict):
            raise ConfigError("model must be an object", pointer="/model")
        model, design, design_error = _load_model(mdoc)
        if design is not None:
            net = design.net
    x0 = None
    signal = None
    T, dt = 20.0, 1e-3
    if "simulation" in doc:
        sdoc = doc["simulation"]
        if not isinstance(sdoc, dict):
            raise ConfigError("simulation must be an object", pointer="/simulation")
        T = _want(sdoc, "T", float, "/simulation", required=False, default=20.0)
        dt = _want(sdoc, "dt", float, "/simulation", required=False, default=1e-3)
        # json reads NaN and Infinity, so finiteness is checked too
        if not (np.isfinite(dt) and dt > 0):
            raise ConfigError(f"step size must be finite and positive, got {dt}",
                              pointer="/simulation/dt")
        if not (np.isfinite(T) and T >= dt):
            raise ConfigError(f"horizon must be finite and cover at least one "
                              f"step of {dt:g}, got {T}", pointer="/simulation/T")
        if "x0" in sdoc:
            raw = _want(sdoc, "x0", list, "/simulation")
            try:
                x0 = np.array(raw, dtype=float)
            except (TypeError, ValueError):
                raise ConfigError("x0 must be a numeric vector",
                                  pointer="/simulation/x0")
        if "input" in sdoc:
            idoc = sdoc["input"]
            if not isinstance(idoc, dict):
                raise ConfigError("input must be an object",
                                  pointer="/simulation/input")
            signal = _load_signal(idoc)
    return LoadedConfig(net=net, model=model, design=design, design_error=design_error,
                        x0=x0, signal=signal, T=T, dt=dt)


# ---------------------------------------------------------------------------
# Shared helpers


def _certificate(cfg: LoadedConfig, args) -> CompositeLyapunov:
    """Certificate of the config's network, with the model design's energies."""
    specs = cfg.design.specs if cfg.design else ()
    return certify(cfg.effective_net, specs, seed=args.seed)


def _sup_input(cfg: LoadedConfig) -> float:
    sig = cfg.signal
    if sig is None or sig.is_zero():
        return 0.0
    if sig.kind == "piecewise":
        return float(np.max(np.linalg.norm(sig.levels, axis=1)))
    return float(np.linalg.norm(sig.value))


# ---------------------------------------------------------------------------
# Subcommands


def cmd_check(cfg: LoadedConfig, args) -> int:
    net = cfg.effective_net
    verdict = decide(net, seed=args.seed)
    for v in verdict.routes:
        print(route_line(v))
    if not verdict.inconclusive:
        print(f"verdict: {verdict.status}")
        return 1 if verdict.fails else 0
    # nothing decisive either way; a constructed path settles it
    try:
        sigma = construct_path(net, seed=args.seed, verdict=verdict).sigma
    except SgcFails:
        # a refutation is reported as main reports it
        raise
    except SmallGainError as exc:
        name = type(exc).__name__
        print(f"path construction: {name}: {exc}")
        print(f"verdict: Inconclusive ({name})")
        return 1
    rep = validate_path(net, sigma)
    print(f"path construction: min margin {rep.min_margin:.6g}")
    print("verdict: Inconclusive (path construction succeeded)")
    return 0


def cmd_path(cfg: LoadedConfig, args) -> int:
    net = cfg.effective_net
    sigma = construct_path(net, seed=args.seed).sigma
    rep = validate_path(net, sigma)
    if args.out:
        export_path_csv(net, sigma, args.out)
        print(f"min margin: {rep.min_margin:.6g}")
    else:
        export_path_csv(net, sigma, sys.stdout)
        print(f"min margin: {rep.min_margin:.6g}", file=sys.stderr)
    return 0


def cmd_certify(cfg: LoadedConfig, args) -> int:
    cl = _certificate(cfg, args)
    net, sigma, phi, margins = cl.net, cl.sigma, cl.phi, cl.margins
    rr = VALIDATION_GRID
    if not any(net.ext_active):
        print("phi: identity (no external gains)")
    sup_u = _sup_input(cfg)
    if sup_u > 0.0:
        try:
            level = cl.iss_threshold(sup_u)
            print(f"input level {sup_u:.6g} covered at threshold {level:.6g}")
        except OutOfRange as exc:
            print(f"OutOfRange: {exc} (restricted input range)")
            return 1
    print(f"certificate margins: min {np.min(margins):.6g} over {len(rr)} radii")
    if args.out:
        export_path_csv(net, sigma, f"{args.out}.path.csv")
        write_csv(f"{args.out}.phi.csv", ["r", "phi"], np.column_stack([rr, phi(rr)]))
        write_csv(f"{args.out}.margins.csv",
                  ["r", *(f"margin_{i + 1}" for i in range(net.n)), "margin_min"],
                  np.column_stack([rr, margins, margins.min(axis=1)]))
        print(f"bundle written: {args.out}.path.csv, {args.out}.phi.csv, "
              f"{args.out}.margins.csv")
    return 0


def cmd_simulate(cfg: LoadedConfig, args) -> int:
    if cfg.model is None:
        raise ConfigError("simulate needs a model family", pointer="/model")
    if cfg.x0 is None:
        raise ConfigError("simulate needs an initial state", pointer="/simulation/x0")
    if cfg.x0.shape != (cfg.model.state_dim,):
        raise ConfigError(f"x0 must have length {cfg.model.state_dim}",
                          pointer="/simulation/x0")
    if cfg.signal is not None and cfg.signal.dim != cfg.model.input_dim:
        raise ConfigError(f"input must have {cfg.model.input_dim} channels",
                          pointer="/simulation/input")
    cl = None
    try:
        cl = _certificate(cfg, args)
    except SmallGainError as exc:
        print(f"certificate unavailable: {type(exc).__name__}: {exc}",
              file=sys.stderr)
    traj = integrate(cfg.model, cfg.x0, signal=cfg.signal, T=cfg.T, dt=cfg.dt,
                     certificate=cl)
    if args.out:
        export_trajectory_csv(traj, args.out)
        print(f"final state norm: {np.linalg.norm(traj.x[-1]):.6g}")
    else:
        export_trajectory_csv(traj, sys.stdout)
        print(f"final state norm: {np.linalg.norm(traj.x[-1]):.6g}",
              file=sys.stderr)
    return 0


def cmd_verify(cfg: LoadedConfig, args) -> int:
    if cfg.model is None:
        raise ConfigError("verify needs a model family", pointer="/model")
    if cfg.signal is not None and cfg.signal.dim != cfg.model.input_dim:
        raise ConfigError(f"input must have {cfg.model.input_dim} channels",
                          pointer="/simulation/input")
    cl = _certificate(cfg, args)
    u_norms = (0.0,)
    sup_u = _sup_input(cfg)
    if sup_u > 0.0:
        u_norms = (0.0, sup_u)
    reports = []
    dec = check_decrease(cfg.model, cl,
                         DecreaseSpec(samples=10000, u_norms=u_norms, seed=args.seed))
    print(dec.text())
    reports.append(dec)
    x0_scale = float(np.linalg.norm(cfg.x0)) if cfg.x0 is not None else 1.0
    signals = (InputSignal.zero(cfg.model.input_dim),)
    driven = cfg.signal is not None and not cfg.signal.is_zero()
    # an input that enters no external gain has threshold 0, so no run could
    # settle below the bound; in the built-in families it cannot move the state
    inert = not any(cl.net.ext_active)
    if driven and not inert:
        signals += (cfg.signal,)
    spec = IssRunSpec(runs=50, T=cfg.T, dt=cfg.dt, x0_scale=x0_scale or 1.0,
                      seed=args.seed)
    for rep in check_iss_bounds(cfg.model, cl, spec, signals):
        print(rep.text())
        reports.append(rep)
    if driven and inert:
        print("trajectory check (driven) skipped: the input enters no gain "
              "of the certificate")
    return 0 if all(r.verdict == "pass" for r in reports) else 1


# ---------------------------------------------------------------------------
# Entry point


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and kept for the process.

    ``parse_args`` leaves the parser unchanged and returns a new namespace
    on every call, so one parser serves every ``main`` call.
    """
    p = argparse.ArgumentParser(
        prog="smallgain",
        description="Small-gain certification for networks of nonlinear "
                    "subsystems: condition checks, decay paths, composite "
                    "certificates, and simulation-based verification.")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("config", help="JSON network config")
        sp.add_argument("--seed", type=int, default=0, help="RNG seed")

    sp = sub.add_parser("check", help="run the applicable small-gain checks")
    common(sp)
    sp = sub.add_parser("path", help="construct a decay path, emit CSV")
    common(sp)
    sp.add_argument("--out", help="CSV output path (default stdout)")
    sp = sub.add_parser("certify", help="build a certificate bundle")
    common(sp)
    sp.add_argument("--out", help="bundle file prefix")
    sp = sub.add_parser("simulate", help="integrate the model, emit trajectory CSV")
    common(sp)
    sp.add_argument("--out", help="CSV output path (default stdout)")
    sp = sub.add_parser("verify", help="run decrease and boundedness checks")
    common(sp)
    return p


_DISPATCH = {
    "check": cmd_check,
    "path": cmd_path,
    "certify": cmd_certify,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        return _DISPATCH[args.cmd](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SgcFails as exc:
        print(route_line(exc.verdict))
        print(f"verdict: {CERTIFIED_FAILS}")
        return 1
    except SmallGainError as exc:
        print(f"{type(exc).__name__}: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
