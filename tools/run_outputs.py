"""Record every CLI output of one source tree, for byte-for-byte comparison.

Runs ``smallgain.cli.main`` in this process, imported from the ``src``
directory given, with ``--seed 0`` on every call: ``check``, ``path --out``
and ``certify --out`` on every config, plus ``simulate --out`` and
``verify`` on model configs.  The configs are ``demos/configs/``, the
benchmark's defect reproducers (``DEFECT_CASES``), for each seed given, the
job list of a benchmark workload (``perfbench/workloads.py``, imported,
never edited) and, for each ``--random`` seed, a set ``random-SEED`` of 60
seeded networks from ``tests/gen.py``: 20 ``random_network`` draws of kind
max, 20 ``random_mixed_sum_net`` draws and 20 ``random_network`` draws of
kind sum or mixed, in that order.  They reach the cycle route, the
falsifier's walks and the irreducible and reducible routes' give-ups, which
no workload job reaches.  Each call leaves
``OUT/<set>/<job>/<cmd>.txt`` with its exit code, stdout and stderr, next
to the CSV and bundle files it wrote (``--out`` paths are relative to the
job directory).  A call past 60 s is recorded as
``timeout``, an uncaught exception as ``crash <Type>``; the run goes on.
After each set it prints how many configs ran and names the jobs whose
``check`` prints ``verdict: CertifiedFails`` while ``path`` or ``certify``
exits 0: a certificate beside a refutation.

Compare a change with its parent commit, unpacked next to the repository::

    mkdir ../parent && git archive HEAD~1 | tar -x -C ../parent
    python3 tools/run_outputs.py ../parent/src out_parent --certify-mix 0 1
    python3 tools/run_outputs.py src out_change --certify-mix 0 1
    python3 tools/run_outputs.py --compare out_parent out_change

``--compare`` sorts every file of the two trees into one of four classes:
byte-identical; close, equal except for numbers that differ by at most
``1e-11`` of the larger of the two (one unit in the 12th digit that
``%.12g`` prints); close to its row, equal except for numbers that differ
by more than that but by at most ``1e-11`` of the largest magnitude in
their row (their line, in either tree), as a state component passing near
zero does when a sum is rounded in another order; different, which
includes a file missing from one tree.  It lists the files of the last
three classes, the close-to-row ones with their largest row-relative gap;
then, per command, the call files of both trees that are not close
counted by the first word of stdout in each (``check: spectral -> Perron:
12``, ``-`` for an empty stdout), which sums up a deliberate change of
output; then, per command, how many calls changed their exit status
between the trees (``certify: exit 1 -> exit 0: 52``, with ``timeout`` and
``crash <Type>`` as statuses too).  It exits 1 when any file is close to
its row or different.
"""

from __future__ import annotations

import os
import re
import sys

os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS"), "1"))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from decimal import Decimal  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
CALL_LIMIT_S = 60
COMMANDS = (["check"], ["path", "--out", "path.csv"], ["certify", "--out", "bundle"])
MODEL_COMMANDS = (["simulate", "--out", "simulate.csv"], ["verify"])
CALL_NAMES = {cmd[0] for cmd in COMMANDS + MODEL_COMMANDS}
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan))")
CLOSE = Decimal("1e-11")


class CallTimeout(BaseException):
    """Raised by SIGALRM in the program's frame; not caught as an Exception."""


def _on_alarm(signum, frame):
    raise CallTimeout


def run_job(main, job_dir: Path, doc: dict) -> None:
    job_dir.mkdir(parents=True, exist_ok=True)
    (job_dir / "config.json").write_text(json.dumps(doc, indent=1))
    os.chdir(job_dir)
    for cmd in COMMANDS + (MODEL_COMMANDS if "model" in doc else ()):
        out, err = io.StringIO(), io.StringIO()
        signal.alarm(CALL_LIMIT_S)
        try:
            # each call shows its warnings, whatever ran before it
            with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
                  warnings.catch_warnings()):
                status = f"exit {main([cmd[0], 'config.json', '--seed', '0', *cmd[1:]])}"
        except CallTimeout:
            status = "timeout"
        except SystemExit as exc:
            status = f"exit {exc.code}"
        except Exception as exc:  # noqa: BLE001 - a crash is an output too
            status = f"crash {type(exc).__name__}"
            print(f"{job_dir}: {cmd[0]}:", file=sys.stderr)
            traceback.print_exc()
        finally:
            signal.alarm(0)
        (job_dir / f"{cmd[0]}.txt").write_text(
            f"{status}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")


def refuted_yet_built(set_dir: Path) -> list[str]:
    """The jobs of one set whose ``check`` prints ``verdict: CertifiedFails``
    while ``path`` or ``certify`` exits 0."""
    jobs = []
    for job in sorted(p for p in set_dir.iterdir() if p.is_dir()):
        check = job / "check.txt"
        if not (check.is_file() and "\nverdict: CertifiedFails\n" in check.read_text()):
            continue
        if any((job / f"{cmd}.txt").is_file()
               and (job / f"{cmd}.txt").read_text().startswith("exit 0\n")
               for cmd in ("path", "certify")):
            jobs.append(job.name)
    return jobs


def close_numbers(a: str, b: str):
    """``(count, largest relative gap, largest row-relative gap, own)`` of
    the numbers that differ between two texts, or None when they differ in
    anything but numbers, or in a number by more than ``CLOSE`` of the
    largest magnitude in its row (its line, read in both texts).  ``own``
    says whether every one of them is also within ``CLOSE`` of the larger
    of its own two values."""
    la, lb = a.split("\n"), b.split("\n")
    if len(la) != len(lb):
        return None
    count, worst, worst_row, own = 0, 0.0, 0.0, True
    for ra, rb in zip(la, lb):
        if ra == rb:
            continue
        pa, pb = NUMBER.split(ra), NUMBER.split(rb)
        if len(pa) != len(pb) or pa[::2] != pb[::2]:
            return None
        # exact decimal arithmetic: one unit in the 12th digit of a number
        # that starts with 1 is exactly CLOSE of it, which floats round past
        pairs = [(Decimal(sa), Decimal(sb)) for sa, sb in zip(pa[1::2], pb[1::2])]
        row = max((abs(x) for pair in pairs for x in pair if x.is_finite()),
                  default=Decimal(0))
        for (x, y), sa, sb in zip(pairs, pa[1::2], pb[1::2]):
            if sa == sb:
                continue
            if not (x.is_finite() and y.is_finite()) or abs(x - y) > CLOSE * row:
                return None
            top = max(abs(x), abs(y))
            own = own and abs(x - y) <= CLOSE * top
            count += 1
            if top:
                worst = max(worst, float(abs(x - y) / top))
                worst_row = max(worst_row, float(abs(x - y) / row))
    return count, worst, worst_row, own


def stdout_word(text: str) -> str:
    """The first word of a call file's stdout, ``-`` when it is empty."""
    out = text.partition("\n--- stdout\n")[2].rpartition("--- stderr\n")[0]
    return (out.split() or ["-"])[0]


def compare(a: Path, b: Path) -> int:
    rels = sorted({p.relative_to(root) for root in (a, b)
                   for p in root.rglob("*") if p.is_file()})
    same, close, row_close, diff = 0, [], [], []
    changed, moved = Counter(), Counter()
    for rel in rels:
        fa, fb = a / rel, b / rel
        if not (fa.is_file() and fb.is_file()):
            diff.append(f"{rel} (only in {a if fa.is_file() else b})")
            continue
        ta, tb = fa.read_bytes(), fb.read_bytes()
        call = rel.stem in CALL_NAMES and rel.suffix == ".txt"
        if call:
            sa, sb = (t.decode().split("\n", 1)[0] for t in (ta, tb))
            if sa != sb:
                changed[rel.stem, sa, sb] += 1
        if ta == tb:
            same += 1
            continue
        res = close_numbers(ta.decode(), tb.decode())
        if res is not None and res[3]:
            close.append((str(rel), *res[:2]))
            continue
        if res is None:
            diff.append(str(rel))
        else:
            row_close.append((str(rel), *res[:3]))
        if call:
            moved[rel.stem, stdout_word(ta.decode()), stdout_word(tb.decode())] += 1
    for rel, count, worst in close:
        print(f"close {rel}: {count} numbers, largest relative gap {worst:.3g}")
    for rel, count, worst, worst_row in row_close:
        print(f"close to its row {rel}: {count} numbers, largest relative gap "
              f"{worst:.3g}, largest row-relative gap {worst_row:.3g}")
    for rel in diff:
        print(f"different {rel}")
    for (cmd, wa, wb), count in sorted(moved.items()):
        print(f"{cmd}: {wa} -> {wb}: {count}")
    for (cmd, sa, sb), count in sorted(changed.items()):
        print(f"{cmd}: {sa} -> {sb}: {count}")
    print(f"{len(rels)} files: {same} byte-identical, {len(close)} close "
          f"({sum(c for _, c, _ in close)} numbers, largest relative gap "
          f"{max((w for *_, w in close), default=0.0):.3g}), {len(row_close)} close "
          f"to their row (largest row-relative gap "
          f"{max((w for *_, w in row_close), default=0.0):.3g}), {len(diff)} different")
    return 1 if diff or row_close else 0


RANDOM_DRAWS = 20


def random_configs(seed: int) -> dict:
    """The configs of the set ``random-SEED``, by job name; the gains are
    written with ``parser.format_gain`` of the tree being run."""
    sys.path.insert(0, str(ROOT / "tests"))
    import numpy as np
    from gen import random_mixed_sum_net, random_network
    from smallgain.gains import MaxAgg
    from smallgain.parser import format_gain

    rng = np.random.default_rng(seed)
    nets = []
    while len(nets) < RANDOM_DRAWS:
        net, kind = random_network(rng)
        if kind == "max":
            nets.append((f"max-{len(nets):02d}", net))
    nets += [(f"mixed-sum-{k:02d}", random_mixed_sum_net(rng)) for k in range(RANDOM_DRAWS)]
    drawn = 0
    while drawn < RANDOM_DRAWS:
        net, kind = random_network(rng)
        if kind != "max":
            nets.append((f"{kind}-{drawn:02d}", net))
            drawn += 1
    return {name: {"n": net.n,
                   "gains": [[format_gain(g) for g in row] for row in net.gamma],
                   "external_gains": ["0"] * net.n,
                   "mu": ["max" if isinstance(mu, MaxAgg) else "sum" for mu in net.mu]}
            for name, net in nets}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="?", help="the src/ directory of the tree to run")
    ap.add_argument("out", nargs="?", help="output directory (created)")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("OUT_A", "OUT_B"),
                    help="compare two output trees instead of running")
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    for name in workloads.WORKLOADS:
        ap.add_argument(f"--{name}", type=int, nargs="*", default=[], metavar="SEED",
                        help=f"also run the {name} job list for these seeds")
    ap.add_argument("--random", type=int, nargs="*", default=[], metavar="SEED",
                    help="also run 60 seeded networks from tests/gen.py per seed")
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.out is None:
        ap.error("give SRC and OUT, or --compare OUT_A OUT_B")
    sys.path.insert(0, str(Path(args.src).resolve()))
    from smallgain.cli import main as cli_main

    out = Path(args.out).resolve()
    sets = {"demos": workloads.demo_configs(ROOT), "defects": workloads.DEFECT_CASES}
    for name, make in workloads.WORKLOADS.items():
        for seed in getattr(args, name.replace("-", "_")):
            sets[f"{name}-{seed}"] = {job.name: job.doc for job in make(seed, ROOT)}
    for seed in args.random:
        sets[f"random-{seed}"] = random_configs(seed)
    signal.signal(signal.SIGALRM, _on_alarm)
    for set_name, docs in sets.items():
        for job, doc in docs.items():
            run_job(cli_main, out / set_name / job, doc)
        built = refuted_yet_built(out / set_name)
        print(f"{set_name}: {len(docs)} configs, {len(built)} refuted by check yet "
              f"built by path or certify{''.join(f' {job}' for job in built)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
