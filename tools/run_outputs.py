"""Record every CLI output of one source tree, for byte-for-byte comparison.

Runs ``smallgain.cli.main`` in this process, imported from the ``src``
directory given, with ``--seed 0`` on every call: ``check``, ``path --out``
and ``certify --out`` on every config, plus ``simulate --out`` and
``verify`` on model configs.  The configs are ``demos/configs/``, the
benchmark's defect reproducers (``DEFECT_CASES``) and, for each seed given,
the job list of a benchmark workload (``perfbench/workloads.py``, imported,
never edited).  Each call leaves ``OUT/<set>/<job>/<cmd>.txt`` with its exit
code, stdout and stderr, next to the CSV and bundle files it wrote (``--out``
paths are relative to the job directory).  A call past 60 s is recorded as
``timeout``, an uncaught exception as ``crash <Type>``; the run goes on.

Compare a change with its parent commit, unpacked next to the repository::

    mkdir ../parent && git archive HEAD~1 | tar -x -C ../parent
    python3 tools/run_outputs.py ../parent/src out_parent --certify-mix 0 1
    python3 tools/run_outputs.py src out_change --certify-mix 0 1
    diff -r out_parent out_change
"""

from __future__ import annotations

import os
import sys

os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS"), "1"))
os.environ.pop("SMALLGAIN_SEED", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
CALL_LIMIT_S = 60
COMMANDS = (["check"], ["path", "--out", "path.csv"], ["certify", "--out", "bundle"])
MODEL_COMMANDS = (["simulate", "--out", "simulate.csv"], ["verify"])


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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", help="the src/ directory of the tree to run")
    ap.add_argument("out", help="output directory (created)")
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    for name in workloads.WORKLOADS:
        ap.add_argument(f"--{name}", type=int, nargs="*", default=[], metavar="SEED",
                        help=f"also run the {name} job list for these seeds")
    args = ap.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))
    from smallgain.cli import main as cli_main

    out = Path(args.out).resolve()
    sets = {"demos": workloads.demo_configs(ROOT), "defects": workloads.DEFECT_CASES}
    for name, make in workloads.WORKLOADS.items():
        for seed in getattr(args, name.replace("-", "_")):
            sets[f"{name}-{seed}"] = {job.name: job.doc for job in make(seed, ROOT)}
    signal.signal(signal.SIGALRM, _on_alarm)
    for set_name, docs in sets.items():
        for job, doc in docs.items():
            run_job(cli_main, out / set_name / job, doc)
        print(f"{set_name}: {len(docs)} configs", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
