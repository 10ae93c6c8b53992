"""End-to-end, layer-attributed benchmark of the arbitrage pipeline.

Run from the root of a checkout::

    python3 perfbench/run.py --workload stream-inline --seed 1 --seconds 13 --trace 0

Every run starts fresh interpreters (``child.py``): with ``--trace 0``
two set-up-only runs and one measured run, reporting the end-to-end
metrics named in ``BENCHMARK.json`` (``setup_s`` is the median of the
three set-ups; timed figures are at a nominal host speed, see
``hostspeed.py``); with ``--trace 1`` one untraced and one traced measured
run, reporting the per-layer metrics and the tracing overhead.  The
program is used straight from ``src/``; inputs are generated from
``--seed`` under ``.perfbench_out/``.

Human-readable lines come first; the last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 when every output check passed, 1 when one failed,
and 2 when the benchmark could not run at all (e.g. no ``src/repro``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
WORKLOADS = ("scan-mixed", "stream-inline", "stream-process", "paper-strategies")
#: Workloads that read a snapshot and an event stream written beforehand.
STREAMS = ("stream-inline", "stream-process")
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Seconds a child may take beyond its measuring time before it is killed.
CHILD_GRACE_S = 120.0
OUT_DIR = ".perfbench_out"


class ChildFailed(RuntimeError):
    pass


def _home_reading() -> float:
    """A host-speed reading on the vCPU a child pins itself to."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        return hostspeed.reference_s()
    finally:
        os.sched_setaffinity(0, cpus)


def _spawn(
    root: Path,
    env: dict,
    work: Path,
    args,
    mode: str,
    trace: int,
    tag: str,
    readings: list[float],
):
    """Run one child to completion; return its result with its spawn
    time (perf_counter: system-wide monotonic on Linux, like the
    child's ``t_ready``).  Append a host-speed reading taken just before
    the spawn and one just after the child ended to ``readings``."""
    out = work / f"{tag}.json"
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--mode", mode,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--inputs", str(work / "inputs"), "--out", str(out),
    ]
    if args.smoke:
        cmd.append("--smoke")
    if args.perturb and mode == "measure":
        cmd.append("--perturb")
    readings.append(_home_reading())
    t_spawn = time.perf_counter()
    # own session, so a shard the child forked dies with it on a timeout
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        proc.wait(timeout=args.seconds + CHILD_GRACE_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} run timed out") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    readings.append(_home_reading())
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} run exited with code {proc.returncode}")
    result = json.loads(out.read_text())
    result["t_spawn"] = t_spawn
    return result


def _env_info(numpy_version: str) -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu": model,
    }


def _tally(runs: list[dict], repeat_checks: dict[str, bool]) -> tuple[int, int, int]:
    """``(attempted, failed, failed_checks)`` over the measured runs."""
    attempted = failed = failed_checks = 0
    for run in runs:
        attempted += run["ops"]
        failed += run["failed_ops"]
        for passed, total in run["checks"].values():
            attempted += total
            failed_checks += total - passed
    attempted += len(repeat_checks)
    failed_checks += sum(not ok for ok in repeat_checks.values())
    return attempted, failed + failed_checks, failed_checks


def _repeat_checks(plain: dict, traced: dict) -> dict[str, bool]:
    """The ranking digest and every counter marked exact must repeat
    between the untraced and the traced run of one seed."""
    checks = {"digest": plain["digest"] == traced["digest"]}
    for name, (value, exact) in plain["work"].items():
        if exact:
            checks[f"work.{name}"] = value == traced["work"][name][0]
    return checks


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs (self-tests)")
    parser.add_argument(
        "--perturb",
        action="store_true",
        help="corrupt one output before it is checked (negative self-test)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro here; run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    key = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[key]}

    work = root / OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    # one compute thread per process: the parent and its one shard
    # child fill the two cores this benchmark is sized for, and BLAS
    # thread pools on top of them only add contention and noise
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH", "")) if p
    )
    readings: list[float] = []
    try:
        if args.workload in STREAMS:
            _spawn(root, env, work, args, "prepare", 0, "prepare", readings)
        if args.trace:
            plain = _spawn(root, env, work, args, "measure", 0, "plain", readings)
            traced = _spawn(root, env, work, args, "measure", 1, "traced", readings)
            runs = [plain, traced]
            repeat = _repeat_checks(plain, traced)
            metrics = dict(traced["layers"])
            metrics["trace.overhead_frac"] = (
                plain["e2e"]["throughput_per_s"] / traced["e2e"]["throughput_per_s"] - 1.0
            )
        else:
            setups = [
                _spawn(root, env, work, args, "setup", 0, f"setup{i}", readings)
                for i in range(SETUP_REPEATS - 1)
            ]
            measured = _spawn(root, env, work, args, "measure", 0, "measure", readings)
            runs, repeat = [measured], {}
            metrics = dict(measured["e2e"])
            raw_setup_s = statistics.median(
                run["t_ready"] - run["t_spawn"] for run in [*setups, measured]
            )
            # at the nominal host speed, by the readings around the
            # spawns (hostspeed.py)
            metrics["setup_s"] = (
                raw_setup_s * hostspeed.NOMINAL_S / statistics.median(readings)
            )
            measured["native"]["raw.setup_s"] = (raw_setup_s, "s")
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work / "inputs", ignore_errors=True)
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 2

    attempted, failed, failed_checks = _tally(runs, repeat)
    last = runs[-1]
    artifact = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "env": _env_info(last["numpy"]),
        "native": last["native"],
        "work": {name: {"value": v, "exact": exact} for name, (v, exact) in last["work"].items()},
        "digest": last["digest"],
        "checks": {"runs": [run["checks"] for run in runs], "repeat": repeat},
        "metrics": metrics,
        "failed_frac": failed / attempted,
    }
    (work / "result.json").write_text(json.dumps(artifact, indent=2))

    for name, (value, unit) in last["native"].items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} ({failed}/{attempted})")
    for name, (value, exact) in last["work"].items():
        print(f"{args.workload} work.{name} = {value}{'' if exact else ' (not exact)'}")
    print(f"{args.workload} ranking digest = {last['digest']}")
    print("env: " + ", ".join(f"{k}={v}" for k, v in artifact["env"].items()))
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": failed_checks == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if failed_checks == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
