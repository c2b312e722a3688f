"""One fresh interpreter: set up, optionally run one timed pass, report as JSON.

Invoked by ``run.py`` as ``python worker.py '<spec json>'``.  The spec holds
``mode`` ("setup" or "pass"), ``spawned_at`` (the parent's ``perf_counter``
just before it started this process; the clock is system-wide) and
``result`` (the JSON file to write); for a pass also ``workload``,
``program_seed``, ``outdir`` and ``trace``.

Set-up ends when ``fso_secrecy.cli`` is imported and the default scenario's
links are derived.  The pass is timed on its own, and peak RSS is read as
soon as it ends.  The speed probe runs from the first line on; both times
are reported raw and normalized to the probe's reference speed.
"""

from __future__ import annotations

import time

import speed

speed.start()

from fso_secrecy import channel, cli  # noqa: E402

_default = channel.baseline_scenario()
channel.bob_link(_default)
channel.eve_link(_default)
SETUP_END = time.perf_counter()
SETUP_PROBES = speed.take()

import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def run_cli(argv: list[str]) -> int:
    """Exit code of one CLI invocation; an escaping exception counts as -1."""
    try:
        return cli.main(argv)
    except Exception:  # the pass must go on and report the failed operation
        traceback.print_exc()
        return -1


def prepare(workload: str, outdir: Path, program_seed: int):
    """Untimed preparation; returns the callable that runs the pass."""
    if workload == "optimize_batch":
        workloads.write_configs(outdir)
        ops = workloads.optimize_ops(outdir, program_seed)
        return lambda: [run_cli(argv) for _, argv in ops]
    if workload == "mc_validate":
        ops = workloads.validate_ops(outdir, program_seed)
        return lambda: [run_cli(argv) for _, argv in ops]

    script = ROOT / "scripts" / "figure_sweeps.py"
    loader_spec = importlib.util.spec_from_file_location("figure_sweeps", script)
    sweeps = importlib.util.module_from_spec(loader_spec)
    loader_spec.loader.exec_module(sweeps)
    codes: list[int] = []

    def recorded(argv: list[str]) -> int:
        codes.append(run_cli(argv))
        return codes[-1]

    # The script reaches the CLI only through ``cli.main``; record each exit code.
    sweeps.cli = types.SimpleNamespace(main=recorded)

    def run_sweeps() -> list[int]:
        saved = sys.argv
        sys.argv = [str(script), "--outdir", str(outdir)]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                sweeps.main()
        except SystemExit:
            pass  # the failing sweep's code is already recorded
        finally:
            sys.argv = saved
        return codes

    return run_sweeps


def main() -> None:
    spec = json.loads(sys.argv[1])
    setup_raw = SETUP_END - spec["spawned_at"]
    result: dict = {
        "setup_raw_s": setup_raw,
        "setup_s": speed.normalized(setup_raw, SETUP_PROBES, [speed.sample()]),
    }
    if spec["mode"] == "pass":
        outdir = Path(spec["outdir"])
        outdir.mkdir(parents=True, exist_ok=True)
        run_pass = prepare(spec["workload"], outdir, spec["program_seed"])
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            clamps_before = channel.clamp_event_count()
        speed.take()
        beside = [speed.sample()]
        t0 = time.perf_counter()
        codes = run_pass()
        wall = time.perf_counter() - t0
        inside = speed.take()
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        speed.stop()
        beside.append(speed.sample())
        result.update(
            wall_raw_s=wall,
            wall_s=speed.normalized(wall, inside, beside),
            peak_rss_mb=peak_kib / 1024.0,
            codes=codes,
        )
        if tracer is not None:
            result["trace"] = tracer.metrics()
            result["trace"]["channel.clamp_events"] = channel.clamp_event_count() - clamps_before
    speed.stop()
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
