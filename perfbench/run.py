"""qcorr benchmark: seeded CLI workloads, timed end to end, checked, optionally traced.

Run from the root of a qcorr checkout:

    python3 perfbench/run.py --workload oracle-verify --seed 1 --seconds 20 --trace 0

The workload's commands run in this process, one after the next, through
``qcorr.cli.main(argv)`` (a closed loop with one client), in whole rounds
of the fixed command list until ``--seconds`` have passed. Every output is
then checked against the independent reference in ``reference.py``.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics (end-to-end with ``--trace 0``, per-layer with
``--trace 1``). Results and spans are also written under ``.perfbench/``.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported, here and in every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
#: fresh interpreters timed for setup_s before the timed rounds and after them,
#: besides the one that runs the workload
SETUP_PROBES = (5, 5)
PROBE_TIMEOUT_S = 60


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="DIR",
                    help="only time the set-up, writing inputs to DIR, and print the seconds")
    return ap.parse_args(argv)


def setup(workload, seed, inputs_dir):
    """Import qcorr, build the parser, generate the inputs; return (seconds, commands)."""
    t0 = perf_counter()
    import qcorr.cli

    qcorr.cli.build_parser()
    os.makedirs(inputs_dir, exist_ok=True)
    commands = workloads.build(workload, seed, inputs_dir)
    return perf_counter() - t0, commands


def _probe_setup(args, inputs_dir):
    argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--setup-probe", str(inputs_dir)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          check=True)
    return float(done.stdout.split()[-1])


class Runner:
    """Runs whole rounds of the command list and keeps each distinct output once."""

    def __init__(self, commands):
        self.commands = commands
        # per command: {(exit code, stdout, stderr): times seen}
        self.outputs = [dict() for _ in commands]
        self.attempted = 0

    def run_round(self, tracer=None):
        cli = sys.modules["qcorr.cli"]
        durations = []
        for i, cmd in enumerate(self.commands):
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                # every warning is recorded, never printed, in every round alike
                warnings.simplefilter("always")
                if tracer is not None:
                    tracer.begin_command(i, cmd.check, caught)
                t0 = perf_counter()
                try:
                    rc = cli.main(list(cmd.argv))
                except Exception as exc:  # a crash is a failed command, not a benchmark crash
                    rc = "raised %s: %s" % (type(exc).__name__, exc)
                durations.append(perf_counter() - t0)
            key = (rc, out.getvalue(), err.getvalue())
            self.outputs[i][key] = self.outputs[i].get(key, 0) + 1
            self.attempted += 1
        return durations

    def run_for(self, seconds, tracer=None):
        """Whole rounds until ``seconds`` have passed (at least one); per-round durations."""
        rounds = []
        t_end = perf_counter() + seconds
        while not rounds or perf_counter() < t_end:
            rounds.append(self.run_round(tracer))
        return rounds

    def check(self, checker):
        """Number of failed commands; their errors go to standard error."""
        failed = 0
        for cmd, seen in zip(self.commands, self.outputs):
            for (rc, out, err), count in seen.items():
                errs = checker.errors(cmd, rc, out)
                if errs:
                    failed += count
                    print("FAILED %s\n  %s\n%s" % (" ".join(cmd.argv), "\n  ".join(errs), err),
                          file=sys.stderr)
        return failed


def _learn_n_max(deformed):
    """The level a command picks when --nmax is omitted, from the public select_nmax."""
    from qcorr.deformed import DeformationSpec, select_nmax

    spec = DeformationSpec(family=deformed.family, N=deformed.N, kappa=deformed.kappa)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return select_nmax(spec, deformed.alpha, deformed.kind)


def _first_quartile(samples):
    return statistics.quantiles(samples, n=4)[0] if len(samples) > 1 else samples[0]


def command_times(rounds):
    """Each command's wall time: the first quartile of its times over the rounds.

    On a shared host whole stretches of a run can be slowed by other
    tenants; the lower quartile discounts them where a mean or median
    would not. Set-up times are summarised the same way.
    """
    return [_first_quartile(list(times)) for times in zip(*rounds)]


def run(args, work):
    setup_samples = []

    def probe_setups(count):
        for _ in range(count):
            probe_dir = work / ("probe-%d" % len(setup_samples))
            setup_samples.append(_probe_setup(args, probe_dir))

    own_setup, commands = setup(args.workload, args.seed, str(work / "inputs"))
    setup_samples.append(own_setup)
    if not args.trace:
        probe_setups(SETUP_PROBES[0])
    runner = Runner(commands)

    tracer = None
    if args.trace:
        import tracing

        untraced = runner.run_for(args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        traced = runner.run_for(args.seconds / 2, tracer)
        tracer.uninstall()
    else:
        rounds = runner.run_for(args.seconds)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probe_setups(SETUP_PROBES[1])

    import checks

    checker = checks.Checker(_learn_n_max)
    failed = runner.check(checker)
    first_outputs = [(cmd, *next(iter(seen))[:2]) for cmd, seen in zip(commands, runner.outputs)]
    # failed commands are counted in ``failed``; ``correct`` speaks of the rest,
    # and of whether the self-test caught every perturbed output
    correct = checks.self_test(checker, first_outputs)

    if args.trace:
        overhead = sum(command_times(traced)) - sum(command_times(untraced))
        metrics = tracer.metrics(len(traced), overhead)
        with open(OUT_DIR / ("trace-%s-%d.json" % (args.workload, args.seed)), "w") as fh:
            json.dump(tracer.trace_file(), fh)
    else:
        metrics = {
            "setup_s": (_first_quartile(setup_samples), "s"),
            "run_s": (sum(command_times(rounds)), "s"),
            "cmd_p50_s": (statistics.median(command_times(rounds)), "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    return {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    args = _parse_args(argv)
    src = ROOT / "src"
    if not (src / "qcorr" / "__init__.py").is_file():
        print("perfbench: no qcorr package under %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.setup_probe:
        print(repr(setup(args.workload, args.seed, args.setup_probe)[0]))
        return 0
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / ("work-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    name = "result-%s-%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(OUT_DIR / name, "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
