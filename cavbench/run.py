"""cavray benchmark: one closed-loop client, one op at a time.

    python3 cavbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. Workloads:

  reports     cavity/enhance/purcell/forecast/overlap as JSON, one
              ``cavray`` process per op, on seeded perturbations of the
              demo scenario. Import dominates.
  scan-wide   one ``cavray scan --format csv`` process per op over 20-30
              FSRs at 3.0-4.5e4 points, FSRs x points held fixed. The
              per-order Voigt loop dominates.
  scan-dense  one ``cavray scan`` process per op over 1-2 FSRs, six
              configs at 1.75e5 points in CSV, then six at 1.0e5 points
              in JSON, which cost about the same. The grid, kernel and
              serializers dominate.
  oracles     one ``validation.run_all(seed)`` call per op, in process,
              with the import paid before timing.

Scan runs end on a whole cycle of their op mix, so every run does the
same work. Half of each scan pool is at 295 K and half at 77-400 K.
``cavray scan`` ignores ``gas.temperature_K``, so the latter fail their
oracle check and count as failed; that known defect leaves ``correct``
true, any other failed check makes it false.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.
Their times are scaled to a reference host speed by probes timed between
the ops (see ``SpeedScale``); the client and its children run on one CPU.
With ``--trace 1`` the ops run in process through ``cavray.cli.main``
(or ``run_all``), alternate passes over the op mix run under the span
tracer, and the line holds the per-layer metrics. The line before it is
a JSON ``info`` record: machine, versions, interpreter floor and the
figures that exist only on some workloads. Traced runs write their spans
to ``.cavbench/spans-<workload>.csv``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".cavbench"

sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workgen  # noqa: E402

WORKLOADS = ("reports", "scan-wide", "scan-dense", "oracles")
TAIL_BEYOND = 10
# enough ops that some percentile has TAIL_BEYOND ops above it
MIN_OPS = TAIL_BEYOND + 1
SETUP_SAMPLES = 5
# probe times that define the reference speed of scaled times: see SpeedScale
PROCESS_REFERENCE_S = 0.07
IN_PROCESS_REFERENCE_S = 0.0025
SCALE_WINDOW = 2
PROBE_ARRAY = np.linspace(0.0, 4.0, 50_000)
# spans written to the CSV per traced run; later ones are only totalled
SPANS_KEPT = 100_000
WATCHDOG_S = 170
# CPUs this process may use, taken before main() pins it to one of them
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()

CLI_SNIPPET = "import sys; from cavray.cli import main; sys.exit(main(sys.argv[1:]))"
PROBE_SNIPPET = """
import json, sys, time
before = set(sys.modules)
start = time.perf_counter()
import cavray
elapsed = time.perf_counter() - start
new = set(sys.modules) - before
import numpy, scipy
print(json.dumps({"import_s": elapsed, "modules": len(new),
                  "scipy_modules": sum(1 for m in new if m.split(".")[0] == "scipy"),
                  "cavray_file": cavray.__file__, "cavray": cavray.__version__,
                  "numpy": numpy.__version__, "scipy": scipy.__version__}))
"""

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

CHECK_NAMES = (
    "check_field_closed_form_vs_roundtrip", "check_field_average_quadrature",
    "check_field_mirror_asymmetry", "check_power_budget_identities",
    "check_power_linearity", "check_finesse_monotone", "check_finesse_taylor",
    "check_cavity_params_identities", "check_abcd_waist", "check_abcd_mode_spacing",
    "check_dipole_normalization", "check_gaussian_normalization",
    "check_overlap_far_field", "check_overlap_monotone", "check_purcell_equivalence",
    "check_purcell_separation_cancels", "check_spectral_overlap_closed_form",
    "check_spectral_overlap_limits", "check_polarization_sum_rule",
    "check_scan_linearity", "check_doppler_monte_carlo", "check_species_ratio",
    "check_backout_roundtrip", "check_forecast_consistency",
    "check_unit_convention_cancels",
)
TRACED_MODULES = ("cli", "config", "gases", "optics", "field", "overlap", "spectra",
                  "experiment", "validation")

# Per-layer metrics are averages per traced op. ``busy_s`` is the time
# inside the named call, callees included; ``self_s`` leaves out the time
# of wrapped callees, and ``cli.main.self_s`` is that of every cli
# function together. ``ns_per_point`` is busy time per grid point.
# ``import.op_share`` is the import's share of a process op, modelled as
# interpreter start + import + the untraced in-process op.
PER_LAYER = {
    "interp.start_s": "s",
    "import.cavray_s": "s",
    "import.modules": "count",
    "import.scipy_modules": "count",
    "import.op_share": "fraction",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "config.parse_config.calls": "count",
    "config.parse_config.busy_s": "s",
    "gases.load_species_table.calls": "count",
    "gases.load_species_table.busy_s": "s",
    "optics.derive_cavity_params.busy_s": "s",
    "optics.abcd.busy_s": "s",
    "field.roundtrip_field_sum.busy_s": "s",
    "field.position_averaged_intensity_numeric.busy_s": "s",
    "overlap.overlap_eta_numeric.busy_s": "s",
    "spectra.scan_spectrum.busy_s": "s",
    "spectra.scan_spectrum.ns_per_point": "ns",
    "spectra.SpectrumTrace.to_csv.ns_per_point": "ns",
    "spectra.SpectrumTrace.to_json.ns_per_point": "ns",
    "spectra.spectral_overlap.calls": "count",
    "spectra.spectral_overlap.busy_s": "s",
    "spectra.species_ratio.busy_s": "s",
    "spectra.doppler_fwhm_monte_carlo.busy_s": "s",
    "scan_err_max": "fraction",
    "experiment.ScenarioConfig.from_file.busy_s": "s",
    "experiment.build_enhancement_report.busy_s": "s",
    "experiment.ultracold_forecast.busy_s": "s",
    "experiment.report_serialize.busy_s": "s",
    "validation.run_all.busy_s": "s",
    "validation.checks_passed": "count",
    **{f"validation.{name}.self_s": "s" for name in CHECK_NAMES},
    **{f"{module}.errors": "count" for module in TRACED_MODULES},
    "trace.overhead_ratio": "ratio",
}

# per-layer names that sum over several span names
SPAN_GROUPS = {
    "optics.abcd.busy_s": ("optics.abcd_roundtrip_waist",
                           "optics.abcd_roundtrip_mode_spacing"),
    "experiment.report_serialize.busy_s": (
        "experiment.EnhancementReport.to_json", "experiment.EnhancementReport.table",
        "experiment.ForecastReport.to_json", "experiment.ForecastReport.table"),
}

# grid points handled by a call, for the ns_per_point figures
SPAN_SIZES = {
    "spectra.scan_spectrum": lambda args, result: len(result.detunings),
    "spectra.SpectrumTrace.to_csv": lambda args, result: len(args[0].detunings),
    "spectra.SpectrumTrace.to_json": lambda args, result: len(args[0].detunings),
}


class BenchmarkTimeout(Exception):
    pass


@dataclass
class Op:
    """One unit of work: a CLI invocation or one oracle-suite call."""

    index: int
    command: str
    argv: list[str] | None = None
    config: dict | None = None
    fmt: str = "json"
    seed: int = 0


@dataclass
class Outcome:
    seconds: float
    verdict: checks.Verdict
    output_bytes: int = 0
    rss_mb: float = 0.0
    checks_passed: int = 0
    # SpeedScale factor measured around the op
    scale: float = 1.0

    @property
    def scaled_s(self) -> float:
        return self.seconds * self.scale


def plan(workload: str, seed: int, workdir: Path):
    """(op_at, period, whole): op_at(i) is the op the client sends i-th; the
    ops repeat their configs, commands and formats every ``period`` ops, and
    a run ends on a whole period when ``whole`` is set."""
    if workload == "oracles":
        rng = random.Random(f"oracles:{seed}")
        seeds: list[int] = []

        def oracle_op(i: int) -> Op:
            while len(seeds) <= i:
                seeds.append(rng.randrange(2 ** 31))
            return Op(i, "run_all", seed=seeds[i])

        return oracle_op, 1, False
    pool = workgen.make_pool(workload, seed)
    paths = workgen.write_pool(pool, workdir)

    n = len(pool)
    formats = workgen.scan_formats(workload) if workload != "reports" else None

    def cli_op(i: int) -> Op:
        j = i % n
        if formats is None:
            command, fmt = workgen.REPORT_COMMANDS[i % len(workgen.REPORT_COMMANDS)], "json"
        else:
            command, fmt = "scan", formats[j]
        return Op(i, command, [command, "--config", str(paths[j]), "--format", fmt],
                  pool[j], fmt)

    if workload == "reports":
        # five commands of near-equal cost; a whole period would be 40 ops
        return cli_op, math.lcm(n, len(workgen.REPORT_COMMANDS)), False
    # scan ops differ in size and format, so each run covers whole periods
    return cli_op, n, True


def verify(op: Op, output) -> checks.Verdict:
    if op.command == "run_all":
        return checks.check_oracles(output)
    if op.command == "scan":
        return checks.check_scan(op.config, output, op.fmt)
    return checks.check_report(op.command, op.config, output)


class ProcessRunner:
    """Runs one child interpreter at a time and reaps it with its rusage."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.child: subprocess.Popen | None = None

    def run(self, args: list[str]) -> tuple[float, int, float, bytes, bytes]:
        """(wall s, exit code, peak RSS MB, stdout, stderr) of one child."""
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            self.child = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                          env=self.env, cwd=self.workdir)
            _, status, usage = os.wait4(self.child.pid, 0)
            elapsed = time.perf_counter() - start
        self.child.returncode = os.waitstatus_to_exitcode(status)
        code, self.child = self.child.returncode, None
        return elapsed, code, usage.ru_maxrss / 1024.0, out_path.read_bytes(), \
            err_path.read_bytes()

    def stop(self) -> None:
        if self.child is not None and self.child.returncode is None:
            self.child.kill()
            self.child.wait()

    def floor(self) -> float:
        """Wall time of a bare interpreter: the speed probe of child ops."""
        return self.median_wall("pass", 1)

    def median_wall(self, snippet: str, samples: int) -> float:
        walls = []
        for _ in range(samples):
            wall, code, _, _, err = self.run(["-c", snippet])
            if code != 0:
                raise RuntimeError(f"child failed: {err.decode(errors='replace')[-500:]}")
            walls.append(wall)
        return statistics.median(walls)

    def probe(self) -> dict:
        """Versions and import figures from a fresh ``import cavray``."""
        wall, code, _, out, err = self.run(["-c", PROBE_SNIPPET])
        if code != 0:
            raise RuntimeError(f"import probe failed: {err.decode(errors='replace')[-500:]}")
        record = json.loads(out)
        record["wall_s"] = wall
        if Path(record["cavray_file"]).resolve().parent.parent != SRC.resolve():
            raise RuntimeError(f"imported cavray from {record['cavray_file']}, not {SRC}")
        return record

    def cli_op(self, op: Op) -> Outcome:
        wall, code, rss, out, err = self.run(["-c", CLI_SNIPPET, *op.argv])
        if code != 0:
            verdict = checks.Verdict(False, f"exit {code}: "
                                     + err.decode(errors="replace")[-300:])
        else:
            verdict = verify(op, out.decode())
        return Outcome(wall, verdict, len(out), rss)


def machine(python: dict) -> dict:
    """Versions, core count and CPU model, for the info record."""
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {"python": platform.python_version(), "numpy": python.get("numpy"),
            "scipy": python.get("scipy"), "cavray": python.get("cavray"),
            "nproc": NPROC, "cpu": cpu}


def in_process_probe() -> float:
    """Median time of a fixed mix of interpreter and numpy work:
    the speed probe of in-process ops."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        sum(i * i for i in range(20_000))
        for _ in range(4):
            np.exp(-PROBE_ARRAY * PROBE_ARRAY).sum()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SpeedScale:
    """Scales timed calls to the host's speed at a reference point.

    A small shared host runs the same code up to half again as slowly from
    one few seconds to the next, and the share of slow spells in a run
    varies more from run to run than its ops do. A fixed
    probe task is timed before the first call and after each call, where
    the calls run (a bare interpreter for child processes, interpreter and
    numpy work for in-process calls). A call's factor is the reference
    probe time over the median of the probes nearest it, SCALE_WINDOW on
    each side beyond the two that bracket it, which follows the host's
    drift without one probe's noise. The drift cancels; a change to the
    program, which no probe runs, shows in full. Unscaled figures go to
    the info record.
    """

    def __init__(self, probe, reference_s: float):
        self.probe, self.reference_s = probe, reference_s
        self.probes = [probe()]

    def after_call(self) -> None:
        self.probes.append(self.probe())

    def current(self) -> float:
        """The factor at the latest probe, from the probes before it."""
        return self.reference_s / statistics.median(self.probes[-2 - 2 * SCALE_WINDOW:])

    def factors(self) -> list[float]:
        """One factor per call made so far."""
        return [self.reference_s / statistics.median(
                    self.probes[max(0, i - SCALE_WINDOW):i + 2 + SCALE_WINDOW])
                for i in range(len(self.probes) - 1)]


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops above it."""
    ordered = sorted(times)
    rank = len(ordered) - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def closed_loop(seconds: float, op_at, run_op, scale: SpeedScale, min_ops: int = MIN_OPS,
                multiple: int = 1) -> list[tuple[Op, Outcome]]:
    """Send ops back to back for about ``seconds`` at the reference speed.

    The loop may stop only after min_ops ops and on a multiple of
    ``multiple`` ops; of those points it stops at the one nearest the
    deadline, judging the next stretch by the last one. Elapsed time is
    scaled like the ops, op by op, so that a run holds as many ops in a
    fast spell of the host as in a slow one, and its tail percentile
    stays the same.
    """
    done: list[tuple[Op, Outcome]] = []
    elapsed = last_stop = 0.0
    while True:
        start = time.perf_counter()
        op = op_at(len(done))
        done.append((op, run_op(op)))
        scale.after_call()
        elapsed += (time.perf_counter() - start) * scale.current()
        if len(done) % multiple:
            continue
        if len(done) >= min_ops and elapsed + (elapsed - last_stop) / 2.0 >= seconds:
            break
        last_stop = elapsed
    for (_, outcome), factor in zip(done, scale.factors()):
        outcome.scale = factor
    return done


def tally(done: list[tuple[Op, Outcome]]) -> tuple[bool, int, int, dict]:
    failed = [(op, o) for op, o in done if not o.verdict.ok]
    unexplained = [(op, o) for op, o in failed if o.verdict.known_defect is None]
    defects: dict[str, int] = {}
    for _, o in failed:
        if o.verdict.known_defect:
            defects[o.verdict.known_defect] = defects.get(o.verdict.known_defect, 0) + 1
    info = {"failed_known_defect": defects,
            "failures": [f"op {op.index} {op.command}: {o.verdict.detail}"
                         for op, o in unexplained[:5]]}
    return not unexplained, len(done), len(failed), info


def scan_figures(done: list[tuple[Op, Outcome]]) -> dict:
    passed = [o for _, o in done if o.verdict.ok and o.verdict.scan_error is not None]
    if not passed:
        return {}
    wall = sum(o.seconds for _, o in done)
    return {"points_per_s": {"value": sum(o.verdict.points for o in passed) / wall,
                             "unit": "1/s"},
            "scan_err_max": {"value": max(o.verdict.scan_error for o in passed),
                             "unit": "fraction"}}


def untraced_run(workload: str, seed: int, seconds: float, workdir: Path,
                 runner: ProcessRunner, info: dict) -> dict:
    setup_scale = SpeedScale(runner.floor, PROCESS_REFERENCE_S)
    probes = []
    for _ in range(SETUP_SAMPLES):
        probes.append(runner.probe())
        setup_scale.after_call()
    info["machine"] = machine(probes[0])
    info["interp.start_s"] = statistics.median(setup_scale.probes)
    setup_s = statistics.median(p["wall_s"] * factor
                                for p, factor in zip(probes, setup_scale.factors()))
    op_at, period, whole = plan(workload, seed, workdir)
    multiple = period if whole else 1
    if workload == "oracles":
        validation = import_in_process().validation

        def run_op(op: Op) -> Outcome:
            start = time.perf_counter()
            results = validation.run_all(op.seed)
            return Outcome(time.perf_counter() - start, verify(op, results))

        done = closed_loop(seconds, op_at, run_op,
                           SpeedScale(in_process_probe, IN_PROCESS_REFERENCE_S),
                           multiple=multiple)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        done = closed_loop(seconds, op_at, runner.cli_op,
                           SpeedScale(runner.floor, PROCESS_REFERENCE_S), multiple=multiple)
        rss = max(o.rss_mb for _, o in done)
    times = [o.scaled_s for _, o in done]
    passed = sum(o.verdict.ok for _, o in done)
    tail_value, tail_pct = tail(times)
    correct, attempted, failed, tally_info = tally(done)
    info.update(tally_info)
    info["op_tail_s"] = {"percentile": tail_pct, "samples": len(times)}
    walls = [o.seconds for _, o in done]
    info["unscaled"] = {"setup_s": statistics.median(p["wall_s"] for p in probes),
                        "op_p50_s": statistics.median(walls),
                        "op_tail_s": tail(walls)[0], "ops_per_s": passed / sum(walls)}
    info["scale"] = [o.scale for _, o in done]
    info["op_s"] = walls
    info["scan_figures"] = scan_figures(done)
    metrics = {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_value,
        "ops_per_s": passed / sum(times),
        "peak_rss_mb": rss,
    }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}}


def import_in_process():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cavray
    import cavray.cli
    import cavray.validation
    if Path(cavray.__file__).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"imported cavray from {cavray.__file__}, not {SRC}")
    return cavray


def traced_run(workload: str, seed: int, seconds: float, workdir: Path,
               runner: ProcessRunner, info: dict) -> dict:
    probes = [runner.probe() for _ in range(SETUP_SAMPLES + 1)][1:]
    info["machine"] = machine(probes[0])
    interp_s = runner.median_wall("pass", SETUP_SAMPLES)
    info["interp.start_s"] = interp_s
    cavray = import_in_process()
    modules = {name: getattr(cavray, name) for name in TRACED_MODULES}
    modules["cavray"] = cavray
    tracer = spans.Tracer(modules, SPAN_SIZES)
    op_at, period, _ = plan(workload, seed, workdir)

    def is_traced(op: Op) -> bool:
        # whole periods alternate, so traced and untraced ops share one mix
        return (op.index // period) % 2 == 0

    def call(op: Op):
        if op.command == "run_all":
            return cavray.validation.run_all(op.seed)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cavray.cli.main(op.argv)
        if code != 0:
            raise RuntimeError(f"exit {code}: {stderr.getvalue()[-300:]}")
        return stdout.getvalue()

    def run_op(op: Op) -> Outcome:
        traced = is_traced(op)
        if traced:
            tracer.install()
        start = time.perf_counter()
        try:
            output = tracer.run_op(op.index, call, op)[0] if traced else call(op)
        except Exception as exc:  # an op that raises is a failed op, not a dead run
            return Outcome(time.perf_counter() - start,
                           checks.Verdict(False, f"raised {exc!r}"))
        finally:
            if traced:
                tracer.uninstall()
                tracer.flush(keep=tracer.flushed < SPANS_KEPT)
        elapsed = time.perf_counter() - start
        if isinstance(output, str):
            return Outcome(elapsed, verify(op, output), output_bytes=len(output))
        return Outcome(elapsed, verify(op, output),
                       checks_passed=sum(r.passed for r in output))

    # one untimed op first, so that neither pass pays for first-use costs;
    # if it fails, the same op fails again below and is counted there
    with contextlib.suppress(Exception):
        call(op_at(0))
    done = closed_loop(seconds, op_at, run_op,
                       SpeedScale(in_process_probe, IN_PROCESS_REFERENCE_S),
                       max(MIN_OPS, 2 * period))
    tracer.write_csv(WORK / f"spans-{workload}.csv")
    traced_out = [o for op, o in done if is_traced(op)]
    untraced_out = [o for op, o in done if not is_traced(op)]
    n = len(traced_out)
    totals = tracer.totals

    def total(field: str, names) -> float:
        return sum(getattr(totals[k], field) for k in names if k in totals)

    op_ns = total("busy_ns", [spans.ROOT_NAME])
    untraced_p50 = statistics.median(o.scaled_s for o in untraced_out)
    import_s = statistics.median(p["import_s"] for p in probes)
    values = {
        "interp.start_s": interp_s,
        "import.cavray_s": import_s,
        "import.modules": statistics.median(p["modules"] for p in probes),
        "import.scipy_modules": statistics.median(p["scipy_modules"] for p in probes),
        "import.op_share": import_s / (interp_s + import_s + untraced_p50),
        "cli.main.self_s": total("self_ns", [k for k in totals if k.startswith("cli.")])
        / 1e9 / n,
        "cli.output_bytes": sum(o.output_bytes for o in traced_out) / n,
        "trace.overhead_ratio": statistics.median(o.scaled_s for o in traced_out)
        / untraced_p50,
        "scan_err_max": max((o.verdict.scan_error for o in traced_out
                             if o.verdict.ok and o.verdict.scan_error is not None),
                            default=0.0),
        "validation.checks_passed": sum(o.checks_passed for o in traced_out) / n,
    }
    for metric in PER_LAYER:
        if metric in values:
            continue
        stem, _, kind = metric.rpartition(".")
        names = SPAN_GROUPS.get(metric, [stem])
        if kind == "busy_s":
            values[metric] = total("busy_ns", names) / 1e9 / n
        elif kind == "self_s":
            values[metric] = total("self_ns", names) / 1e9 / n
        elif kind == "calls":
            values[metric] = total("calls", names) / n
        elif kind == "ns_per_point":
            points = total("size", names)
            values[metric] = total("busy_ns", names) / points if points else 0.0
        elif kind == "errors":
            values[metric] = total("errors", [k for k in totals
                                              if k.startswith(stem + ".")]) / n
        else:
            raise KeyError(f"no rule for per-layer metric {metric}")
    ranked = sorted(((t.self_ns, k) for k, t in totals.items()), reverse=True)[:6]
    info["self_share_of_op"] = {k: ns / op_ns for ns, k in ranked}
    correct, attempted, failed, tally_info = tally(done)
    info.update(tally_info)
    info["traced_ops"] = n
    info["spans"] = tracer.flushed
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "cavray" / "__init__.py").is_file():
        print(f"no cavray sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    def on_signal(signum, frame):
        raise BenchmarkTimeout(f"stopped by {signal.Signals(signum).name} "
                               f"(watchdog {WATCHDOG_S} s)")

    signal.signal(signal.SIGALRM, on_signal)
    signal.signal(signal.SIGTERM, on_signal)
    signal.alarm(WATCHDOG_S)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    # One CPU for the client and every child it starts: the host runs each
    # virtual CPU at its own, changing speed, and a speed probe tells only
    # of the CPU it ran on.
    if hasattr(os, "sched_setaffinity"):
        info["cpu_pinned"] = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {info["cpu_pinned"]})
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir()
    runner = ProcessRunner(workdir)
    try:
        body = traced_run if args.trace else untraced_run
        result = body(args.workload, args.seed, args.seconds, workdir, runner, info)
    except (BenchmarkTimeout, RuntimeError, OSError) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        runner.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    for key, metric in result["metrics"].items():
        if not math.isfinite(metric["value"]):
            print(f"metric {key} is not finite", file=sys.stderr)
            return 3
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
