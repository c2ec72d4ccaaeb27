"""Tests of the benchmark itself: generator, comb oracle, checks and spans."""

import contextlib
import io
import json
import math
import random
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import comb  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workgen  # noqa: E402

import cavray  # noqa: E402
import cavray.cli  # noqa: E402
import cavray.validation  # noqa: E402
from cavray.config import parse_config  # noqa: E402

DEMO = ROOT / "demos" / "reference_cavity.cfg"


@pytest.mark.parametrize("workload", ["reports", "scan-wide", "scan-dense"])
def test_generator_gives_identical_configs_for_a_seed(workload, tmp_path):
    first = workgen.make_pool(workload, 7)
    paths = workgen.write_pool(first, tmp_path)
    again = [workgen.render(v) for v in workgen.make_pool(workload, 7)]
    assert [p.read_text(encoding="utf-8") for p in paths] == again
    assert again != [workgen.render(v) for v in workgen.make_pool(workload, 8)]
    for path in paths:
        assert parse_config(path)


def test_scan_pools_put_half_the_configs_at_the_table_temperature():
    for workload in ("scan-wide", "scan-dense"):
        temperatures = [c["gas.temperature_K"] for c in workgen.make_pool(workload, 3)]
        at_table = [t == workgen.TABLE_TEMPERATURE_K for t in temperatures]
        assert at_table == [j % 2 == 0 for j in range(len(temperatures))]
        assert all(77.0 <= t <= 400.0 for t in temperatures)


def test_comb_oracle_matches_brute_force_voigt_sum():
    special = pytest.importorskip("scipy.special")
    fsr = 25e9
    hwhm = fsr / 1000.0 / 2.0
    lines = [(1.0, comb.observed_sigma(532e-9, 295.0, 131.29)),
             (0.4, comb.observed_sigma(532e-9, 150.0, 28.01))]
    nu = np.linspace(0.0, 2.0 * fsr, 201)
    orders = np.arange(-2000, 2000) * fsr
    brute = sum(strength * math.pi * hwhm
                * special.voigt_profile(nu[:, None] - orders[None, :], sigma, hwhm).sum(axis=1)
                for strength, sigma in lines)
    series = comb.comb(nu, fsr, hwhm, lines)
    assert np.max(np.abs(series - brute)) / np.max(series) < 1e-7


def _scan_text(values: dict, tmp_path: Path) -> str:
    path = workgen.write_pool([values], tmp_path)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cavray.cli.main(["scan", "--config", str(path), "--format", "csv"]) == 0
    return out.getvalue()


def test_scan_check_passes_a_scan_and_names_the_temperature_defect(tmp_path):
    values = workgen.scan_config(random.Random(5), 2.0, 4001, workgen.TABLE_TEMPERATURE_K)
    text = _scan_text(values, tmp_path)
    verdict = checks.check_scan(values, text, "csv")
    assert verdict.ok and verdict.scan_error < checks.SCAN_TOLERANCE
    # a 295 K trace under a 150 K config is what a scan that ignores
    # gas.temperature_K writes
    colder = dict(values, **{"gas.temperature_K": 150.0})
    verdict = checks.check_scan(colder, text, "csv")
    assert not verdict.ok and verdict.known_defect == checks.TEMPERATURE_DEFECT
    longer = dict(values, **{"cavity.separation_mm": values["cavity.separation_mm"] * 1.01})
    verdict = checks.check_scan(longer, text, "csv")
    assert not verdict.ok and verdict.known_defect is None


def test_span_self_times_sum_to_op_wall_time():
    modules = {name: getattr(cavray, name) for name in run.TRACED_MODULES}
    modules["cavray"] = cavray
    tracer = spans.Tracer(modules, run.SPAN_SIZES)
    original = cavray.cli.parse_config
    tracer.install()
    try:
        start = time.perf_counter_ns()
        with contextlib.redirect_stdout(io.StringIO()):
            code, root = tracer.run_op(0, cavray.cli.main,
                                       ["overlap", "--config", str(DEMO), "--format", "json"])
        wall = time.perf_counter_ns() - start
    finally:
        tracer.uninstall()
    assert code == 0
    assert cavray.cli.parse_config is original
    names = {s.name for s in tracer.spans}
    # reached through cli's own ``from .config import parse_config``
    assert {"cli.main", "cli.cmd_overlap", "config.parse_config",
            "overlap.overlap_eta_numeric"} <= names
    own = spans.self_times(tracer.spans)
    assert min(own) >= 0
    assert sum(own) == root.end_ns - root.start_ns
    assert 0 <= wall - sum(own) < 0.05 * wall


def test_tracer_reaches_the_oracle_table():
    modules = {"validation": cavray.validation}
    tracer = spans.Tracer(modules)
    tracer.install()
    try:
        wrapped = cavray.validation.ALL_CHECKS
    finally:
        tracer.uninstall()
    assert all(hasattr(check, "__wrapped__") for check in wrapped)
    assert not any(hasattr(check, "__wrapped__") for check in cavray.validation.ALL_CHECKS)
    assert [c.__name__ for c in wrapped] == list(run.CHECK_NAMES)


def test_speed_scale_cancels_a_slowdown_that_outlasts_its_window():
    probes = iter([0.25] * 8 + [0.5] * 8)
    scale = run.SpeedScale(lambda: next(probes), 0.25)
    for _ in range(15):
        scale.after_call()
    factors = scale.factors()
    assert len(factors) == 15
    assert factors[:5] == [1.0] * 5
    assert factors[10:] == [0.5] * 5
    assert scale.current() == 0.5


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
