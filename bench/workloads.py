"""The benchmark's workloads: inputs made from a seed, the CLI commands of
each op, and the output check of each op.

A workload builds a pool of inputs in ``setup`` and the harness cycles
through it, one op after the other (a closed loop with one client).
``steps(k)`` gives the argv of every CLI command of the k-th op; ``check(k)``
verifies that op's outputs and runs outside the timed region; ``rows(k)``
counts the log rows the op wrote plus the rows it read.
"""

from __future__ import annotations

import importlib
import json
import math
from pathlib import Path

import numpy as np

# Tracker noise of the simulated sessions and trials: 0.1 mm / 0.05 deg.
NOISE_ARGS = ["--tracker-trans-sigma", "0.1", "--tracker-rot-sigma-deg", "0.05"]
# Manual-operator jitter of the bulk-log trials, passed to the CLI and used
# for the in-memory reference recording.
JITTER = {"lateral_sigma_mm": 1.1, "depth_bias_mm": 3.0, "depth_sigma_mm": 0.8}
JITTER_ARGS = ["--lateral-sigma", "1.1", "--depth-bias", "3.0", "--depth-sigma", "0.8"]

# Acceptance-suite tolerances at this noise level (criteria 1 and 2:
# 0.5 deg and 1.0 mm for hand-eye, 0.3 mm for the pivot tip), widened 3x:
# paper-scale sessions use fewer stations and poses than the acceptance
# suite (15 vs 20, 40 vs 50) and add rotation noise to the pivot poses.
# Over 2000 paper-scale sessions the largest errors were 0.07 deg, 2.1 mm,
# 0.46 mm (pivot tip) and 0.74 mm (tip in EE), and the largest tip spread
# 1.5 mm, hence the 3 mm spread limit passed to calibrate-tip.
ROT_TOL_DEG = 1.5
TRANS_TOL_MM = 3.0
PIVOT_TOL_MM = 0.9
TIP_TOL_MM = 3.0
MAX_TIP_SPREAD_MM = "3.0"


def run_cli(cli, argv: list[str]) -> None:
    """Run one CLI command in-process; raise if it does not exit 0."""
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"{argv[0]} exited {code}")


def count_rows(path: Path) -> int:
    """Data rows of a CSV log (every line after the header)."""
    return path.read_bytes().count(b"\n") - 1


def _strata(rng: np.random.Generator, order: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """One draw from each of len(order) equal strata of [lo, hi); draw i
    comes from stratum order[i]. The pool's spread of values then hardly
    moves from seed to seed."""
    u = (order + rng.uniform(0.0, 1.0, len(order))) / len(order)
    return lo + u * (hi - lo)


def _plan_docs(rng: np.random.Generator, n: int) -> list[dict]:
    """Straight cuts in random orientations at 3 mm/s. Length, depth and
    pass count share one stratum per plan, so plan i is as large as its
    stratum and the pool's median plan is mid-sized whatever the seed."""
    order = rng.permutation(n)
    lengths = _strata(rng, order, 60.0, 120.0)
    depths = _strata(rng, order, 4.0, 10.0)
    increments = _strata(rng, order, 1.0, 0.35)  # as a share of the depth
    docs = []
    for i in range(n):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        docs.append(
            {
                "entry_point": (np.array([120.0, -40.0, 60.0]) + rng.uniform(-50, 50, 3)).tolist(),
                "direction": q[:, 0].tolist(),
                "depth_axis": q[:, 1].tolist(),
                "length_mm": float(lengths[i]),
                "target_depth_mm": float(depths[i]),
                "cutting_speed_mm_s": 3.0,
                "pass_policy": {"depth_increment_mm": float(increments[i] * depths[i])},
                "analysis": {"K": 100, "gating": "active_only", "lateral_mode": "lateral"},
            }
        )
    return docs


def _seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, n)]


def _angle_deg(a, b) -> float:
    """Angle of the rotation between two rotation matrices, degrees."""
    c = (np.trace(np.asarray(a).T @ np.asarray(b)) - 1.0) / 2.0
    return math.degrees(math.acos(min(1.0, max(-1.0, c))))


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


class Calibrate:
    """Calibration sessions: calibrate-handeye, calibrate-pivot, calibrate-tip."""

    name = "calibrate"

    def __init__(self, seed: int, sessions: int = 8, paper=(15, 40, 5), stress=(40, 200, 5)):
        self.seed = seed
        self.sessions = sessions
        self.paper = paper
        self.stress = stress
        self.worst = {"rot_err_deg": 0.0, "trans_err_mm": 0.0, "tip_err_mm": 0.0}

    def setup(self, cli, work: Path) -> None:
        self.work = work
        self.pool = []
        for i, seed in enumerate(_seeds(np.random.default_rng(self.seed), self.sessions)):
            # every fourth session is stress scale, so op_p50 lies inside the
            # paper sessions and op_p90 inside the stress ones
            stress = i % 4 == 3
            stations, pivot_poses, tip_samples = self.stress if stress else self.paper
            d = work / f"session{i}"
            d.mkdir(parents=True)
            common = ["--seed", str(seed), *NOISE_ARGS]
            run_cli(cli, ["simulate", "handeye", "--poses", str(stations), *common,
                          "--output", str(d / "handeye.csv"),
                          "--ground-truth-output", str(d / "truth.json")])
            run_cli(cli, ["simulate", "pivot", "--poses", str(pivot_poses), *common,
                          "--output", str(d / "pivot.csv")])
            run_cli(cli, ["simulate", "tipcal", "--poses", str(tip_samples), *common,
                          "--output", str(d / "tipcal.csv")])
            rows = sum(count_rows(d / f) for f in ("handeye.csv", "pivot.csv", "tipcal.csv"))
            self.pool.append((d, "all_pairs" if stress else "consecutive", rows))

    def steps(self, k: int) -> list[list[str]]:
        d, pairing, _ = self.pool[k % len(self.pool)]
        return [
            ["calibrate-handeye", "--input", str(d / "handeye.csv"), "--pairing", pairing,
             "--output", str(d / "handeye_solution.json")],
            ["calibrate-pivot", "--input", str(d / "pivot.csv"),
             "--output", str(d / "pivot_solution.json")],
            ["calibrate-tip", "--input", str(d / "tipcal.csv"),
             "--handeye", str(d / "handeye_solution.json"),
             "--max-spread-mm", MAX_TIP_SPREAD_MM, "--output", str(d / "tip_solution.json")],
        ]

    def rows(self, k: int) -> int:
        return self.pool[k % len(self.pool)][2]

    def check(self, k: int) -> None:
        d = self.pool[k % len(self.pool)][0]
        truth = _load(d / "truth.json")
        handeye = _load(d / "handeye_solution.json")
        pivot = _load(d / "pivot_solution.json")
        tip = _load(d / "tip_solution.json")
        rot = max(
            _angle_deg(handeye[key]["rotation"], truth[key]["rotation"])
            for key in ("base_from_tracker", "ee_from_tool")
        )
        trans = max(
            float(np.linalg.norm(np.subtract(handeye[key]["translation_mm"], truth[key]["translation_mm"])))
            for key in ("base_from_tracker", "ee_from_tool")
        )
        tip_err = float(np.linalg.norm(np.subtract(pivot["tip_in_tool_mm"], truth["tip_in_tool_mm"])))
        x = truth["ee_from_tool"]
        tip_in_ee = np.asarray(x["rotation"]) @ truth["tip_in_tool_mm"] + x["translation_mm"]
        tip_ee_err = float(np.linalg.norm(tip["ee_from_tip"]["translation_mm"] - tip_in_ee))
        self.worst["rot_err_deg"] = max(self.worst["rot_err_deg"], rot)
        self.worst["trans_err_mm"] = max(self.worst["trans_err_mm"], trans)
        self.worst["tip_err_mm"] = max(self.worst["tip_err_mm"], tip_err)
        if not (rot < ROT_TOL_DEG and trans < TRANS_TOL_MM):
            raise AssertionError(f"hand-eye error {rot:.3g} deg / {trans:.3g} mm in {d.name}")
        if not tip_err < PIVOT_TOL_MM:
            raise AssertionError(f"pivot tip error {tip_err:.3g} mm in {d.name}")
        if not tip_ee_err < TIP_TOL_MM:
            raise AssertionError(f"tip-in-EE error {tip_ee_err:.3g} mm in {d.name}")


class Trials:
    """Trial pairs at 10 Hz: simulate ruso + analyze, simulate muso + analyze;
    a final report over every analyze output."""

    name = "trials"

    def __init__(self, seed: int, plans: int = 16, rate_hz: float = 10.0):
        self.seed = seed
        self.plans = plans
        self.rate = repr(rate_hz)

    def setup(self, cli, work: Path) -> None:
        self.work = work
        work.mkdir(parents=True)
        rng = np.random.default_rng(self.seed)
        self.pool = []
        for i, (doc, seed) in enumerate(zip(_plan_docs(rng, self.plans), _seeds(rng, self.plans))):
            plan = work / f"plan{i}.json"
            plan.write_text(json.dumps(doc), encoding="utf-8")
            self.pool.append((plan, seed))
        self.reports: dict[Path, None] = {}  # analyze outputs checked so far, in order
        report = importlib.import_module("cutcal.report")
        self._parse_report, self._serialize_report = report.parse_report, report.serialize_report

    def _outputs(self, k: int) -> tuple[Path, Path]:
        return self.work / f"ruso_report{k}.json", self.work / f"muso_report{k}.json"

    def steps(self, k: int) -> list[list[str]]:
        plan, seed = self.pool[k % len(self.pool)]
        ruso_report, muso_report = self._outputs(k)
        common = ["--plan", str(plan), "--seed", str(seed), "--rate", self.rate]
        return [
            ["simulate", "ruso", *common, *NOISE_ARGS, "--output", str(self.work / "ruso.csv")],
            ["analyze", "--traj", str(self.work / "ruso.csv"), "--plan", str(plan),
             "--label", f"R1.{k + 1}", "--output", str(ruso_report)],
            ["simulate", "muso", *common, "--output", str(self.work / "muso.csv")],
            ["analyze", "--traj", str(self.work / "muso.csv"), "--plan", str(plan),
             "--label", f"M1.{k + 1}", "--output", str(muso_report)],
        ]

    def rows(self, k: int) -> int:
        # each log is written once and read once
        return 2 * (count_rows(self.work / "ruso.csv") + count_rows(self.work / "muso.csv"))

    def check(self, k: int) -> None:
        for path in self._outputs(k):
            text = path.read_text(encoding="utf-8")
            (report,) = self._parse_report(text)
            if self._serialize_report(report) != text:
                raise AssertionError(f"{path.name} does not round-trip through parse_report")
            self.reports[path] = None

    def final_steps(self) -> list[list[str]]:
        return [["report", "--input", *map(str, self.reports), "--format", "json",
                 "--output", str(self.work / "table.json")]]

    def check_final(self) -> None:
        table = _load(self.work / "table.json")
        if sorted(row["set"] for row in table) != ["M1", "R1"]:
            raise AssertionError("report table does not hold sets M1 and R1")
        if sum(row["trials"] for row in table) != len(self.reports):
            raise AssertionError("report table does not count every trial")


class BulkLog:
    """Large manual trials: simulate muso at ~1 kHz, then analyze the log."""

    name = "bulk-log"

    def __init__(self, seed: int, plans: int = 2, rows=(190_000, 210_000)):
        self.seed = seed
        self.plans = plans
        self.row_range = rows

    def setup(self, cli, work: Path) -> None:
        self.work = work
        work.mkdir(parents=True)
        simrig = importlib.import_module("cutcal.simrig")
        logio = importlib.import_module("cutcal.logio")
        rng = np.random.default_rng(self.seed)
        targets = _strata(rng, rng.permutation(self.plans), *self.row_range)
        self.pool = []
        for i, (doc, seed) in enumerate(zip(_plan_docs(rng, self.plans), _seeds(rng, self.plans))):
            plan = work / f"plan{i}.json"
            plan.write_text(json.dumps(doc), encoding="utf-8")
            # the trial's duration does not depend on the rate, so a 1 Hz
            # draw gives the rate that yields the target row count
            probe = simrig.synthesize_muso_trial(
                logio.parse_plan(plan.read_bytes()).plan, simrig.JitterModel(**JITTER), rate_hz=1.0, seed=seed
            )
            rate = float(targets[i] / probe.timestamps[-1])
            self.pool.append((plan, seed, rate))
        self.expected: dict[int, str] = {}

    def _label(self, i: int) -> str:
        return f"B1.{i + 1}"

    def steps(self, k: int) -> list[list[str]]:
        i = k % len(self.pool)
        plan, seed, rate = self.pool[i]
        return [
            ["simulate", "muso", "--plan", str(plan), "--seed", str(seed), "--rate", repr(rate),
             *JITTER_ARGS, "--output", str(self.work / "bulk.csv")],
            ["analyze", "--traj", str(self.work / "bulk.csv"), "--plan", str(plan),
             "--label", self._label(i), "--output", str(self.work / f"report{i}.json")],
        ]

    def rows(self, k: int) -> int:
        return 2 * count_rows(self.work / "bulk.csv")

    def check(self, k: int) -> None:
        """The report of the parsed log equals, byte for byte, the report of
        the recording synthesized in memory: repr text I/O is lossless."""
        i = k % len(self.pool)
        if i not in self.expected:
            simrig = importlib.import_module("cutcal.simrig")
            logio = importlib.import_module("cutcal.logio")
            metrics = importlib.import_module("cutcal.metrics")
            report = importlib.import_module("cutcal.report")
            plan, seed, rate = self.pool[i]
            pf = logio.parse_plan(plan.read_bytes())
            rec = simrig.synthesize_muso_trial(pf.plan, simrig.JitterModel(**JITTER), rate_hz=rate, seed=seed)
            self.expected[i] = report.serialize_report(
                metrics.build_report(
                    rec, pf.plan, pf.analysis.bin_count, self._label(i),
                    gate=pf.analysis.gate, lateral_mode=pf.analysis.lateral_mode,
                )
            )
        if (self.work / f"report{i}.json").read_text(encoding="utf-8") != self.expected[i]:
            raise AssertionError(f"report{i}.json differs from the in-memory report")


WORKLOADS = {w.name: w for w in (Calibrate, Trials, BulkLog)}
