"""Output-size estimation, analytic thresholds, and the cost-based sweep."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .matmul import CalibrationError, CalibrationTable, estimate_runtime
from .relation import DegreeStats, IndexedRelation

FULL_JOIN = "fulljoin"
PARTITIONED = "partitioned"

# full join wins while OUT_join stays within this multiple of the input size
FULL_JOIN_CUTOFF = 20


class PlanError(ValueError):
    pass


@dataclass
class ThresholdPlan:
    strategy: str
    delta1: int
    delta2: int
    light_cost: float = 0.0
    heavy_cost: float = 0.0
    iterations: int = 0

    def validate(self) -> None:
        if self.strategy not in (FULL_JOIN, PARTITIONED):
            raise PlanError(f"unknown strategy {self.strategy!r}")
        if self.strategy == PARTITIONED and (self.delta1 < 1 or self.delta2 < 1):
            raise PlanError("partitioned plans need delta1, delta2 >= 1")

    @property
    def total_cost(self) -> float:
        return self.light_cost + self.heavy_cost

    def to_tsv_line(self) -> str:
        return "\t".join(str(x) for x in (
            self.strategy, self.delta1, self.delta2,
            self.light_cost, self.heavy_cost, self.iterations))

    @classmethod
    def from_tsv_line(cls, line: str) -> "ThresholdPlan":
        s, d1, d2, cl, ch, it = line.rstrip("\n").split("\t")
        plan = cls(s, int(d1), int(d2), float(cl), float(ch), int(it))
        plan.validate()
        return plan


@dataclass
class CostConstants:
    """Per-operation nanos for the light-cost model."""
    T_s: float = 2.0
    T_m: float = 30.0
    T_I: float = 8.0

    def validate(self) -> None:
        if min(self.T_s, self.T_m, self.T_I) <= 0:
            raise ValueError("cost constants must be strictly positive")


DEFAULT_COSTS = CostConstants()


def estimate_output_size(dom_x: int, out_join: int, n: int) -> int:
    """Geometric mean of the analytic lower and upper |OUT| bounds."""
    if out_join < 0 or n < 1:
        raise ValueError("out_join >= 0 and n >= 1 required")
    if out_join == 0 or dom_x == 0:
        return 0
    lower = max(dom_x, (out_join / n) ** 2)
    upper = min(dom_x * dom_x, out_join)
    est = math.ceil(math.sqrt(lower * upper))
    if upper >= 1:
        est = max(1, min(est, upper))
    return int(est)


def _ceil_cbrt_ratio(num: int, den: int) -> int:
    """Smallest integer k with k^3 * den >= num; float-roundoff safe."""
    k = max(1, round((num / den) ** (1.0 / 3.0)))
    while k ** 3 * den < num:
        k += 1
    while k > 1 and (k - 1) ** 3 * den >= num:
        k -= 1
    return k


def closed_form_thresholds(n: int, out_est: int) -> tuple[int, int]:
    """Analytic minimizers of the omega=2 cost; clamped to [1, n]."""
    if n < 1 or out_est < 1:
        raise ValueError("n >= 1 and out_est >= 1 required")
    if out_est <= n:
        d1 = _ceil_cbrt_ratio(out_est, 1)
        # ceil(n / out_est^(2/3)) as the smallest d with d^3*out^2 >= n^3
        d2 = _ceil_cbrt_ratio(n ** 3, out_est ** 2)
    else:
        d1 = d2 = _ceil_cbrt_ratio(2 * n * n, n + out_est)
    clamp = lambda d: max(1, min(d, n))
    return clamp(d1), clamp(d2)


def modeled_costs(stats_r: DegreeStats, stats_s: DegreeStats, dom_x: int,
                  delta1: int, delta2: int, consts: CostConstants,
                  table: CalibrationTable) -> tuple[float, float]:
    """(t_light, t_heavy) for a candidate threshold pair.

    stats_r must be built with the join partner so sum_x reflects the partner
    list lengths; stats_s is the partner's own stats.
    """
    t_light = (consts.T_I * stats_s.sum_y(delta1)
               + consts.T_I * stats_r.sum_x(delta2)
               + consts.T_m * dom_x
               + consts.T_s * stats_s.cdfx(delta1) * dom_x)
    u = dom_x - stats_r.count_left(delta2)
    v = stats_s.dom_right - stats_s.count_right(delta1)
    w = stats_s.dom_left - stats_s.count_left(delta2)
    if min(u, v, w) <= 0:
        return t_light, 0.0
    t_heavy = (estimate_runtime(table, u, v, w)
               + consts.T_m * (u * v + u * w))
    return t_light, float(t_heavy)


def optimize_thresholds(stats_r: DegreeStats, stats_s: DegreeStats,
                        dom_x: int, out_join: int,
                        consts: CostConstants = DEFAULT_COSTS,
                        table: Optional[CalibrationTable] = None,
                        step: float = 0.05) -> ThresholdPlan:
    """Geometric delta1 sweep, stopping at the first modeled-cost increase."""
    if not 0 < step < 1:
        raise ValueError("step must be in (0, 1)")
    n = max(stats_r.n_tuples, stats_s.n_tuples)
    if out_join <= FULL_JOIN_CUTOFF * n:
        return ThresholdPlan(FULL_JOIN, n, n, float(out_join), 0.0, 0)
    if table is None or not table.entries:
        raise CalibrationError("optimizer needs a calibration table; run calibrate")

    out_est = max(1, estimate_output_size(dom_x, out_join, n))
    # the first modeled candidate is always accepted; comparisons are between
    # successive modeled costs only
    d1, d2 = n, n
    t_light, t_heavy = math.inf, 0.0
    iterations = 0
    while True:
        prev_light, prev_heavy = t_light, t_heavy
        prev_d1, prev_d2 = d1, d2
        d1 = max(1, math.floor((1 - step) * d1))
        d2 = max(1, min(n, round(n * d1 / out_est)))
        t_light, t_heavy = modeled_costs(stats_r, stats_s, dom_x, d1, d2,
                                         consts, table)
        iterations += 1
        # stop on the first strict increase; plateaus keep sweeping
        if t_light + t_heavy > prev_light + prev_heavy:
            return ThresholdPlan(PARTITIONED, prev_d1, prev_d2,
                                 prev_light, prev_heavy, iterations)
        if d1 == 1:
            return ThresholdPlan(PARTITIONED, d1, d2, t_light, t_heavy,
                                 iterations)


def default_plan(r: IndexedRelation, s: IndexedRelation) -> ThresholdPlan:
    """Calibration-free plan: full-join cutoff, then closed-form thresholds."""
    n = max(r.n, s.n)
    out_join = r.out_join_with(s)
    if out_join <= FULL_JOIN_CUTOFF * n or n == 0:
        return ThresholdPlan(FULL_JOIN, max(n, 1), max(n, 1), float(out_join), 0.0, 0)
    out_est = max(1, estimate_output_size(r.rel.dom_left, out_join, n))
    d1, d2 = closed_form_thresholds(n, out_est)
    return ThresholdPlan(PARTITIONED, d1, d2, 0.0, 0.0, 0)
