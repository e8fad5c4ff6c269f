"""Parameter grids, batch runs, CSV persistence, and analytical-vs-simulated diffs.

The CSV layout is fixed: one row per (configuration, source), reals written
as shortest round-trip decimals, missing values as empty fields. Delay columns
carry the _sym suffix (symbols); an optional export adds millisecond columns.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from .core import (
    CONSTANTS, DELAYS, TASKS, Engine, NetworkConfig, PerformanceReport, TrafficMode, parallel_map,
)
from .analytical import MIN_NODES, NonConvergenceError, SolverSettings, solve
from .metrics import report as metrics_report

if TYPE_CHECKING:
    import numpy as np

_SYM_COLUMNS = {name: f"{name}_sym" for name in DELAYS}  # ResultRow attribute of each delay
MS_COLUMNS = [f"{name}_ms" for name in DELAYS]
SYMBOL_MS = CONSTANTS.symbolDurationMicroseconds / 1000  # one symbol in milliseconds

DIFF_METRICS = ["tau", "a", "TH", "PS", "TS_sym", "TVS_sym"]


@dataclass(frozen=True, slots=True)
class SweepSpec:
    mode: TrafficMode
    N_values: tuple[int, ...]
    L_values: tuple[int, ...]
    r_values: tuple[float, ...]
    M_values: tuple[int, ...]
    engine: Engine = Engine.ANALYTICAL
    solver: SolverSettings = SolverSettings()
    horizon: int = 1_000_000
    warmup: int | None = None
    replications: int = 50
    base_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "mode", TrafficMode(self.mode))  # the enum or its value
        axes = self.axes()
        if not all(axes):
            raise ValueError("empty grid")
        size = math.prod(len(values) for values in axes)
        if size > MAX_AXIS_VALUES:
            raise ValueError(f"grid has {size} points, more than {MAX_AXIS_VALUES}")
        if self.engine is not Engine.SIMULATED and min(self.N_values) < MIN_NODES:
            raise ValueError(
                f"the analytical model needs at least {MIN_NODES} nodes, got {min(self.N_values)}"
            )

    def axes(self) -> tuple[tuple, tuple, tuple, tuple]:
        """The N, L, r and M values of the grid.

        Irrelevant axes collapse: saturated mode ignores r and M, the
        single-buffer mode ignores M.
        """
        if self.mode is TrafficMode.SATURATED:
            return self.N_values, self.L_values, (0.0,), (1,)
        if self.mode is TrafficMode.UNSAT1:
            return self.N_values, self.L_values, self.r_values, (1,)
        return self.N_values, self.L_values, self.r_values, self.M_values


@dataclass(frozen=True, slots=True)
class ResultRow:
    mode: str
    N: int
    L: int
    r: float
    M: int
    source: str
    tau: float | None = None
    a: float | None = None
    TH: float | None = None
    PS: float | None = None
    TS_sym: float | None = None
    TVS_sym: float | None = None
    TSW_sym: float | None = None
    TVSW_sym: float | None = None
    converged: bool = True
    ci_TH: float | None = None
    ci_PS: float | None = None

    @property
    def key(self) -> tuple:
        return (self.mode, self.N, self.L, self.r, self.M)


HEADER = [f.name for f in fields(ResultRow)]


MAX_AXIS_VALUES = 100_000  # the most values one grid axis, or a whole grid, may hold


def parse_range(text: str, kind=float) -> tuple:
    """Parse '2', '2,5,10', or 'start:stop:step' into values.

    A range holds start + k*step (k = 0, 1, ...) up to and including stop, in
    exact decimal arithmetic, each value rounded to 12 decimals. Every value
    must be finite and the result non-empty, no longer than MAX_AXIS_VALUES
    and free of repeats; an integer axis also needs an integral start, stop
    and step. Anything else raises ValueError, so no axis silently yields
    other grid points than its text names.
    """
    text = text.strip()
    if ":" in text:
        from fractions import Fraction  # only a sweep range needs exact decimals

        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range needs start:stop:step, got {text!r}")
        bounds = [float(p) for p in parts]
        if not all(map(math.isfinite, bounds)):
            raise ValueError(f"range bounds must be finite in {text!r}")
        # the shortest decimal of each float: the typed decimal up to 15 significant
        # digits, and never a huge exponent (1e-999999999 reads as 0.0)
        start, stop, step = (Fraction(repr(b)) for b in bounds)
        if step <= 0:
            raise ValueError(f"step must be positive in {text!r}")
        if kind is int and any(v.denominator != 1 for v in (start, stop, step)):
            raise ValueError(f"an integer axis needs integral start, stop and step, got {text!r}")
        count = (stop - start) // step + 1
        if count > MAX_AXIS_VALUES:
            raise ValueError(f"range {text!r} has more than {MAX_AXIS_VALUES} values")
        values = tuple(kind(round(start + k * step, 12)) for k in range(count))
        if len(set(values)) < len(values):
            raise ValueError(f"step finer than 1e-12 in {text!r}: range values are rounded "
                             "to 12 decimals, so some would repeat")
    else:
        values = tuple(kind(p) for p in text.split(","))
    if not values:
        raise ValueError(f"no values in {text!r}")
    if len(values) > MAX_AXIS_VALUES:
        raise ValueError(f"{text!r} has more than {MAX_AXIS_VALUES} values")
    if not all(-math.inf < v < math.inf for v in values):
        raise ValueError(f"values must be finite in {text!r}")
    if len(set(values)) < len(values):
        raise ValueError(f"repeated value in {text!r}: one grid row per configuration")
    return values


def generate_grid(spec: SweepSpec) -> list[NetworkConfig]:
    """Cartesian product of spec.axes() in lexicographic (N, L, r, M) order."""
    n_values, l_values, r_values, m_values = spec.axes()
    return [
        NetworkConfig(N=n, L=l, mode=spec.mode, r=r, M=m)
        for n in n_values
        for l in l_values
        for r in r_values
        for m in m_values
    ]


def _row(cfg: NetworkConfig, source: str, **metrics) -> ResultRow:
    """A result row of cfg's scenario; metrics left out stay None."""
    return ResultRow(mode=cfg.mode.value, N=cfg.N, L=cfg.L, r=cfg.r, M=cfg.M, source=source,
                     **metrics)


def report_row(cfg: NetworkConfig, rep: PerformanceReport) -> ResultRow:
    """The result row of one report; an undefined metric stays None, an empty CSV cell."""
    return _row(
        cfg, rep.source.value, tau=rep.tau, a=rep.a, TH=rep.TH, PS=rep.PS,
        **{column: getattr(rep, name) for name, column in _SYM_COLUMNS.items()},
        ci_TH=rep.ci95.get("TH"), ci_PS=rep.ci95.get("PS"),
    )


def analytical_row(cfg: NetworkConfig, settings: SolverSettings) -> ResultRow:
    try:
        fp = solve(cfg, settings)
    except NonConvergenceError as e:
        fp = e.fixed_point
        return _row(cfg, "analytical", tau=fp.tau, a=fp.a, converged=False)
    except (ValueError, ArithmeticError):
        return _row(cfg, "analytical", converged=False)
    return report_row(cfg, metrics_report(cfg, fp))


def simulated_row(cfg: NetworkConfig, spec: SweepSpec) -> ResultRow:
    from . import simulator  # loads numpy: only the simulated engine needs it

    sim_cfg = simulator.SimConfig(
        net=cfg, horizon_mini_slots=spec.horizon, warmup_mini_slots=spec.warmup,
        replications=spec.replications, base_seed=spec.base_seed,
    )
    return report_row(cfg, simulator.run(sim_cfg))


def _sweep_item(args) -> ResultRow:
    cfg, engine, spec = args
    if engine == "analytical":
        return analytical_row(cfg, spec.solver)
    return simulated_row(cfg, spec)


def run_sweep(spec: SweepSpec, jobs: int = 1) -> list[ResultRow]:
    """Solve and/or simulate every grid point; order is by config key."""
    work = []
    for cfg in generate_grid(spec):
        if spec.engine in (Engine.ANALYTICAL, Engine.BOTH):
            work.append((cfg, "analytical", spec))
        if spec.engine in (Engine.SIMULATED, Engine.BOTH):
            work.append((cfg, "simulated", spec))
    rows = parallel_map(_sweep_item, work, jobs)
    rows.sort(key=lambda row: (row.N, row.L, row.r, row.M, row.source))
    return rows


def _format(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _record(row: ResultRow, ms: bool) -> list:
    """The CSV values of one row, in HEADER order (plus MS_COLUMNS if ms)."""
    # an integer rate still prints as a real
    values = [float(row.r) if name == "r" else getattr(row, name) for name in HEADER]
    if ms:
        delays = (getattr(row, column) for column in _SYM_COLUMNS.values())
        values += [None if v is None else v * SYMBOL_MS for v in delays]
    return values


def _write_table(fh, header: list[str], records) -> None:
    """Write the header and the records, every value through _format, to an open text file."""
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerows([_format(v) for v in rec] for rec in records)


def write_rows(fh, rows: list[ResultRow], ms: bool = False) -> None:
    """Write the header and one record per row to an open text file."""
    _write_table(fh, HEADER + MS_COLUMNS if ms else HEADER, (_record(row, ms) for row in rows))


def write_csv(rows: list[ResultRow], path: str, ms: bool = False) -> None:
    with open(path, "w", newline="") as fh:
        write_rows(fh, rows, ms)


def _parse_real(s: str, column: str, path: str, line: int) -> float | None:
    if s == "":
        return None
    try:
        v = float(s)
    except ValueError:
        raise ValueError(f"{path}:{line}: bad number {s!r}") from None
    if not math.isfinite(v):
        raise ValueError(f"{path}:{line}: non-finite value {s!r} in column {column}")
    return v


def read_csv(path: str) -> list[ResultRow]:
    """The rows of a results CSV; ValueError names the file and line of any fault.

    Every record, the last one included, must end with a line end, so a file
    cut inside a record is rejected instead of read as a shorter last value.
    A non-finite real (nan, inf) is refused in any column.
    """
    with open(path, newline="") as fh:
        text = fh.read()
    if text and not text.endswith("\n"):
        line = text.count("\n") + 1
        raise ValueError(f"{path}:{line}: last record has no line end (file cut short?)")
    rows = []
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None or header[: len(HEADER)] != HEADER:
        raise ValueError(f"{path}:1: unexpected header")
    for line, rec in enumerate(reader, start=2):
        if len(rec) != len(header):
            raise ValueError(f"{path}:{line}: expected {len(header)} fields, got {len(rec)}")
        try:
            n, l, m = int(rec[1]), int(rec[2]), int(rec[4])
            r = float(rec[3])
        except ValueError:
            raise ValueError(f"{path}:{line}: bad configuration fields") from None
        if not math.isfinite(r):
            raise ValueError(f"{path}:{line}: non-finite value {rec[3]!r} in column r")
        if rec[14] not in ("true", "false"):
            raise ValueError(f"{path}:{line}: converged must be true or false")
        reals = {
            name: _parse_real(rec[i], name, path, line)
            for i, name in enumerate(HEADER[6:], start=6) if name != "converged"
        }
        rows.append(ResultRow(mode=rec[0], N=n, L=l, r=r, M=m, source=rec[5],
                              converged=rec[14] == "true", **reals))
    return rows


def training_matrix(rows: list[ResultRow], target: str) -> tuple[np.ndarray, np.ndarray]:
    """Inputs and target values of predictor task `target`, in TASKS column order.

    Rows that did not converge or lack one of the task's columns are skipped.
    """
    import numpy as np

    features, target_col = TASKS[target]
    columns = [_SYM_COLUMNS.get(name, name) for name in (*features, target_col)]
    table = [[getattr(row, c) for c in columns] for row in rows if row.converged]
    table = np.array([v for v in table if None not in v], dtype=float).reshape(-1, len(columns))
    return table[:, :-1], table[:, -1]


class KeyMismatchError(ValueError):
    """Comparison inputs do not cover the same configurations."""

    def __init__(self, only_analytical, only_simulated):
        self.only_analytical = sorted(only_analytical)
        self.only_simulated = sorted(only_simulated)
        super().__init__(
            f"unmatched configurations: {self.only_analytical} only analytical, "
            f"{self.only_simulated} only simulated"
        )


@dataclass(frozen=True, slots=True)
class DiffRow:
    key: tuple
    abs_diff: dict[str, float | None]
    rel_diff: dict[str, float | None]


def _rows_by_key(rows: list[ResultRow], source: str) -> dict[tuple, ResultRow]:
    """The rows of one source by configuration key; rows of other sources are left out."""
    keyed = {}
    for row in rows:
        if row.source != source:
            continue
        if row.key in keyed:
            raise ValueError(f"{source} input has two {source} rows for {row.key}")
        keyed[row.key] = row
    if not keyed:
        raise ValueError(f"{source} input has no {source} rows")
    return keyed


def _spread(values: list[float], kind: str) -> dict[str, float]:
    """Median, 90th percentile and maximum of values, named by kind.

    Bit for bit what numpy's median, percentile (linear method) and max
    return, without loading numpy; all three are NaN if any value is.
    """
    names = (f"median_{kind}", f"p90_{kind}", f"max_{kind}")
    if any(math.isnan(v) for v in values):
        return dict.fromkeys(names, math.nan)
    s = sorted(values)
    n = len(s)
    mid = n // 2
    median = s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2
    pos = (n - 1) * 0.9
    k = math.floor(pos)
    t = pos - k
    lo, hi = s[k], s[min(k + 1, n - 1)]
    # numpy interpolates from the nearer neighbour
    p90 = hi - (hi - lo) * (1 - t) if t >= 0.5 else lo + (hi - lo) * t
    return dict(zip(names, (median, p90, s[-1])))


def compare(
    analytical_rows: list[ResultRow], simulated_rows: list[ResultRow]
) -> tuple[list[DiffRow], dict[str, dict[str, float]]]:
    """Per-configuration metric differences plus summary quantiles.

    Each side keeps only the rows of its own source, so the rows of one
    sweep that ran both engines can serve as both. A side with no such rows, or with two for one
    configuration, raises ValueError; unmatched configurations raise
    KeyMismatchError. abs diffs are analytical minus simulated; rel diffs are
    scaled by the analytical magnitude. The summary maps metric -> quantiles
    of |abs| and |rel| over configurations where both sides have the metric.
    """
    ana = _rows_by_key(analytical_rows, "analytical")
    sim = _rows_by_key(simulated_rows, "simulated")
    if set(ana) != set(sim):
        raise KeyMismatchError(set(ana) - set(sim), set(sim) - set(ana))
    diffs = []
    for key in sorted(ana):
        a_row, s_row = ana[key], sim[key]
        abs_d: dict[str, float | None] = {}
        rel_d: dict[str, float | None] = {}
        for metric in DIFF_METRICS:
            av = getattr(a_row, metric)
            sv = getattr(s_row, metric)
            if av is None or sv is None:
                abs_d[metric] = rel_d[metric] = None
                continue
            abs_d[metric] = av - sv
            rel_d[metric] = (av - sv) / abs(av) if av != 0 else None
        diffs.append(DiffRow(key=key, abs_diff=abs_d, rel_diff=rel_d))
    summary: dict[str, dict[str, float]] = {}
    for metric in DIFF_METRICS:
        abs_vals = [abs(d.abs_diff[metric]) for d in diffs if d.abs_diff[metric] is not None]
        rel_vals = [abs(d.rel_diff[metric]) for d in diffs if d.rel_diff[metric] is not None]
        if not abs_vals:
            continue
        entry = _spread(abs_vals, "abs")
        if rel_vals:
            entry.update(_spread(rel_vals, "rel"))
        summary[metric] = entry
    return diffs, summary


def write_diff_csv(diffs: list[DiffRow], path: str) -> None:
    header = ["mode", "N", "L", "r", "M"]
    records = []
    for metric in DIFF_METRICS:
        header += [f"abs_{metric}", f"rel_{metric}"]
    for d in diffs:
        mode, n, l, r, m = d.key
        rec = [mode, n, l, float(r), m]
        for metric in DIFF_METRICS:
            rec += [d.abs_diff[metric], d.rel_diff[metric]]
        records.append(rec)
    with open(path, "w", newline="") as fh:
        _write_table(fh, header, records)
