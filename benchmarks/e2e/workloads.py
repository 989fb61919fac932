"""Deterministic request generator for the end-to-end benchmark.

Everything here is a pure function of the workload seed: the shape
pools, the hot templates, and each session's request stream.  The
program under test only ever receives the generated SQL strings.

Shapes come from parameter ladders whose neighbouring values are at
least :data:`MIN_SPACING` apart, and every parameter lands in its own
operator statistic: table rows in the input rows, the threshold in the
output rows (or, for a filtered aggregate, its input rows), the
projection in the output width, the grouping factor in the
output/input ratio.  Two distinct shapes therefore differ by at least
5% in some statistic, so they never share an estimate-cache key (its
log grid is ~1.6% wide), and every served estimate can be checked
bit-for-bit against an uncached reference.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

#: Smallest ratio between neighbouring values of any parameter ladder.
MIN_SPACING = 1.05

#: Record size of every table the benchmark touches.
ROW_SIZE = 100

#: Hive tables inside the logical-op models' training range (<= 8M rows).
HIVE_IN_RANGE_ROWS: Tuple[int, ...] = (
    10_000, 20_000, 40_000, 60_000, 80_000,
    100_000, 200_000, 400_000, 600_000, 800_000,
    1_000_000, 2_000_000, 4_000_000, 6_000_000, 8_000_000,
)

#: Hive tables far past the training range: estimates take the remedy.
HIVE_OUT_OF_RANGE_ROWS: Tuple[int, ...] = (
    20_000_000, 40_000_000, 60_000_000, 80_000_000,
)

#: Spark-resident dimension tables (row counts reuse the corpus ladder).
SPARK_DIM_ROWS: Tuple[int, ...] = HIVE_IN_RANGE_ROWS[:12]

#: Filter/join thresholds: a geometric ladder from 1,000 to 80M rows.
THRESHOLDS: Tuple[int, ...] = tuple(
    sorted({int(round(1_000 * 1.06**i)) for i in range(194)})
)

#: Reach of the models' thinned training sets: in-range shapes stay
#: within them (``test_out_of_range_shapes_take_the_remedy`` pins them).
SCAN_OUTPUT_REACH = 6_000_000
JOIN_INNER_REACH = 4_000_000
AGGREGATE_INPUT_REACH = HIVE_IN_RANGE_ROWS[-1]
AGGREGATE_OUTPUT_REACH = 3_000_000

#: Projection variants: 1 to 8 integer columns (4 to 32 bytes) or the
#: whole 100-byte row.
_COLUMNS = ("a1", "a2", "a5", "a10", "a20", "a50", "a100", "z")
PROJECTIONS: Tuple[str, ...] = tuple(
    ", ".join(_COLUMNS[:n]) for n in range(1, len(_COLUMNS) + 1)
) + ("*",)

#: GROUP BY columns ``a<k>``; grouping on ``a<k>`` divides rows by k.
GROUP_FACTORS: Tuple[int, ...] = (1, 2, 5, 10, 20, 50, 100)

#: SUM columns; a query computes the first n of them (the models were
#: trained on 1 to 5).
SUM_COLUMNS: Tuple[str, ...] = _COLUMNS[:5]

SYSTEMS: Tuple[str, ...] = ("hive", "spark")
KINDS: Tuple[str, ...] = ("scan", "aggregate", "join")

HOT_TEMPLATES = 32
COLD_POOL_SIZE = 65_536
EMBEDDED_POOL_SIZE = 256
ZIPF_S = 1.1

#: Every fifth pool slot is out of range, so ~20% of the traffic is.
OUT_OF_RANGE_EVERY = 5


def hive_table(rows: int) -> str:
    return f"t{rows}_{ROW_SIZE}"


def spark_dim(rows: int) -> str:
    return f"sp_dim{rows}"


def thresholds_below(limit: float) -> Tuple[int, ...]:
    """Ladder thresholds at least MIN_SPACING below ``limit`` rows, so a
    filtered output never ties its input."""
    return THRESHOLDS[: int(np.searchsorted(THRESHOLDS, limit / MIN_SPACING, "right"))]


# ----------------------------------------------------------------------
# Shapes: a parameter tuple and its SQL
# ----------------------------------------------------------------------
#: ``(kind, *parameters)``: a shape's identity.
Params = Tuple[object, ...]


@dataclass(frozen=True)
class Shape:
    params: Params
    out_of_range: bool

    @property
    def kind(self) -> str:
        return str(self.params[0])

    @property
    def sql(self) -> str:
        return shape_sql(self.params)


def _sums(n: int) -> str:
    return ", ".join(f"SUM({name})" for name in SUM_COLUMNS[:n])


def _join_sql(select: str, left: str, right: str, threshold: int) -> str:
    return (
        f"SELECT {select} FROM {left} JOIN {right} "
        f"ON {left}.a1 = {right}.a1 AND ({left}.a1 + {right}.z) < {threshold}"
    )


def _filtered_table(threshold: int) -> int:
    """The smallest table a filtered aggregate's threshold fits in: the
    input is the ``threshold`` rows the filter keeps, so the table is
    not part of the shape."""
    for rows in HIVE_IN_RANGE_ROWS + HIVE_OUT_OF_RANGE_ROWS:
        if threshold * MIN_SPACING <= rows:
            return rows
    raise ValueError(f"no table holds {threshold} rows")


def shape_sql(params: Params) -> str:
    kind = params[0]
    if kind == "scan":
        _, rows, threshold, projection = params
        return (
            f"SELECT {PROJECTIONS[projection]} FROM {hive_table(rows)} "
            f"WHERE a1 < {threshold}"
        )
    if kind == "aggregate":
        # (rows, 0, ...) aggregates a whole table; (0, threshold, ...)
        # aggregates the rows a filter keeps.
        _, rows, threshold, factor, sums = params
        table = hive_table(rows or _filtered_table(threshold))
        where = f" WHERE a1 < {threshold}" if threshold else ""
        return f"SELECT {_sums(sums)} FROM {table}{where} GROUP BY a{factor}"
    if kind == "join":
        _, r_rows, s_rows, threshold, projection = params
        return _join_sql(
            PROJECTIONS[projection], hive_table(r_rows), hive_table(s_rows), threshold
        )
    if kind == "cross":
        _, r_rows, s_rows, threshold, factor, sums = params
        return _join_sql(
            _sums(sums), hive_table(r_rows), spark_dim(s_rows), threshold
        ) + f" GROUP BY a{factor}"
    raise ValueError(f"unknown shape kind: {kind!r}")


@functools.lru_cache(maxsize=None)
def shape_space(kind: str, out_of_range: bool) -> Tuple[Params, ...]:
    """Every shape of one kind and range class, in a fixed order."""
    tables = HIVE_OUT_OF_RANGE_ROWS if out_of_range else HIVE_IN_RANGE_ROWS
    projections = range(len(PROJECTIONS))
    if kind == "scan":
        return tuple(
            ("scan", rows, threshold, projection)
            for rows in tables
            for threshold in thresholds_below(rows)
            if out_of_range or threshold <= SCAN_OUTPUT_REACH
            for projection in projections
        )
    if kind == "aggregate":
        groupings = [
            (factor, sums)
            for factor in GROUP_FACTORS
            for sums in range(1, len(SUM_COLUMNS) + 1)
        ]
        if out_of_range:
            # Whole-table and filtered inputs share the input-rows
            # statistic, so filtered thresholds keep clear of table sizes.
            inputs = [(rows, 0) for rows in tables] + [
                (0, threshold)
                for threshold in thresholds_below(tables[-1])
                if threshold >= tables[0]
                and ladder_spacing(tables + (threshold,)) >= MIN_SPACING
            ]
        else:
            inputs = [(0, t) for t in thresholds_below(AGGREGATE_INPUT_REACH)]
        return tuple(
            ("aggregate", rows, threshold, factor, sums)
            for rows, threshold in inputs
            for factor, sums in groupings
            if out_of_range or threshold <= AGGREGATE_OUTPUT_REACH * factor
        )
    if kind == "join":
        return tuple(
            ("join", r_rows, s_rows, threshold, projection)
            for r_rows in tables
            for s_rows in HIVE_IN_RANGE_ROWS
            if s_rows < r_rows and (out_of_range or s_rows <= JOIN_INNER_REACH)
            for threshold in thresholds_below(s_rows)
            for projection in projections
        )
    raise ValueError(f"unknown shape kind: {kind!r}")


# ----------------------------------------------------------------------
# Seeded pools
# ----------------------------------------------------------------------
def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _sample(
    rng: np.random.Generator, space: Sequence[Params], count: int
) -> List[Params]:
    return [space[i] for i in rng.choice(len(space), size=count, replace=False)]


def hot_templates(seed: int) -> List[Shape]:
    """The 32 hot templates.  Template ``j`` is served at Zipf ranks
    ``2j`` (hive) and ``2j + 1`` (spark); its kind is ``KINDS[j % 3]``
    and every fifth is out of range, so every seed has the same
    kind-by-rank structure and only the parameters move."""
    rng = _rng(seed, 1)
    slots = [
        (KINDS[j % len(KINDS)], j % OUT_OF_RANGE_EVERY == OUT_OF_RANGE_EVERY - 1)
        for j in range(HOT_TEMPLATES)
    ]
    picked: Dict[Tuple[str, bool], List[Params]] = {
        slot: _sample(rng, shape_space(*slot), slots.count(slot))
        for slot in sorted(set(slots))
    }
    return [Shape(picked[slot].pop(), slot[1]) for slot in slots]


def cold_pool(seed: int) -> List[Shape]:
    """65,536 distinct shapes (16x the estimate cache's 4,096 entries):
    a uniform sample of the in-range shape space, plus 20% drawn from
    the out-of-range space, in a seeded order."""
    rng = _rng(seed, 2)
    out_of_range = COLD_POOL_SIZE // OUT_OF_RANGE_EVERY
    shapes = [
        Shape(params, oor)
        for oor, count in ((False, COLD_POOL_SIZE - out_of_range), (True, out_of_range))
        for params in _sample(
            rng, [p for kind in KINDS for p in shape_space(kind, oor)], count
        )
    ]
    return [shapes[i] for i in rng.permutation(len(shapes))]


def embedded_pool(seed: int) -> List[Shape]:
    """256 distinct aggregate-over-join shapes joining a Hive fact to a
    Spark dimension, so the optimizer weighs all three locations.

    The join's row estimate may round the threshold up by one row
    depending on the tables, so no two shapes share the aggregate's
    (threshold, factor, sums): their aggregates never differ by one row
    alone."""
    rng = _rng(seed, 3)
    shapes: Dict[Params, Shape] = {}
    aggregates = set()
    while len(shapes) < EMBEDDED_POOL_SIZE:
        r_rows = HIVE_IN_RANGE_ROWS[int(rng.integers(len(HIVE_IN_RANGE_ROWS)))]
        s_rows = SPARK_DIM_ROWS[int(rng.integers(len(SPARK_DIM_ROWS)))]
        below = thresholds_below(min(r_rows, s_rows))
        aggregate = (
            below[int(rng.integers(len(below)))],
            GROUP_FACTORS[int(rng.integers(len(GROUP_FACTORS)))],
            int(rng.integers(1, len(SUM_COLUMNS) + 1)),
        )
        if aggregate not in aggregates:
            aggregates.add(aggregate)
            params = ("cross", r_rows, s_rows) + aggregate
            shapes[params] = Shape(params, False)
    return list(shapes.values())


def zipf_weights(count: int, s: float = ZIPF_S) -> np.ndarray:
    weights = np.arange(1, count + 1, dtype=float) ** -s
    return weights / weights.sum()


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
#: A request: ``(system, sql)`` for /estimate, ``("", sql)`` for explain.
Request = Tuple[str, str]


@dataclass(frozen=True)
class Workload:
    """How a workload is driven; why it exists is in BENCHMARK.json."""

    name: str
    #: Served over HTTP (``POST /estimate``) or in-process ``explain``.
    http: bool
    #: Closed-loop sessions, each with its own connection and stream.
    sessions: int = 2
    #: Seconds between ``POST /swap`` requests from session 0 (0 = none).
    swap_every: float = 0.0


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("estimate-hot", http=True),
        Workload("estimate-cold", http=True),
        # One session: a second thread in the same interpreter only
        # queues behind the first for the interpreter lock, so its tail
        # would measure the lock's switch interval, not the optimizer.
        Workload("optimize-embedded", http=False, sessions=1),
        Workload("swap-under-load", http=True, swap_every=0.25),
    )
}

#: Draws are made in chunks of this many requests per session.
_CHUNK = 4096


def _zipf_stream(
    rng: np.random.Generator, keys: Sequence[Request], session: int, sessions: int
) -> Iterator[Request]:
    """Zipf draws over ``keys`` (rank order), after a priming sweep in
    which the sessions split every key between them, so the warm-up
    fills the cache with the whole working set."""
    yield from keys[session::sessions]
    weights = zipf_weights(len(keys))
    while True:
        for index in rng.choice(len(keys), size=_CHUNK, p=weights):
            yield keys[index]


def request_stream(workload: str, seed: int, session: int) -> Iterator[Request]:
    """Session ``session``'s endless, seed-determined request sequence."""
    rng = _rng(seed, 10 + session, sorted(WORKLOADS).index(workload))
    sessions = WORKLOADS[workload].sessions
    if workload in ("estimate-hot", "swap-under-load"):
        templates = hot_templates(seed)
        return _zipf_stream(
            rng,
            [
                (SYSTEMS[rank % 2], templates[rank // 2].sql)
                for rank in range(2 * len(templates))
            ],
            session,
            sessions,
        )
    if workload == "optimize-embedded":
        return _zipf_stream(
            rng, [("", shape.sql) for shape in embedded_pool(seed)], session, sessions
        )
    if workload == "estimate-cold":
        return _uniform_stream(rng, [shape.sql for shape in cold_pool(seed)])
    raise ValueError(f"unknown workload: {workload!r}")


def _uniform_stream(
    rng: np.random.Generator, pool: Sequence[str]
) -> Iterator[Request]:
    while True:
        shapes = rng.integers(len(pool), size=_CHUNK)
        systems = rng.integers(len(SYSTEMS), size=_CHUNK)
        for index, system in zip(shapes, systems):
            yield SYSTEMS[system], pool[index]


def request_list(workload: str, seed: int, session: int, count: int) -> List[Request]:
    stream = request_stream(workload, seed, session)
    return [next(stream) for _ in range(count)]


def encode_requests(requests: Sequence[Request]) -> bytes:
    """Canonical bytes of a request list (the determinism tests' unit)."""
    return json.dumps(list(requests), separators=(",", ":")).encode("utf-8")


# ----------------------------------------------------------------------
# The fixed accuracy sample (independent of the workload seed)
# ----------------------------------------------------------------------
#: The q-error sample is drawn from this seed on every run.
QERROR_SEED = 0


def q_error_sample(workload: str) -> List[Request]:
    """The fixed shapes whose served estimates are scored against the
    simulated actual times: the hot templates on both systems (hot and
    swap), 64 pool shapes on alternating systems (cold), or 32 placed
    shapes (embedded)."""
    if workload in ("estimate-hot", "swap-under-load"):
        return [
            (system, shape.sql)
            for shape in hot_templates(QERROR_SEED)
            for system in SYSTEMS
        ]
    if workload == "estimate-cold":
        pool = cold_pool(QERROR_SEED)
        return [(SYSTEMS[i % 2], pool[i].sql) for i in range(64)]
    if workload == "optimize-embedded":
        return [("", shape.sql) for shape in embedded_pool(QERROR_SEED)[:32]]
    raise ValueError(f"unknown workload: {workload!r}")


def ladder_spacing(values: Sequence[float]) -> float:
    """Smallest ratio between neighbouring distinct values."""
    ordered = sorted(set(values))
    return min((b / a for a, b in zip(ordered, ordered[1:])), default=math.inf)


#: Parameter ladders the spacing guarantee rests on.
LADDERS: Dict[str, Sequence[float]] = {
    "table rows": HIVE_IN_RANGE_ROWS + HIVE_OUT_OF_RANGE_ROWS,
    "thresholds": THRESHOLDS,
    "group factors": GROUP_FACTORS,
}
