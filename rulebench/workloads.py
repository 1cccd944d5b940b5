"""Seeded, pre-generated inputs for the three benchmark workloads.

Everything a run feeds the rule system — rule conditions, tuples, churn
operations, the oracle sample — is generated here, before any timing,
as plain data from one ``random.Random`` seeded by the workload name and
the ``--seed`` argument.  The same (workload, seed, scale) always gives
equal :class:`Inputs`.

All workloads share one relation ``r0`` of 15 integer attributes with
values in ``1..DOMAIN``.  A rule is a 2-clause condition over two of the
first five attributes: either two interval clauses (indexable) or two
calls of the sparse function ``sparse(v) = v % 7 == 0`` (non-indexable:
tested on every tuple, firing on about 1 tuple in 49).
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "ATTRIBUTES",
    "AUDIT_RELATION",
    "DOMAIN",
    "FUNCTIONS",
    "PREDICATE_ATTRIBUTES",
    "RELATION",
    "SHAPES",
    "ChurnStep",
    "Inputs",
    "RuleSpec",
    "Shape",
    "generate",
    "sparse",
]

DOMAIN = 10_000
RELATION = "r0"
AUDIT_RELATION = "audit"
ATTRIBUTES: Tuple[str, ...] = tuple(f"a{i}" for i in range(15))
PREDICATE_ATTRIBUTES: Tuple[str, ...] = ATTRIBUTES[:5]


def sparse(value: int) -> bool:
    """The one function clause every non-indexable rule uses."""
    return value % 7 == 0


FUNCTIONS = {"sparse": sparse}


@dataclass(frozen=True)
class RuleSpec:
    """One rule as data: its name, condition text and action kind."""

    name: str
    condition: str
    #: the action also inserts one row into :data:`AUDIT_RELATION`
    audit: bool = False


@dataclass(frozen=True)
class ChurnStep:
    """The rule writes of one ``rule-churn`` step, applied before its batch."""

    drops: Tuple[str, ...]
    creates: Tuple[RuleSpec, ...]


@dataclass(frozen=True)
class Shape:
    """The parameters that make a workload what it is."""

    rules: int
    clause_selectivity: float
    non_indexable_share: float
    audit_share: float
    #: tuples per ``bulk_insert``; 0 means one ``Database.insert`` per tuple
    batch_size: int
    #: Zipf exponent of attribute values; 0 means uniform
    zipf: float
    #: distinct tuples generated; the stream cycles through them
    pool: int
    #: rules dropped and created per step (``rule-churn`` only)
    churn_per_step: int = 0
    #: churn steps generated; a run ends early if it uses them all
    churn_steps: int = 0
    #: rule write probes per step when there is no churn: a rule is
    #: dropped and at once created again, so the rule set is unchanged
    probes_per_step: int = 0
    #: every ``oracle_stride``-th stream position is checked ...
    oracle_stride: int = 50
    #: ... up to this many positions per run
    oracle_max: int = 40


SHAPES: Dict[str, Shape] = {
    "insert-fire": Shape(
        rules=10_000,
        clause_selectivity=0.10,
        non_indexable_share=0.10,
        audit_share=0.10,
        batch_size=0,
        zipf=0.0,
        pool=6_000,
        probes_per_step=1,
        oracle_stride=37,
        oracle_max=30,
    ),
    "bulk-skewed": Shape(
        rules=10_000,
        clause_selectivity=0.01,
        non_indexable_share=0.01,
        audit_share=0.0,
        batch_size=250,
        zipf=1.0,
        pool=25_013,
        probes_per_step=4,
        oracle_stride=997,
        oracle_max=60,
    ),
    "rule-churn": Shape(
        rules=5_000,
        clause_selectivity=0.01,
        non_indexable_share=0.01,
        audit_share=0.0,
        batch_size=20,
        zipf=0.0,
        pool=20_011,
        churn_per_step=5,
        churn_steps=20_000,
        oracle_stride=211,
        oracle_max=60,
    ),
}


@dataclass(frozen=True)
class Inputs:
    """Everything one run feeds the program, generated before timing."""

    workload: str
    seed: int
    shape: Shape
    rules: Tuple[RuleSpec, ...]
    #: the tuple stream cycles through this pool
    tuples: Tuple[Dict[str, int], ...]
    #: the one warm-up operation's tuples (inserted during set-up)
    warmup: Tuple[Dict[str, int], ...]
    churn: Tuple[ChurnStep, ...]
    #: the rules the write probes drop and re-create, in order (cycled)
    probes: Tuple[RuleSpec, ...]
    #: offset of the oracle's stride over stream positions
    oracle_offset: int

    def tuple_at(self, position: int) -> Dict[str, int]:
        """The stream's tuple at *position* (the pool repeats)."""
        return self.tuples[position % len(self.tuples)]

    def batch_at(self, position: int, size: int) -> List[Dict[str, int]]:
        """``size`` consecutive stream tuples starting at *position*."""
        return [self.tuple_at(p) for p in range(position, position + size)]

    def oracle_checks(self, position: int) -> bool:
        """Whether the oracle checks the tuple at stream *position*."""
        return position % self.shape.oracle_stride == self.oracle_offset


def _value_sampler(rng: random.Random, zipf: float):
    """A function drawing ``k`` attribute values, uniform or Zipf."""
    values = list(range(1, DOMAIN + 1))
    if zipf <= 0:
        return lambda k: rng.choices(values, k=k)
    # rank r has weight 1/r**s.  Ranks map to values through a seeded
    # permutation, so hot values are scattered over the domain; exactly
    # the ranks that are multiples of 7 get multiples of 7, so that the
    # share of tuples passing ``sparse`` does not depend on the seed
    sevens = [v for v in values if v % 7 == 0]
    others = [v for v in values if v % 7]
    rng.shuffle(sevens)
    rng.shuffle(others)
    ranked = [
        (sevens if rank % 7 == 0 else others).pop() for rank in range(1, DOMAIN + 1)
    ]
    cum = list(itertools.accumulate(1.0 / r**zipf for r in range(1, DOMAIN + 1)))
    return lambda k: rng.choices(ranked, cum_weights=cum, k=k)


def _tuples(rng: random.Random, count: int, zipf: float) -> Tuple[Dict[str, int], ...]:
    columns = [_value_sampler(rng, zipf)(count) for _ in ATTRIBUTES]
    return tuple(dict(zip(ATTRIBUTES, row)) for row in zip(*columns))


def _flags(rng: random.Random, count: int, share: float) -> List[bool]:
    """Exactly ``round(count * share)`` true flags, in seeded order."""
    hits = round(count * share)
    flags = [True] * hits + [False] * (count - hits)
    rng.shuffle(flags)
    return flags


def _rules(
    rng: random.Random, names: Sequence[str], shape: Shape
) -> Tuple[RuleSpec, ...]:
    width = max(1, round(shape.clause_selectivity * DOMAIN))
    non_indexable = _flags(rng, len(names), shape.non_indexable_share)
    audit = _flags(rng, len(names), shape.audit_share)
    specs = []
    for name, opaque, writes in zip(names, non_indexable, audit):
        first, second = rng.sample(PREDICATE_ATTRIBUTES, 2)
        if opaque:
            condition = f"sparse({first}) and sparse({second})"
        else:
            clauses = []
            for attribute in (first, second):
                low = rng.randint(1, DOMAIN - width + 1)
                clauses.append(f"{low} <= {attribute} <= {low + width - 1}")
            condition = " and ".join(clauses)
        specs.append(RuleSpec(name, condition, writes))
    return tuple(specs)


def _churn(
    rng: random.Random, rules: Sequence[RuleSpec], shape: Shape
) -> Tuple[ChurnStep, ...]:
    """Drop ``k`` random live rules and create ``k`` fresh ones per step."""
    k = shape.churn_per_step
    if not k:
        return ()
    fresh = _rules(rng, [f"c{i}" for i in range(k * shape.churn_steps)], shape)
    live = [spec.name for spec in rules]
    steps = []
    for step in range(shape.churn_steps):
        drops = []
        for _ in range(k):
            i = rng.randrange(len(live))
            live[i], live[-1] = live[-1], live[i]
            drops.append(live.pop())
        creates = fresh[step * k : (step + 1) * k]
        live.extend(spec.name for spec in creates)
        steps.append(ChurnStep(tuple(drops), creates))
    return tuple(steps)


def generate(workload: str, seed: int, scale: float = 1.0) -> Inputs:
    """The inputs of *workload* for *seed*.

    *scale* shrinks rule count, tuple pool and churn for fast tests;
    the benchmark itself always runs at 1.0.
    """
    try:
        shape = SHAPES[workload]
    except KeyError:
        raise ValueError(
            f"unknown workload {workload!r}; choose one of {', '.join(SHAPES)}"
        ) from None
    if scale != 1.0:
        shape = dataclasses.replace(
            shape,
            rules=max(20, round(shape.rules * scale)),
            pool=max(50, round(shape.pool * scale)),
            churn_steps=round(shape.churn_steps * scale),
        )
    rng = random.Random(f"{workload}:{seed}")
    rules = _rules(rng, [f"r{i}" for i in range(shape.rules)], shape)
    tuples = _tuples(rng, shape.pool, shape.zipf)
    warmup = _tuples(rng, max(1, shape.batch_size), shape.zipf)
    churn = _churn(rng, rules, shape)
    probes = tuple(rng.sample(rules, len(rules))) if shape.probes_per_step else ()
    return Inputs(
        workload=workload,
        seed=seed,
        shape=shape,
        rules=rules,
        tuples=tuples,
        warmup=warmup,
        churn=churn,
        probes=probes,
        oracle_offset=rng.randrange(shape.oracle_stride),
    )
