"""Seeded inputs for the paper-point benchmark.

Everything a run feeds the deployment -- the 2,048 initial records, the
master key, and every caller's operation sequence -- is drawn here from the
workload seed before the clock starts, so one seed always produces the same
inputs.  The program only ever sees the generated keys, values and
operations.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass

#: The paper's operating point (§6): 160 B values, y=2, point-and-permute.
VALUE_LEN = 160
GROUP_BITS = 2
#: Keys per workload.  Already ~290x the auto-sized label cache and far more
#: than the requests in flight, while keeping one bulk load near 13 s.
NUM_KEYS = 2048
ZIPF_THETA = 0.99
#: Operations generated per caller per measured second: several times the
#: fastest rate a 2-core host reaches, so a run never runs out of inputs.
OPS_PER_SECOND_CAP = 250


@dataclass(frozen=True)
class Workload:
    """One traffic mix: callers, call shape, key skew and read share."""

    name: str
    shards: int
    callers: int
    batch: int  # requests per blocking call; 1 = single access
    read_frac: float
    zipf: bool
    tail_pct: float  # fixed percentile reported as latency_tail_ms
    warmup_calls: int  # per caller, untimed


WORKLOADS = {
    w.name: w
    for w in (
        Workload("serial-uniform", 1, 1, 1, 0.5, False, 97.0, 10),
        Workload("closed2-zipf", 1, 2, 1, 0.5, True, 97.0, 8),
        Workload("batch16-readheavy", 2, 1, 16, 0.95, False, 65.0, 2),
    )
}


@dataclass(frozen=True)
class Op:
    """One access: ``value`` is None for a GET."""

    key: str
    value: bytes | None

    @property
    def is_write(self) -> bool:
        """True for a PUT."""
        return self.value is not None


@dataclass(frozen=True)
class Inputs:
    """Everything generated from one (workload, seed) pair."""

    master_key: bytes
    records: dict[str, bytes]
    calls: list[list[list[Op]]]  # per caller: calls, each a list of ops


def _zipf_sampler(rng: random.Random, keys: list[str], theta: float):
    """Draw keys with P(rank i) proportional to 1 / (i + 1)^theta."""
    ranked = list(keys)
    rng.shuffle(ranked)  # which keys are hot depends on the seed
    cdf = []
    total = 0.0
    for rank in range(len(ranked)):
        total += 1.0 / (rank + 1) ** theta
        cdf.append(total)
    return lambda: ranked[min(bisect.bisect_left(cdf, rng.random() * total), len(ranked) - 1)]


def generate(workload: Workload, seed: int, seconds: int) -> Inputs:
    """Build the records and per-caller call sequences for one run."""
    # A string seed goes through SHA-512, so it is stable across processes.
    rng = random.Random(f"{workload.name}/{seed}")
    master_key = rng.randbytes(32)
    keys = [f"key{i:04d}" for i in range(NUM_KEYS)]
    records = {key: rng.randbytes(VALUE_LEN) for key in keys}
    if workload.zipf:
        pick = _zipf_sampler(rng, keys, ZIPF_THETA)
    else:
        pick = lambda: keys[rng.randrange(NUM_KEYS)]  # noqa: E731
    ops_per_caller = seconds * OPS_PER_SECOND_CAP
    num_calls = workload.warmup_calls + -(-ops_per_caller // workload.batch)
    calls = []
    for _ in range(workload.callers):
        sequence = []
        for _ in range(num_calls):
            call = []
            for _ in range(workload.batch):
                key = pick()
                if rng.random() < workload.read_frac:
                    call.append(Op(key, None))
                else:
                    call.append(Op(key, rng.randbytes(VALUE_LEN)))
            sequence.append(call)
        calls.append(sequence)
    return Inputs(master_key, records, calls)
