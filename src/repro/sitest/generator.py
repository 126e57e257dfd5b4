"""Random SI test pattern generation following the paper's Section 5 protocol.

The ITC'02 benchmarks carry no functional interconnect information, so the
paper generates random SI test patterns:

* each pattern has **one victim** terminal and ``N_a`` (``2 <= N_a <= 6``)
  random aggressor terminals,
* **at most two** aggressors lie outside the victim core's boundary,
* a 32-bit functional bus is shared by all cores; a pattern uses the bus
  with probability 0.5, in which case ``1 .. N_a`` random postfix bits are
  occupied (claimed from the victim core's boundary).

The construction is fully deterministic for a given seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.soc.model import Soc
from repro.sitest.patterns import SIPattern, SYMBOLS, TRANSITIONS


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the random SI pattern generator (paper defaults).

    Attributes:
        min_aggressors: Lower bound on ``N_a``.
        max_aggressors: Upper bound on ``N_a``.
        max_external_aggressors: Cap on aggressors outside the victim core.
        bus_width: Width of the shared functional bus.
        bus_probability: Probability that a pattern utilizes the bus.
    """

    min_aggressors: int = 2
    max_aggressors: int = 6
    max_external_aggressors: int = 2
    bus_width: int = 32
    bus_probability: float = 0.5

    def __post_init__(self) -> None:
        if not 0 < self.min_aggressors <= self.max_aggressors:
            raise ValueError("need 0 < min_aggressors <= max_aggressors")
        if self.max_external_aggressors < 0:
            raise ValueError("max_external_aggressors must be non-negative")
        if self.bus_width < 0:
            raise ValueError("bus_width must be non-negative")
        if not 0.0 <= self.bus_probability <= 1.0:
            raise ValueError("bus_probability must lie in [0, 1]")


def generate_random_patterns(
    soc: Soc,
    count: int,
    seed: int = 0,
    config: GeneratorConfig = GeneratorConfig(),
) -> list[SIPattern]:
    """Generate ``count`` random SI test patterns for ``soc``.

    Cores without output cells can be neither victims nor aggressor hosts.

    Raises:
        ValueError: If the SOC has no core with output cells or ``count``
            is negative.
    """
    if count < 0:
        raise ValueError("pattern count must be non-negative")
    rng = random.Random(seed)

    hosts = [core for core in soc if core.woc_count > 0]
    if not hosts:
        raise ValueError(f"SOC {soc.name} has no cores with output cells")

    # per victim core id, the aggressor hosts outside its boundary
    others = {
        core.core_id: [host for host in hosts if host.core_id != core.core_id]
        for core in hosts
    }
    return [_random_pattern(rng, hosts, others, config) for _ in range(count)]


def _random_pattern(
    rng: random.Random,
    hosts: list,
    others: dict[int, list],
    config: GeneratorConfig,
) -> SIPattern:
    victim_core = rng.choice(hosts)
    victim_index = rng.randrange(victim_core.woc_count)
    victim = (victim_core.core_id, victim_index)
    cares = {victim: rng.choice(SYMBOLS)}

    total_aggressors = rng.randint(config.min_aggressors, config.max_aggressors)
    external_limit = min(config.max_external_aggressors, total_aggressors)
    external_count = rng.randint(0, external_limit) if len(hosts) > 1 else 0
    internal_count = total_aggressors - external_count

    # Aggressors inside the victim core boundary (other output terminals).
    # Sampling positions of the candidate list skipping the victim draws
    # exactly what sampling that list would, without building it.
    candidates = victim_core.woc_count - 1
    for index in rng.sample(range(candidates),
                            min(internal_count, candidates)):
        if index >= victim_index:
            index += 1
        cares[(victim_core.core_id, index)] = rng.choice(TRANSITIONS)

    # Aggressors outside the victim core boundary.
    other_hosts = others[victim_core.core_id]
    for _ in range(external_count):
        host = rng.choice(other_hosts)
        terminal = (host.core_id, rng.randrange(host.woc_count))
        if terminal not in cares:
            cares[terminal] = rng.choice(TRANSITIONS)

    bus_claims = {}
    if config.bus_width and rng.random() < config.bus_probability:
        occupied = rng.randint(1, min(total_aggressors, config.bus_width))
        for line in rng.sample(range(config.bus_width), occupied):
            bus_claims[line] = victim_core.core_id

    return SIPattern(cares=cares, bus_claims=bus_claims, victim=victim)
