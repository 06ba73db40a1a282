"""Seed-deterministic traffic models: who sends, through which app, per round.

A :class:`TrafficModel` turns ``(seed, round_id)`` into an
:class:`ArrivalBatch`: which users of a fixed population want to send
this round, and through which application (microblogging or dialing).
Every draw comes from a :class:`~repro.crypto.groups.DeterministicRng`
derived from the bound seed, so the same spec and seed always emit the
same workload — the scenario engine's byte-identical-rerun guarantee
starts here.

Three rate curves are registered (``constant``, ``diurnal``,
``bursty``); *churn* and the *dialing share* are dimensions of every
model rather than separate models, so "Black Friday with 5 % churn and
a quarter of traffic dialing" is one spec::

    {"model": "bursty", "users": 16, "base": 4, "spike": 12,
     "spike_rounds": [2, 3], "churn": 0.05, "rejoin": 2,
     "dialing_share": 0.25}

Churn semantics: each round, every active user departs with
probability ``churn`` (at least one user always stays); a departed
user is reabsorbed exactly ``rejoin`` rounds later.  The population is
conserved: at every round the active and departed sets partition
``range(users)`` — the Hypothesis suite asserts this.

Batches are computed in round order and cached, so churn state is
well-defined and repeated ``batch(r)`` calls (the stream engine
re-plans a round's intake after a blame-rekey) return the identical
object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.crypto.groups import DeterministicRng

APPS = ("microblog", "dialing")


class TrafficError(ValueError):
    """A traffic-model spec could not be parsed or is inconsistent."""


@dataclass(frozen=True)
class Arrival:
    """One user wanting to send one message this round."""

    user: int
    app: str  # "microblog" | "dialing"


@dataclass(frozen=True)
class ArrivalBatch:
    """Everything a traffic model decides for one round."""

    round_id: int
    arrivals: Tuple[Arrival, ...]
    #: users who churned out this round (silent until reabsorbed)
    departed: Tuple[int, ...]
    #: users reabsorbed this round after their churn-out
    rejoined: Tuple[int, ...]
    #: active population size *after* this round's churn
    active: int

    @property
    def offered(self) -> int:
        return len(self.arrivals)


class TrafficModel:
    """Base class: rate curve subclasses override :meth:`_rate`.

    Common knobs (every registered model accepts them):

    - ``users`` — population size (user ids ``0..users-1``)
    - ``churn`` — per-round, per-user departure probability
    - ``rejoin`` — rounds until a departed user is reabsorbed
    - ``dialing_share`` — probability an arrival dials instead of
      posting (0.0 = pure microblogging, 1.0 = pure dialing)
    """

    kind = "abstract"

    def __init__(
        self,
        users: int = 8,
        churn: float = 0.0,
        rejoin: int = 2,
        dialing_share: float = 0.0,
    ):
        if users < 1:
            raise TrafficError("users must be >= 1")
        if not 0.0 <= churn < 1.0:
            raise TrafficError("churn must be in [0, 1)")
        if rejoin < 1:
            raise TrafficError("rejoin must be >= 1 round")
        if not 0.0 <= dialing_share <= 1.0:
            raise TrafficError("dialing_share must be in [0, 1]")
        self.users = users
        self.churn = churn
        self.rejoin = rejoin
        self.dialing_share = dialing_share
        self._seed: bytes = b"traffic"
        self._batches: List[ArrivalBatch] = []
        #: user -> round at which they departed (churn state)
        self._away: Dict[int, int] = {}
        self._active: List[int] = list(range(users))

    # -- binding and determinism ---------------------------------------

    def bind(self, seed: bytes) -> "TrafficModel":
        """Set the rng seed and reset all churn state and caches."""
        self._seed = bytes(seed)
        self._batches = []
        self._away = {}
        self._active = list(range(self.users))
        return self

    def _round_rng(self, round_id: int) -> DeterministicRng:
        return DeterministicRng(self._seed + b"|traffic|r%d" % round_id)

    # -- the per-round batch -------------------------------------------

    def batch(self, round_id: int) -> ArrivalBatch:
        """The round's arrivals (computed in order, cached)."""
        if round_id < 0:
            raise TrafficError("round_id must be >= 0")
        while len(self._batches) <= round_id:
            self._batches.append(self._compute(len(self._batches)))
        return self._batches[round_id]

    def _compute(self, r: int) -> ArrivalBatch:
        rng = self._round_rng(r)
        # Reabsorb first: a user departed at round d returns at d+rejoin.
        rejoined = tuple(
            sorted(u for u, d in self._away.items() if r - d >= self.rejoin)
        )
        for user in rejoined:
            del self._away[user]
            self._active.append(user)
        self._active.sort()
        # Churn out: one biased coin per active user, in user order.
        departed: List[int] = []
        if self.churn > 0.0:
            for user in list(self._active):
                if len(self._active) - len(departed) <= 1:
                    break  # never empty the population
                if rng.randint(0, 2 ** 32 - 1) / 2 ** 32 < self.churn:
                    departed.append(user)
            for user in departed:
                self._active.remove(user)
                self._away[user] = r
        # Offered load: the curve, clamped to the live population.
        count = max(0, round(self._rate(r)))
        count = min(count, len(self._active))
        senders = self._sample(rng, self._active, count)
        arrivals = tuple(
            Arrival(
                user=user,
                app=(
                    "dialing"
                    if self.dialing_share > 0.0
                    and rng.randint(0, 2 ** 32 - 1) / 2 ** 32 < self.dialing_share
                    else "microblog"
                ),
            )
            for user in senders
        )
        return ArrivalBatch(
            round_id=r,
            arrivals=arrivals,
            departed=tuple(departed),
            rejoined=rejoined,
            active=len(self._active),
        )

    @staticmethod
    def _sample(rng: DeterministicRng, population: List[int], count: int) -> List[int]:
        """``count`` distinct users, drawn without replacement (partial
        Fisher-Yates over a copy, so the model's own state is untouched)."""
        pool = list(population)
        picked: List[int] = []
        for _ in range(count):
            picked.append(pool.pop(rng.randint(0, len(pool) - 1)))
        return sorted(picked)

    # -- the rate curve (subclass hook) --------------------------------

    def _rate(self, round_id: int) -> float:
        raise NotImplementedError

    def expected_rate(self, round_id: int) -> float:
        """Analytic mean offered load (before population clamping) —
        what ``sim.scenario`` reconciles the measured arrivals against."""
        return max(0.0, float(self._rate(round_id)))

    # -- spec grammar --------------------------------------------------

    def _params(self) -> Dict[str, object]:
        """Subclass hook: curve-specific parameters."""
        raise NotImplementedError

    def describe(self) -> Dict[str, object]:
        """Canonical dict spec: ``parse_traffic(describe())`` builds an
        equivalent model (and ``describe`` of that is identical)."""
        out: Dict[str, object] = {"model": self.kind, "users": self.users}
        out.update(self._params())
        out.update(
            churn=self.churn, rejoin=self.rejoin,
            dialing_share=self.dialing_share,
        )
        return out


class ConstantTraffic(TrafficModel):
    """A flat offered load: ``rate`` arrivals per round."""

    kind = "constant"

    def __init__(self, rate: float = 4, **common):
        super().__init__(**common)
        if rate < 0:
            raise TrafficError("rate must be >= 0")
        self.rate = float(rate)

    def _rate(self, round_id: int) -> float:
        return self.rate

    def _params(self) -> Dict[str, object]:
        return {"rate": self.rate}


class DiurnalTraffic(TrafficModel):
    """A day/night load curve: raised-cosine between ``base`` (trough,
    round 0) and ``peak``, with ``period`` rounds per "day"."""

    kind = "diurnal"

    def __init__(self, base: float = 2, peak: float = 8, period: int = 8, **common):
        super().__init__(**common)
        if base < 0 or peak < base:
            raise TrafficError("need 0 <= base <= peak")
        if period < 1:
            raise TrafficError("period must be >= 1 round")
        self.base = float(base)
        self.peak = float(peak)
        self.period = int(period)

    def _rate(self, round_id: int) -> float:
        phase = (1.0 - math.cos(2.0 * math.pi * round_id / self.period)) / 2.0
        return self.base + (self.peak - self.base) * phase

    def _params(self) -> Dict[str, object]:
        return {"base": self.base, "peak": self.peak, "period": self.period}


class BurstyTraffic(TrafficModel):
    """A hot-topic spike: ``base`` load except during the declared
    ``spike_rounds``, where the offered load jumps to ``spike``."""

    kind = "bursty"

    def __init__(
        self,
        base: float = 4,
        spike: float = 12,
        spike_rounds: Tuple[int, ...] = (2,),
        **common,
    ):
        super().__init__(**common)
        if base < 0 or spike < 0:
            raise TrafficError("rates must be >= 0")
        rounds = tuple(sorted(set(int(r) for r in spike_rounds)))
        if any(r < 0 for r in rounds):
            raise TrafficError("spike_rounds must be >= 0")
        self.base = float(base)
        self.spike = float(spike)
        self.spike_rounds = rounds

    def _rate(self, round_id: int) -> float:
        return self.spike if round_id in self.spike_rounds else self.base

    def _params(self) -> Dict[str, object]:
        return {
            "base": self.base,
            "spike": self.spike,
            "spike_rounds": list(self.spike_rounds),
        }


#: the registry behind ``{"model": <kind>, ...}`` specs
TRAFFIC_MODELS: Dict[str, type] = {
    model.kind: model
    for model in (ConstantTraffic, DiurnalTraffic, BurstyTraffic)
}

_COMMON_KEYS = ("users", "churn", "rejoin", "dialing_share")


def parse_traffic(obj: Dict[str, object]) -> TrafficModel:
    """Build a model from its dict spec (the ``traffic`` section of a
    scenario file).  Unknown models and unknown keys are errors —
    a typo must never silently run a different workload."""
    if not isinstance(obj, dict):
        raise TrafficError(f"traffic spec must be a dict, got {type(obj).__name__}")
    spec = dict(obj)
    kind = spec.pop("model", None)
    if kind not in TRAFFIC_MODELS:
        raise TrafficError(
            f"unknown traffic model {kind!r} (have: {sorted(TRAFFIC_MODELS)})"
        )
    cls = TRAFFIC_MODELS[kind]
    probe = cls()
    allowed = set(_COMMON_KEYS) | set(probe._params())
    unknown = set(spec) - allowed
    if unknown:
        raise TrafficError(
            f"unknown {kind!r} traffic keys {sorted(unknown)} "
            f"(allowed: {sorted(allowed)})"
        )
    if kind == "bursty" and "spike_rounds" in spec:
        spec["spike_rounds"] = tuple(spec["spike_rounds"])
    try:
        return cls(**spec)
    except TypeError as exc:
        raise TrafficError(f"bad {kind!r} traffic spec: {exc}") from exc
