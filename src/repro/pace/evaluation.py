"""The PACE evaluation engine — ``t_x(ρ_j, σ_j)`` of eq. (6).

The engine combines an application model σ with an allocation ρ (a set of
nodes drawn from a resource model) and returns the predicted execution time
in seconds.  Two rules govern heterogeneous inputs:

* a parallel task starts on all allocated nodes "in unison" (§2.1) and is
  tightly coupled, so a mixed allocation runs at the pace of its slowest
  platform;
* within the paper's case study every resource is homogeneous, so this
  rule only matters for the heterogeneous-resource extension tests.

The engine owns an :class:`~repro.pace.cache.EvaluationCache` (demand-driven
evaluation with memoisation, §2.2) and an optional *accuracy perturbation*
used by the prediction-accuracy ablation (the paper's first listed future
enhancement): multiplicative noise applied to predictions, while the
noise-free value remains available for "actual" runtimes.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import EvaluationError
from repro.pace.application import ApplicationModel
from repro.pace.cache import EvaluationCache
from repro.pace.hardware import PlatformSpec
from repro.pace.resource import Node, ResourceModel

__all__ = ["EvaluationEngine"]


class EvaluationEngine:
    """Combines application and resource models into execution-time predictions.

    Parameters
    ----------
    cache:
        The evaluation cache; a fresh unbounded cache is created if omitted.
    noise_factor:
        Standard deviation of multiplicative log-normal noise applied to
        *predictions* (not true times).  0 (default) reproduces the paper's
        test mode, where predictions are assumed exact.
    rng:
        Random generator for the noise; required when ``noise_factor > 0``.
    """

    def __init__(
        self,
        cache: Optional[EvaluationCache] = None,
        *,
        noise_factor: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if noise_factor < 0:
            raise EvaluationError(f"noise_factor must be >= 0, got {noise_factor}")
        if noise_factor > 0 and rng is None:
            raise EvaluationError("rng is required when noise_factor > 0")
        self._cache = cache if cache is not None else EvaluationCache()
        self._noise_factor = float(noise_factor)
        self._rng = rng
        self._evaluations = 0

    # ------------------------------------------------------------------ state

    @property
    def cache(self) -> EvaluationCache:
        """The evaluation cache in front of the engine."""
        return self._cache

    @property
    def evaluations(self) -> int:
        """Number of raw (uncached) model evaluations performed."""
        return self._evaluations

    @property
    def noise_factor(self) -> float:
        """Log-normal σ of the prediction perturbation (0 = exact)."""
        return self._noise_factor

    # ------------------------------------------------------------- checkpoint

    def snapshot_state(self) -> dict:
        """Cache contents plus the raw-evaluation counter.

        The noise RNG (if any) belongs to the run's registry and is
        restored there; cached noise factors travel with the cache, so a
        resumed engine draws (or skips) exactly the randomness the
        uninterrupted run would.
        """
        return {
            "cache": self._cache.snapshot_state(),
            "evaluations": self._evaluations,
        }

    def restore_state(self, state: dict) -> None:
        """Rewind the cache and evaluation counter to the snapshot."""
        self._cache.restore_state(state["cache"])
        self._evaluations = int(state["evaluations"])

    # ------------------------------------------------------------- evaluation

    def _raw(self, application: ApplicationModel, nproc: int, platform: PlatformSpec) -> float:
        self._evaluations += 1
        value = application.predict(nproc, platform)
        if not (value > 0 and np.isfinite(value)):
            raise EvaluationError(
                f"model {application.name!r} predicted invalid time {value!r} "
                f"for nproc={nproc} on {platform.name}"
            )
        return value

    def evaluate_count(
        self, application: ApplicationModel, nproc: int, platform: PlatformSpec
    ) -> float:
        """Predicted time for *application* on *nproc* nodes of *platform*.

        This is the cached fast path used by both the GA (whose allocations
        within one homogeneous resource are fully described by a count) and
        the agents' matchmaking (eq. 10 evaluates the local resource at
        every subset size 1..n).
        """
        key = (application.name, nproc, platform.name)
        base = self._cache.get_or_compute(
            key, lambda: self._raw(application, nproc, platform)
        )
        return self._perturb(base, key)

    def evaluate_counts(
        self,
        application: ApplicationModel,
        platform: PlatformSpec,
        max_nproc: int,
    ) -> np.ndarray:
        """The whole ``[t(1) .. t(max_nproc)]`` duration row, in one call.

        Fills every subset size through the cache in a single bulk
        traversal (:meth:`EvaluationCache.get_many`) — the bulk fast
        path behind the GA's per-task duration rows and eq. (10)'s
        :meth:`best_count` minimisation.  Statistics and cached values are
        identical to ``max_nproc`` scalar :meth:`evaluate_count` calls.
        """
        if max_nproc < 1:
            raise EvaluationError(f"max_nproc must be >= 1, got {max_nproc}")
        app_name = application.name
        platform_name = platform.name
        keys = [(app_name, k, platform_name) for k in range(1, max_nproc + 1)]
        values = self._cache.get_many(
            keys, lambda key: self._raw(application, key[1], platform)
        )
        if self._noise_factor > 0.0:
            values = [self._perturb(v, k) for v, k in zip(values, keys)]
        return np.asarray(values, dtype=float)

    def evaluate_nodes(
        self, application: ApplicationModel, nodes: Sequence[Node]
    ) -> float:
        """Predicted time for *application* on an explicit node allocation ρ_j.

        The slowest platform in the allocation sets the pace (tightly
        coupled parallelism, §3: co-allocation across resources is out of
        scope precisely because slow links dominate).
        """
        if len(nodes) == 0:
            raise EvaluationError("allocation must contain at least one node")
        slowest = max(nodes, key=lambda n: n.platform.speed_factor).platform
        return self.evaluate_count(application, len(nodes), slowest)

    def evaluate_on_resource(
        self,
        application: ApplicationModel,
        resource: ResourceModel,
        node_ids: Sequence[int],
    ) -> float:
        """Predicted time for an allocation given by node ids within *resource*."""
        return self.evaluate_nodes(application, resource.subset(node_ids))

    def true_time(
        self, application: ApplicationModel, nproc: int, platform: PlatformSpec
    ) -> float:
        """The noise-free prediction — the 'actual' runtime in test mode.

        When ``noise_factor`` is 0 this equals :meth:`evaluate_count`; the
        accuracy ablation compares schedules built from noisy predictions
        against these exact times.
        """
        key = (application.name, nproc, platform.name)
        return self._cache.get_or_compute(
            key, lambda: self._raw(application, nproc, platform)
        )

    def best_count(
        self,
        application: ApplicationModel,
        platform: PlatformSpec,
        max_nproc: int,
    ) -> tuple[int, float]:
        """``(k, t)`` minimising predicted time over subset sizes 1..max_nproc.

        Implements the inner minimisation of eq. (10): "For a homogeneous
        local grid resource, the PACE evaluation function is called n
        times."  Ties resolve to the smaller count.
        """
        row = self.evaluate_counts(application, platform, max_nproc)
        best_k = int(np.argmin(row)) + 1  # argmin's first-min rule breaks ties down
        return best_k, float(row[best_k - 1])

    # --------------------------------------------------------------- internals

    def _perturb(self, value: float, key: tuple) -> float:
        if self._noise_factor == 0.0:
            return value
        # Deterministic per-key noise: the same prediction query must return
        # the same (wrong) answer for the run to be coherent, so the noise is
        # drawn once per key and cached alongside.
        noise_key = ("__noise__",) + key
        cached = self._cache.peek(noise_key)
        if cached is None:
            assert self._rng is not None  # guarded in __init__
            cached = float(np.exp(self._rng.normal(0.0, self._noise_factor)))
            self._cache.get_or_compute(noise_key, lambda: cached)
        return value * cached
