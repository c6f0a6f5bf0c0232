"""Reference implementations the production code is tested against.

Nothing under ``src/`` imports these (a guard test walks ``src/`` to keep
it so).  They are deliberately simple and slow:

* :mod:`.ga_reference` — the per-pair reference GA kernel and the scalar
  eq.-(8) cost, the cost-parity and invariant oracles for the one
  production GA kernel (:mod:`repro.scheduling.vectorized`);
* :mod:`.engine_reference` — the single-heap seed event engine, the
  firing-order oracle for the lane-partitioned :mod:`repro.sim.engine`;
* :mod:`.fifo_reference` — the paper's literal 2^n − 1 FIFO allocation
  search, the oracle for :func:`repro.scheduling.fifo.earliest_free_allocation`.
"""
