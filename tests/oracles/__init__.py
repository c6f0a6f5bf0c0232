"""Reference implementations the production code is tested against.

Nothing under ``src/`` imports these (a guard test walks ``src/`` to keep
it so).  They are deliberately simple and slow:

* :mod:`.ga_reference` — the per-pair reference GA kernel and the scalar
  eq.-(8) cost, the cost-parity and invariant oracles for the one
  production GA kernel (:mod:`repro.scheduling.vectorized`);
* :mod:`.engine_reference` — the single-heap seed event engine, the
  firing-order oracle for the lane-partitioned :mod:`repro.sim.engine`;
* :mod:`.fifo_reference` — the paper's literal 2^n − 1 FIFO allocation
  search, the oracle for :func:`repro.scheduling.fifo.earliest_free_allocation`;
* :mod:`.advertisement_reference` — the uncached Fig. 5 record and
  freetime construction, the oracle for the cached advertisement plane;
* :mod:`.driver_reference` — the per-event ``step()`` run driver, the
  stop-point oracle for the fused :class:`repro.experiments.runner.Run`;
* :mod:`.liveness_reference` — the uncached neighbour scan and next-of-kin
  gossip, the oracle for the cached liveness plane;
* :mod:`.fault_reference` — the original per-message
  :meth:`repro.net.faults.FaultPlan.on_send`, the verdict and RNG-stream
  oracle for the production one.
"""
