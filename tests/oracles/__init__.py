"""Reference implementations the production code is tested against.

Nothing under ``src/`` imports these.  They are deliberately simple and
slow: the per-pair reference GA kernel and the scalar eq.-(8) cost, kept
as the cost-parity and invariant oracles for the one production GA kernel
(:mod:`repro.scheduling.vectorized`).
"""
