"""Per-site reference batch: the oracle for the vectorized backend's lumped state.

:class:`repro.sim.vectorized.VectorizedReplicaBatch` keeps one value per
replicate -- the up and current masks, SC and DS -- and denies a partition
without a current copy before any kernel runs.  This is the layout it kept
before: per-site version numbers, SC and DS as (R, n) arrays, and a
masked argmax over the up sites' versions at every step (:class:`_StepView`)
to find the current copies *I* and read SC/DS at one of them.  It drives
the production kernels with those row summaries and lets them decide a
stale-only partition on its own stale metadata, as the per-site backend
did.  Equal outcomes therefore check both the lumped bookkeeping and the
Theorem 1 argument it rests on: no kernel grants a partition that holds
no current copy.

Sampling, the site toggle and the outcome counters are inherited, so a
reference batch consumes exactly the production batch's random streams.
The inherited lumped state (``current``, ``sc``, ``ds``) is never
updated; the per-site state is ``site_vn``, ``site_sc`` and ``site_ds``.
"""

from __future__ import annotations

import numpy as np

from repro.sim.vectorized import VectorizedReplicaBatch


class _StepView:
    """Row summaries of one batched event step over per-site metadata."""

    __slots__ = ("k", "M", "i_mask", "card", "dsm", "p_bits", "i_bits")

    def __init__(
        self,
        up: np.ndarray,
        vn: np.ndarray,
        sc: np.ndarray,
        ds: np.ndarray,
        bitvals: np.ndarray,
    ) -> None:
        rows = np.arange(up.shape[0])
        self.k = up.sum(axis=1)
        masked = np.where(up, vn, -1)
        idx = masked.argmax(axis=1)
        self.M = masked[rows, idx]
        self.i_mask = up & (vn == self.M[:, None])
        self.card = sc[rows, idx]
        self.dsm = ds[rows, idx]
        self.p_bits = np.where(up, bitvals, 0).sum(axis=1)
        self.i_bits = np.where(self.i_mask, bitvals, 0).sum(axis=1)


class PerSiteReplicaBatch(VectorizedReplicaBatch):
    """A vectorized batch that stores and installs metadata per site."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        replicates, n = self._up.shape
        self.site_vn = np.zeros((replicates, n), dtype=np.int64)
        self.site_sc = np.repeat(self._sc[:, None], n, axis=1)
        self.site_ds = np.repeat(self._ds[:, None], n, axis=1)

    def _update(self, struck: np.ndarray) -> np.ndarray:
        view = _StepView(
            self._up, self.site_vn, self.site_sc, self.site_ds, self._bitvals
        )
        kernel = self._kernel
        accept = kernel.decide(
            view.p_bits, view.i_bits, view.k, view.card, view.dsm
        ) & (view.k > 0)
        new_sc, new_ds = kernel.commit(
            view.p_bits, view.k, view.card, view.dsm, struck
        )
        shape = (self.replicates,)
        install = accept[:, None] & self._up
        self.site_vn = np.where(install, (view.M + 1)[:, None], self.site_vn)
        self.site_sc = np.where(
            install, np.broadcast_to(new_sc, shape)[:, None], self.site_sc
        )
        self.site_ds = np.where(
            install,
            np.broadcast_to(new_ds, shape).astype(np.uint64)[:, None],
            self.site_ds,
        )
        self._k = view.k
        return accept
