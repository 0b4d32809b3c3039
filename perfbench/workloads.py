"""Workload definitions for the solve benchmark.

Every workload solves the same stochastic dimension (N=4 KL modes, chaos
degree P=4, coefficient degree P'=8: 70 blocks, 495 stiffness matrices,
12,585 tensor entries) at a CoV near 100 %, and differs only in the mesh
and in the preconditioners it runs.  The shapes are fixed, so the layer
profile is the same for every seed; the seed only moves the CoV inside a
narrow band.
"""

from __future__ import annotations

import random

TOL = 1e-8
MAXIT = 1000
COV_PCT = 100.0
# Seeds draw the CoV from [COV_PCT, COV_PCT + COV_BAND_PCT).  Within it
# every workload keeps the iteration counts of 100 %: ahs needs one
# iteration less just below 100 %, mb and hs one more at 100.5 %.
COV_BAND_PCT = 0.2

# A solve is (preconditioner kind, standard truncation degree or None).
WORKLOADS = {
    # The paper's table configuration: tiny blocks, so the truncated block
    # products are bound by per-call dispatch, and gs costs several full
    # matvecs per apply.  Setup is a small share of the run.
    "table-n10": {
        "N": 4, "P": 4, "n": 10,
        "solves": [["mb", None], ["kron", None], ["gs", None], ["hs", None],
                   ["ahs", None], ["ahgs", None], ["gs", 2], ["ahgs", 2]],
    },
    # Large blocks: the full matvec costs arithmetic and memory traffic
    # rather than dispatch, and the dense KL eigensolve is most of the
    # setup.  No level factorization runs.
    "fine-n32": {
        "N": 4, "P": 4, "n": 32,
        "solves": [["kron", None], ["ahgs", None]],
    },
}


def cov_for_seed(seed: int) -> float:
    """CoV in percent for one seed; seed 0 gives exactly COV_PCT."""
    if seed == 0:
        return COV_PCT
    return COV_PCT + COV_BAND_PCT * random.Random(seed).random()
