"""Dense, integer-indexed twins of the ω-automaton constructions.

Every decision procedure in the paper — the §5.1 class-membership checks,
the Props 5.3/5.4 logic↔automata translations, the linguistic A/E/R/P
constructions — starts from an automaton built by GPVW tableau expansion,
Safra determinization and quotient reduction.  The reference
implementations (``repro.logic``, ``repro.omega``) work over
dict-of-frozenset representations that are easy to audit but slow on large
inputs; this package re-implements those three constructions over *dense*
structures:

* an interned-signature GPVW tableau twin (``gpvw``);
* a flat-node, bitmask-labelled Safra determinization twin (``safra``);
* a signature-interning quotient-reduction (bisimulation) twin (``reduce``);
* Spot-style alphabet/label compression (``labels``): transition-equal
  symbols are partitioned into classes once per automaton so step-shaped
  kernels pay one successor computation per class, not per symbol;
* flat transition tables (``tables``), which the monitor fleet steps.

The twins sit behind the public entry points
(:func:`repro.logic.translate.formula_to_nba`,
:func:`repro.omega.safra.determinize` and
:func:`repro.omega.reduce.quotient_reduce`).  One size rule picks the
route: :func:`fastpath.config.dense_route` sends a call to the dense twin
once its work estimate reaches :data:`DENSE_MIN_WORK`, and to the reference
route below it; the corpus reaches both sides of the cutoff for all three.
:func:`fastpath.config.forced` pins either route for tests and the
differential oracle; there is no environment variable.  Emptiness, the
products and the Wagner SCC passes (``repro.omega.emptiness``,
``repro.omega.classify``) have the reference route only.

Correctness contract: each twin returns an automaton *structurally
identical* to the reference route (same BFS state numbering, same tables).
The ``qa`` ``fastpath`` oracle cross-checks the two routes on each fuzz run.
"""

from __future__ import annotations

from repro.fastpath.config import DENSE_MIN_WORK, dense_route, forced
from repro.fastpath.gpvw import enumerate_dense, valuation_partition
from repro.fastpath.labels import (
    LabelPartition,
    compress_det,
    det_partition,
    ensure_alphabet,
    expand_det,
    nba_partition,
)
from repro.fastpath.reduce import quotient_blocks_dense
from repro.fastpath.safra import determinize_dense as safra_determinize_dense

__all__ = [
    "DENSE_MIN_WORK",
    "LabelPartition",
    "compress_det",
    "dense_route",
    "det_partition",
    "ensure_alphabet",
    "enumerate_dense",
    "expand_det",
    "forced",
    "nba_partition",
    "quotient_blocks_dense",
    "safra_determinize_dense",
    "valuation_partition",
]
