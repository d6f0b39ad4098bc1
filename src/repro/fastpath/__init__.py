"""Dense, integer-indexed twins of the ω-automaton kernels.

Every decision procedure in the paper — the §5.1 class-membership checks,
the Props 5.3/5.4 logic↔automata translations, the linguistic A/E/R/P
constructions — bottoms out in the same few ω kernels: GPVW tableau
expansion, Safra determinization, quotient reduction, SCC-based emptiness,
synchronous products and the Wagner SCC passes.  The reference
implementations (``repro.logic``, ``repro.omega``) work over
dict-of-frozenset representations that are easy to audit but slow on large
inputs; this package re-implements those six kernels over *dense*
structures:

* flat transition tables — one flat list of ``n·|Σ|`` integers,
  indexed ``table[state * k + symbol]``;
* bitset state sets — Python ``int`` masks, so union/intersection/
  complement are single big-int operations and membership is a shift;
* iterative Tarjan SCC + mask-based Streett/Rabin pruning for emptiness;
* a flat-node, bitmask-labelled Safra determinization twin and an
  interned-signature GPVW tableau twin for the ω-side translations;
* Spot-style alphabet/label compression (``labels``): transition-equal
  symbols are partitioned into classes once per automaton so step-shaped
  kernels pay one successor computation per class, not per symbol;
* a signature-interning quotient-reduction (bisimulation) twin.

The twins sit behind the public entry points
(:func:`repro.logic.translate.formula_to_nba`,
:func:`repro.omega.safra.determinize`,
:func:`repro.omega.reduce.quotient_reduce`,
:func:`repro.omega.emptiness.nonempty_states`,
:class:`repro.omega.emptiness.ProductCheck` and
:class:`repro.omega.emptiness.CycleBackend`, which serves the class checks
in :mod:`repro.omega.classify`).  One size rule picks the route:
:func:`fastpath.config.dense_route` sends a call to the dense twin once its
work estimate reaches :data:`DENSE_MIN_WORK`, and to the reference route
below it (on the corpus, only GPVW, Safra and quotient calls get that far).
:func:`fastpath.config.forced` pins either route for tests and the
differential oracle; there is no environment variable.

Correctness contract: the Safra, GPVW, quotient and product kernels return
automata *structurally identical* to the reference route (same BFS state
numbering, same tables); the emptiness kernels return the same state
*sets* (witness components may be enumerated in a different order).  The
``qa`` ``fastpath`` oracle cross-checks the two routes on each fuzz run.
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
from repro.fastpath.product import explore_pair_dense, explore_vector_dense
from repro.fastpath.reduce import quotient_blocks_dense
from repro.fastpath.safra import determinize_dense as safra_determinize_dense
from repro.fastpath.scc import nonempty_states_dense, streett_good_masks

__all__ = [
    "DENSE_MIN_WORK",
    "LabelPartition",
    "compress_det",
    "dense_route",
    "det_partition",
    "ensure_alphabet",
    "enumerate_dense",
    "expand_det",
    "explore_pair_dense",
    "explore_vector_dense",
    "forced",
    "nba_partition",
    "nonempty_states_dense",
    "quotient_blocks_dense",
    "safra_determinize_dense",
    "streett_good_masks",
    "valuation_partition",
]
