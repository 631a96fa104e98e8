"""The optimizer without hot-path layers 1 and 2, for the tests to compare against.

``StarEngine`` always builds a :class:`~repro.stars.memo.StarMemo` and
every ``PlanFactory`` always builds its own
:class:`~repro.plans.intern.PlanInterner`; nothing in ``src/`` can ask for
an optimization without them.  What the
old ``memo_stars=False`` / ``intern_plans=False`` switches gave — every
STAR reference expanded again, every LOLEPOP application priced and built
again — lives here as a memo that never remembers and an interner that
never shares, with the attribute surface (``stats`` included) of the
classes they stand in for.  The ``layers_off`` fixture puts them where the
engine and the factory look their collaborators up, the way
``test_hash_join_label_says_what_it_built[iterator]`` substitutes
``repro.executor.runtime.QueryExecutor``.  It is test code: nothing under
``src/`` imports it.  (Layer 3, dominance pruning, stays
``OptimizerConfig(prune=False)``: ablation A1 and the backend tests ask
for the unpruned space.)

The same fixture turns off ``"candidates"`` — a JOIN priced and judged
before it is built: :class:`EagerFactory` builds every join the moment it
is priced, which is how every join was made before.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.cost.propfuncs import PlanFactory
from repro.plans.intern import PlanInterner
from repro.plans.plan import PlanNode
from repro.plans.sap import SAP
from repro.stars.memo import StarMemo


class ForgetfulMemo(StarMemo):
    """Every lookup misses: each reference pays for its own expansion."""

    __slots__ = ()

    def put(self, key, sap) -> None:
        pass


class SeparateInterner(PlanInterner):
    """Every application is new: nothing is found before pricing and every
    node built is its own canonical representative."""

    __slots__ = ()

    def find(self, key: tuple) -> None:
        return None

    def intern(self, node: PlanNode) -> PlanNode:
        self.stats.requests += 1
        self.stats.unique += 1
        return node


class EagerFactory(PlanFactory):
    """Every join is built where it is priced — property vector, two
    ``Cost`` s, ``PlanNode`` and interner entry — whether pruning keeps it
    or not."""

    def join_candidate(self, *args, **kwargs):
        # Reading a SAP builds the candidates it holds.
        return SAP([super().join_candidate(*args, **kwargs)]).plans[0]


#: Layer name → (where the collaborator is looked up, stand-in).
REFERENCES = {
    "memo": ("repro.stars.engine.StarMemo", ForgetfulMemo),
    "intern": ("repro.cost.propfuncs.PlanInterner", SeparateInterner),
    "candidates": ("repro.stars.engine.PlanFactory", EagerFactory),
}


@pytest.fixture
def layers_off(monkeypatch):
    """``with layers_off("memo", "intern"): ...`` — engines constructed in
    the block run on the stand-ins for the named layers."""

    @contextmanager
    def off(*layers: str):
        with monkeypatch.context() as patch:
            for layer in layers:
                patch.setattr(*REFERENCES[layer])
            yield

    return off
