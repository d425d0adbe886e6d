"""Builtin lint checkers, registered as ``lint`` components.

Importing this module populates the ``lint`` registry — it is the
``_BUILTIN_MODULES`` target for the kind, so ``repro lint``,
``repro list lints`` and ``repro describe <checker>`` all resolve
through the same typed-registry seam as defenses and workloads.
Plugins (``REPRO_PLUGINS`` / ``repro_plugins.py``) add checkers with::

    from repro.lintkit import LINTS, Checker

    @LINTS.register("my-invariant", tags=("plugin",),
                    metadata={"contract": "..."})
    class MyChecker(Checker):
        ...
"""

from __future__ import annotations

from repro.registry.core import Registry

from repro.lintkit.checkers.determinism import DeterminismChecker
from repro.lintkit.checkers.docs_sync import DocsSyncChecker
from repro.lintkit.checkers.obs_guards import ObsGuardsChecker
from repro.lintkit.checkers.purity import ProofPurityChecker
from repro.lintkit.checkers.snapshot import SnapshotChecker
from repro.lintkit.checkers.stats_slots import StatsSlotsChecker

#: The ``lint`` component registry: checker name -> checker class.
LINTS: Registry = Registry("lint")

for _cls in (SnapshotChecker, ProofPurityChecker, StatsSlotsChecker,
             DeterminismChecker, DocsSyncChecker, ObsGuardsChecker):
    LINTS.add(_cls.name, _cls, tags=("builtin",),
              summary=_cls.summary,
              metadata={"contract": _cls.contract,
                        "codes": dict(_cls.codes)})

__all__ = [
    "DeterminismChecker",
    "DocsSyncChecker",
    "LINTS",
    "ObsGuardsChecker",
    "ProofPurityChecker",
    "SnapshotChecker",
    "StatsSlotsChecker",
]
