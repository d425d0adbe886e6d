"""Seeded generation of valid fuzz points from the registry grammar.

The generator draws *spec strings* and config overrides straight from
the typed registries: defense and workload parameters come from each
entry's :meth:`repro.registry.core.Entry.params` metadata, predictor
kinds from the ``predictor`` registry, and numeric config leaves from
the :data:`BOUNDS` table below.  Anything registered — including
plugins loaded via ``REPRO_PLUGINS`` — is therefore fuzzable for free.

Determinism contract: :func:`generate` is a pure function of
``(seed, count, budget)`` plus the set of registered components.  Every
draw seeds its own ``random.Random`` from a string key (hashed with
SHA-512 internally, so the sequence is identical across processes and
platforms), and invalid candidates are discarded by deterministic
rejection sampling — the same seed always yields the same points.

:func:`check_bounds_table` requires a :data:`BOUNDS` entry for every
config leaf marked ``since=`` in :mod:`repro.config`, so new config
knobs become fuzzable the moment they are added.
"""

from __future__ import annotations

import ast
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.exp.spec import ConfigVariant, SweepPoint, apply_overrides, \
    resolve_defense, resolve_workload
from repro.config import config_leaves, default_config
from repro.registry import component_registry, format_spec, load_plugins

#: Workload scale every fuzz point runs at (points must stay cheap —
#: the oracles simulate each one at least twice).
FUZZ_SCALE = 0.05

#: Cycle-cap backstop; the real horizon is the --budget max_insts cap.
FUZZ_MAX_CYCLES = 2_000_000

#: Default committed-instruction budget per fuzz point.
DEFAULT_BUDGET = 4_000

#: Rejection-sampling cap per point before falling back to the bare
#: family name with no parameters or overrides (always valid).
_MAX_ATTEMPTS = 50


@dataclass(frozen=True)
class RegistryChoice:
    """A bounds entry whose values are the names of a registry kind."""

    kind: str

    def values(self) -> List[str]:
        return sorted(component_registry(self.kind).names())


#: Dotted config-leaf path -> menu of candidate override values.  Menus
#: are deliberately conservative: every value must pass
#: ``SystemConfig.validate`` against the default config (pinned by
#: tests/test_fuzz.py), so rejection sampling almost never rejects on
#: geometry.  :func:`check_bounds_table` requires an entry here for
#: every config leaf marked ``since=``.  The menus are keyed by path,
#: not carried as field metadata, because one ``CacheConfig`` field
#: serves ``l1i``, ``l1d`` and ``l2`` with different menus.
BOUNDS = {
    "core.predictor.kind": RegistryChoice("predictor"),
    "core.fetch_width": (2, 4, 8),
    "core.issue_width": (2, 4, 8),
    "core.commit_width": (2, 4, 8),
    "core.rob_entries": (48, 96, 192, 320),
    "core.iq_entries": (16, 32, 64),
    "core.lq_entries": (8, 16, 32),
    "core.sq_entries": (8, 16, 32),
    "core.int_alus": (2, 4, 6),
    "core.fp_alus": (1, 2, 4),
    "core.muldiv_units": (1, 2),
    "core.mispredict_penalty": (4, 8, 16),
    "core.strict_fu_order": (True, False),
    "l1i.size_bytes": (16 * 1024, 32 * 1024),
    "l1i.assoc": (1, 2, 4),
    "l1i.latency": (1, 2, 3),
    "l1i.mshrs": (1, 2, 4, 8),
    "l1d.size_bytes": (16 * 1024, 64 * 1024),
    "l1d.assoc": (1, 2, 4),
    "l1d.latency": (1, 2, 4),
    "l1d.mshrs": (1, 2, 4, 8),
    "l2.size_bytes": (256 * 1024, 2 * 1024 * 1024),
    "l2.assoc": (4, 8),
    "l2.latency": (10, 20, 30),
    "l2.mshrs": (4, 10, 20),
    "dram.base_latency": (40, 80, 160),
    "dram.row_hit_latency": (20, 40),
    "dram.banks": (4, 8, 16),
    "dram.open_page": (True, False),
    "dram.nonspec_open_only": (True, False),
    "minion_d.size_bytes": (512, 1024, 2048),
    "minion_d.assoc": (1, 2, 4),
    "minion_d.async_reload": (True, False),
    "minion_d.timeless": (True, False),
    "minion_i.size_bytes": (512, 1024, 2048),
    "minion_i.assoc": (1, 2, 4),
    "minion_i.async_reload": (True, False),
    "l2_prefetcher": (True, False),
    "prefetcher_rpt_entries": (16, 64, 128),
    "model_tlb": (True, False),
    "iprefetch_into_minion": (True, False),
    "l2_mshr_partitioning": (True, False),
}

#: Synthetic-workload iteration menus: points must finish in well under
#: a second each, so iteration counts stay tiny.
_ITER_MENU = (60, 90, 120, 160)

#: Spec-string parameters the generator never draws: they control run
#: *cost*, not machine behaviour, and are pinned by the budget policy.
_SKIP_PARAMS = {"iters", "threads"}


@dataclass(frozen=True)
class FuzzPoint:
    """One generated scenario: specs + overrides, all data.

    A fuzz point is deliberately *strings and literals* — exactly what
    a reproducer file stores — and is rebuilt into a live
    :class:`~repro.exp.spec.SweepPoint` per oracle leg, so component
    construction happens under each leg's environment.
    """

    seed: int
    index: int
    workload: str
    defense: str
    overrides: Tuple[Tuple[str, object], ...] = ()
    scale: float = FUZZ_SCALE
    budget: Optional[int] = DEFAULT_BUDGET

    @property
    def label(self) -> str:
        return "fuzz-%d-%d" % (self.seed, self.index)

    def build(self) -> SweepPoint:
        """Resolve into the engine's unit of work (validates specs,
        overrides and config geometry — raises on invalid points)."""
        point = SweepPoint(
            workload=resolve_workload(self.workload),
            defense=resolve_defense(self.defense),
            variant=ConfigVariant.make(self.label,
                                       dict(self.overrides)),
            scale=self.scale,
            max_cycles=FUZZ_MAX_CYCLES,
            max_insts=self.budget)
        point.config()  # apply overrides + SystemConfig.validate()
        return point

    def as_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "index": self.index,
            "workload": self.workload,
            "defense": self.defense,
            "overrides": dict(self.overrides),
            "scale": self.scale,
            "budget": self.budget,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FuzzPoint":
        return cls(
            seed=int(payload["seed"]),
            index=int(payload["index"]),
            workload=payload["workload"],
            defense=payload["defense"],
            overrides=tuple(sorted(
                dict(payload.get("overrides") or {}).items())),
            scale=float(payload.get("scale", FUZZ_SCALE)),
            budget=payload.get("budget", DEFAULT_BUDGET),
        )


def defense_families() -> List[str]:
    """Every registered defense name, sorted — the strata the generator
    round-robins over so each family appears within one cycle."""
    load_plugins()
    return sorted(component_registry("defense").names())


def _literal_default(row: Dict[str, object]) -> object:
    """A param row's default as a literal (None when not resolvable)."""
    if row.get("required") or row.get("default") is None:
        return None
    try:
        return ast.literal_eval(row["default"])
    except (ValueError, SyntaxError):
        return None


def _draw_param_kwargs(rng: random.Random, kind: str, name: str,
                       probability: float = 0.25
                       ) -> Dict[str, object]:
    """Draw keyword arguments for one registry entry from its own
    ``params()`` metadata.  Only parameters whose defaults are bool/int
    literals are perturbed — their neighbourhoods are type-safe for any
    factory — and each is included with ``probability``."""
    entry = component_registry(kind).entry(name)
    kwargs: Dict[str, object] = {}
    for row in entry.params():
        pname = row["name"]
        if pname.startswith("**") or pname in _SKIP_PARAMS:
            continue
        default = _literal_default(row)
        if isinstance(default, bool):
            menu = (True, False)
        elif isinstance(default, int):
            menu = (default, max(1, default // 2), default * 2)
        else:
            continue
        if rng.random() < probability:
            kwargs[pname] = rng.choice(menu)
    return kwargs


def _draw_overrides(rng: random.Random
                    ) -> Tuple[Tuple[str, object], ...]:
    count = rng.randint(0, 3)
    paths = rng.sample(sorted(BOUNDS), count)
    drawn = {}
    for path in paths:
        menu = BOUNDS[path]
        values = menu.values() if isinstance(menu, RegistryChoice) \
            else list(menu)
        drawn[path] = rng.choice(values)
    return tuple(sorted(drawn.items()))


def _draw_candidate(rng: random.Random, seed: int, index: int,
                    family: str, budget: Optional[int]) -> FuzzPoint:
    synth = component_registry("workload").names(tag="synthetic")
    kernel = rng.choice(sorted(synth))
    wkwargs = {"iters": rng.choice(_ITER_MENU)}
    wkwargs.update(_draw_param_kwargs(rng, "workload", kernel))
    dkwargs = _draw_param_kwargs(rng, "defense", family)
    return FuzzPoint(
        seed=seed, index=index,
        workload=format_spec(kernel, wkwargs),
        defense=format_spec(family, dkwargs) if dkwargs else family,
        overrides=_draw_overrides(rng),
        budget=budget)


def generate(seed: int, count: int,
             budget: Optional[int] = DEFAULT_BUDGET
             ) -> List[FuzzPoint]:
    """``count`` deterministic, valid fuzz points for ``seed``.

    Draw ``i`` takes its defense family round-robin from
    :func:`defense_families`, so every registered family is covered
    within one cycle (``len(families)`` draws).  Candidates that fail
    to resolve — unknown params, invalid cache geometry, kernel
    argument errors — are rejected and redrawn deterministically; after
    :data:`_MAX_ATTEMPTS` rejections the point degrades to the bare
    family with a default synthetic workload, which is always valid.
    """
    families = defense_families()
    points: List[FuzzPoint] = []
    for index in range(count):
        family = families[index % len(families)]
        chosen: Optional[FuzzPoint] = None
        for attempt in range(_MAX_ATTEMPTS):
            rng = random.Random("%d:%d:%d" % (seed, index, attempt))
            candidate = _draw_candidate(rng, seed, index, family,
                                        budget)
            try:
                candidate.build()
            except Exception:
                continue
            chosen = candidate
            break
        if chosen is None:
            chosen = FuzzPoint(seed=seed, index=index,
                               workload="stream(iters=60)",
                               defense=family, budget=budget)
        points.append(chosen)
    return points


def check_bounds_table() -> None:
    """Every ``since=`` config leaf must have a BOUNDS entry, every
    BOUNDS path must name a config leaf, and every menu value must
    validate against the default config (one override at a time).
    Raises ``ValueError`` on violations; pinned by tests/test_fuzz.py."""
    leaves = config_leaves()
    missing = sorted(leaf.path for leaf in leaves
                     if leaf.since > 1 and leaf.path not in BOUNDS)
    stale = sorted(set(BOUNDS) - {leaf.path for leaf in leaves})
    if missing:
        raise ValueError("no BOUNDS entry for post-v1 config leaves %s"
                         % missing)
    if stale:
        raise ValueError("BOUNDS paths %s are not config leaves" % stale)
    for path in sorted(BOUNDS):
        menu = BOUNDS[path]
        values = menu.values() if isinstance(menu, RegistryChoice) \
            else list(menu)
        if not values:
            raise ValueError("empty bounds menu for %r" % path)
        for value in values:
            cfg = apply_overrides(default_config(), {path: value})
            cfg.validate()
