"""Declarative experiment specifications.

An :class:`Experiment` (alias :class:`Sweep`) is the cross product of
workloads x defenses x config variants at one workload scale.  Calling
:meth:`Experiment.points` expands it into a flat, deterministically
ordered list of :class:`SweepPoint`\\ s — the unit of work the engine
executes, caches and keys results by.

Config variants are expressed as dotted-path overrides on top of the
base :class:`~repro.config.SystemConfig` (e.g. the fig. 11 size sweep is
``{"minion_d.size_bytes": 512, "minion_i.size_bytes": 512}``), so a
sweep axis is data, not code.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.config import SystemConfig, config_leaves, default_config
from repro.defenses import DEFENSES
from repro.defenses.base import Defense
from repro.workloads.spec import WORKLOADS, WorkloadSpec

#: Bump when the result summary format (or simulation semantics relevant
#: to cached summaries) changes incompatibly; invalidates every cache
#: entry.
CACHE_SCHEMA_VERSION = 1

_CODE_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """Digest of the ``repro`` package sources (memoized per process).

    Folded into every point digest so editing simulator code invalidates
    cached results automatically — the rest of the digest covers only
    *inputs*, and a reproduction toolkit must never silently mix numbers
    from two versions of the simulator.
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        import repro
        root = os.path.dirname(os.path.abspath(repro.__file__))
        sources = []
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            sources.extend(
                os.path.relpath(os.path.join(dirpath, name), root)
                for name in filenames if name.endswith(".py"))
        digest = hashlib.sha256()
        for relpath in sorted(sources):
            digest.update(relpath.encode())
            with open(os.path.join(root, relpath), "rb") as handle:
                digest.update(handle.read())
        _CODE_FINGERPRINT = digest.hexdigest()
    return _CODE_FINGERPRINT


def resolve_defense(defense: Union[str, Defense]) -> Defense:
    """Construct a defense from a registry name or spec string
    (``"MuonTrap(flush=True)"``), or pass a :class:`Defense` through.

    This is the single defense-resolution path: the CLI, the engine and
    :mod:`repro.sim.runner` all funnel here.  Unknown names raise
    :class:`repro.registry.UnknownComponentError` (a ``KeyError``) with
    did-you-mean suggestions.
    """
    if isinstance(defense, Defense):
        return defense
    return DEFENSES.create(defense)


def resolve_workload(workload: Union[str, WorkloadSpec]) -> WorkloadSpec:
    """Construct a workload from a name or spec string
    (``"pointer_chase(stride=128)"``), or pass a spec through."""
    if isinstance(workload, WorkloadSpec):
        return workload
    return WORKLOADS.create(workload)


def apply_overrides(cfg: SystemConfig,
                    overrides: Dict[str, object]) -> SystemConfig:
    """Return a copy of ``cfg`` with dotted-path ``overrides`` applied.

    Paths name existing config attributes (``"minion_d.size_bytes"``,
    ``"dram.open_page"``); unknown paths raise ``AttributeError`` so
    typos cannot silently no-op a sweep axis.
    """
    new = cfg.copy()
    for path, value in overrides.items():
        target = new
        parts = path.split(".")
        for part in parts[:-1]:
            target = getattr(target, part)
        if not hasattr(target, parts[-1]):
            raise AttributeError("unknown config field %r" % path)
        setattr(target, parts[-1], value)
    return new


@dataclass(frozen=True)
class ConfigVariant:
    """One labelled point on a config axis (dotted-path overrides)."""

    label: str = "base"
    overrides: Tuple[Tuple[str, object], ...] = ()

    @staticmethod
    def make(label: str = "base",
             overrides: Optional[Dict[str, object]] = None
             ) -> "ConfigVariant":
        return ConfigVariant(
            label=label,
            overrides=tuple(sorted((overrides or {}).items())))

    def as_dict(self) -> Dict[str, object]:
        return dict(self.overrides)


BASE_VARIANT = ConfigVariant.make()


def _defense_descriptor(defense: Defense) -> Dict[str, object]:
    """A JSON-able, digest-stable description of a defense's config.

    The normalized spec string of a *parameterized* construction is
    folded in; plain-name constructions carry no ``spec`` key, so their
    descriptors — and hence the input half of their digests — are
    byte-identical to the pre-registry engine.  (Digests also fold
    :func:`code_fingerprint`, which *any* source edit changes by
    design; token stability is about never forking point identities
    beyond that deliberate invalidation.)
    """
    cls = defense.hierarchy_cls
    descriptor = {
        "name": defense.name,
        "hierarchy": "%s.%s" % (cls.__module__, cls.__qualname__),
        "hierarchy_kwargs": dict(sorted(defense.hierarchy_kwargs.items())),
        "taint_mode": defense.taint_mode,
        "validation_mode": defense.validation_mode,
        "strict_fu_order": defense.strict_fu_order,
        "train_predictor_at_commit": defense.train_predictor_at_commit,
        "early_commit": defense.early_commit,
        "epoch_timestamps": defense.epoch_timestamps,
    }
    if defense.spec is not None:
        descriptor["spec"] = defense.spec
    return descriptor


#: Token fields introduced after ``CACHE_SCHEMA_VERSION`` was frozen,
#: as (dotted path into the cache token, default).
#: :func:`_strip_post_v1_defaults` drops them while they hold their
#: default, so points not using the new knob keep the exact input token
#: they had before the field existed.  The entries are the config leaves
#: marked ``since=`` in :mod:`repro.config`, at their Table 1 defaults.
#: (The full digest still turns over whenever sources change, via
#: :func:`code_fingerprint` — this table keeps tokens from *also*
#: drifting structurally, so digests stay stable across future
#: non-source changes and never fork identities per knob added.)
_POST_V1_CONFIG_DEFAULTS: Tuple[Tuple[str, object], ...] = tuple(
    ("config." + leaf.path, leaf.default)
    for leaf in config_leaves() if leaf.since > 1)


def _strip_post_v1_defaults(token: Dict[str, object]
                            ) -> Dict[str, object]:
    """Drop post-v1 token fields that hold their defaults (in place)."""
    for path, default in _POST_V1_CONFIG_DEFAULTS:
        parts = path.split(".")
        node = token
        for part in parts[:-1]:
            node = node.get(part)
            if not isinstance(node, dict):
                node = None
                break
        if node is not None and parts[-1] in node \
                and node[parts[-1]] == default:
            del node[parts[-1]]
    return token


def _plain(value: object) -> object:
    """JSON-ready view of ``value``: dataclasses become dicts of their
    fields and containers are rebuilt, but leaves are shared.

    Encodes exactly like :func:`dataclasses.asdict` under the token's
    ``json.dumps`` settings, without ``asdict``'s per-leaf
    ``copy.deepcopy``.
    """
    if value is None or isinstance(value, (str, int, float)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return tuple(_plain(item) for item in value)
    if isinstance(value, list):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value


#: The canonical JSON encoding every digest hashes: one encoder for
#: the process (``json.dumps`` with these arguments builds a fresh
#: ``JSONEncoder`` per call).
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                              default=str).encode


def _config_entry(cfg: SystemConfig) -> Dict[str, object]:
    """The token's ``config`` entry, post-v1 defaults stripped."""
    return _strip_post_v1_defaults({"config": _plain(cfg)})["config"]


def _resolve_config(base_cfg: Optional[SystemConfig],
                    overrides: Tuple[Tuple[str, object], ...],
                    threads: int) -> SystemConfig:
    """``base_cfg`` (default: Table 1) with ``overrides`` applied and
    one core per workload thread; unvalidated, since tokens record the
    inputs as given (:meth:`SweepPoint.config` validates)."""
    if any(path == "cores" for path, _ in overrides):
        raise ValueError(
            "config override 'cores' is not allowed: every point runs "
            "one core per workload thread")
    cfg = apply_overrides(
        base_cfg if base_cfg is not None else default_config(),
        dict(overrides))
    cfg.cores = threads
    return cfg


#: Override value types whose ``==`` implies byte-identical JSON once
#: the type is part of the memo key (``True == 1`` but encodes as
#: ``true``).  ``float`` is left out because ``0.0 == -0.0``.
_MEMO_SCALARS = (bool, int, str, type(None))


@functools.lru_cache(maxsize=1024, typed=True)
def _default_config_json(key: Tuple[Tuple[str, type, object], ...],
                         threads: int) -> str:
    """Canonical JSON of the ``config`` entry of a default-config point
    with the type-tagged overrides ``key`` (see
    :meth:`SweepPoint._config_json`)."""
    overrides = tuple((path, value) for path, _, value in key)
    return _canonical(_config_entry(
        _resolve_config(None, overrides, threads)))


@dataclass
class SweepPoint:
    """One (workload, defense, variant, scale) simulation to run."""

    workload: WorkloadSpec
    defense: Defense
    variant: ConfigVariant = BASE_VARIANT
    scale: float = 1.0
    max_cycles: int = 5_000_000
    #: Early-stop policy: stop once this many instructions have
    #: committed (``None`` = run to completion).  Declarative, so sweeps
    #: can cap simulation length without touching simulator call sites.
    max_insts: Optional[int] = None
    base_cfg: Optional[SystemConfig] = None

    @property
    def key(self) -> str:
        """Stable human-readable result key."""
        return "%s::%s::%s" % (self.workload.name, self.defense.name,
                               self.variant.label)

    def config(self) -> SystemConfig:
        """The fully resolved, validated config this point simulates
        under.

        ``cores`` always follows the workload's thread count, so a
        ``cores`` override raises ``ValueError`` rather than being
        silently replaced.
        """
        cfg = self._inputs_config()
        cfg.validate()
        return cfg

    def _inputs_config(self) -> SystemConfig:
        """The resolved config, unvalidated (what the tokens record)."""
        return _resolve_config(self.base_cfg, self.variant.overrides,
                               self.workload.threads)

    def _token_scalars(self) -> Dict[str, object]:
        """The token's scalar fields.

        Every key here sorts between ``defense`` and ``workload``,
        which is where :func:`point_digests` splices them in.
        """
        return {
            "version": CACHE_SCHEMA_VERSION,
            "scale": self.scale,
            "max_cycles": self.max_cycles,
            "max_insts": self.max_insts,
        }

    def _token(self) -> Dict[str, object]:
        """The one token builder; :func:`point_digests` encodes the
        same fields piecewise."""
        token = _token_head()
        token.update(self._token_scalars())
        token["workload"] = _plain(self.workload)
        token["defense"] = _defense_descriptor(self.defense)
        token["config"] = _config_entry(self._inputs_config())
        return token

    def _config_json(self) -> str:
        """Canonical JSON of the token's ``config`` entry.

        Points on the default config with scalar override values are
        memoized per ``(type-tagged overrides, threads)``: every
        figure and CLI sweep resolves a handful of distinct configs
        across hundreds of points.  ``base_cfg`` points are walked
        every time, since the caller may mutate that config between
        calls.
        """
        overrides = self.variant.overrides
        if self.base_cfg is None and all(
                type(value) in _MEMO_SCALARS for _, value in overrides):
            key = tuple((path, type(value), value)
                        for path, value in overrides)
            return _default_config_json(key, self.workload.threads)
        return _canonical(_config_entry(self._inputs_config()))

    def cache_token(self) -> Dict[str, object]:
        """Everything the simulation result is a pure function of."""
        return self._token()

    def digest(self) -> str:
        """Content address of this point: sha256 of the canonical JSON
        of :meth:`cache_token` (see :func:`point_digests`)."""
        return point_digests([self])[0]

def _token_head() -> Dict[str, object]:
    """The token fields every point shares: the source fingerprint."""
    return {"code": code_fingerprint()}


def point_digests(points: Sequence[SweepPoint]) -> List[str]:
    """Content addresses of ``points``: sha256 of the canonical JSON of
    each point's :meth:`~SweepPoint.cache_token`.

    The canonical text is spliced from pieces in sorted-key order: the
    shared head (``code``), the config JSON
    (:meth:`SweepPoint._config_json`), then the defense, scalar and
    workload pieces.  Within one call each distinct workload object,
    defense object and scalar tail is encoded once, keyed by object
    identity — ``points`` holds every keyed object for the whole call,
    and identity never confuses ``1`` with ``True`` or ``0.0`` with
    ``-0.0``.  Nothing keyed on a mutable input outlives the call: a
    spec or defense edited between two calls is encoded afresh.
    """
    points = list(points)
    head = _canonical(_token_head())[:-1] + ',"config":'
    defenses: Dict[int, str] = {}
    tails: Dict[Tuple[int, ...], str] = {}
    workloads: Dict[int, str] = {}
    digests = []
    for point in points:
        defense = defenses.get(id(point.defense))
        if defense is None:
            defense = defenses[id(point.defense)] = ',"defense":' + \
                _canonical(_defense_descriptor(point.defense))
        key = (id(point.scale), id(point.max_cycles), id(point.max_insts))
        tail = tails.get(key)
        if tail is None:
            tail = tails[key] = \
                "," + _canonical(point._token_scalars())[1:-1]
        workload = workloads.get(id(point.workload))
        if workload is None:
            workload = workloads[id(point.workload)] = ',"workload":' + \
                _canonical(_plain(point.workload)) + "}"
        text = head + point._config_json() + defense + tail + workload
        digests.append(hashlib.sha256(text.encode("utf-8")).hexdigest())
    return digests


@dataclass
class Experiment:
    """A declarative sweep: workloads x defenses x variants at a scale.

    ``scale=None`` resolves ``REPRO_SCALE`` lazily at expansion time (see
    :func:`repro.sim.runner.default_scale`).  ``base_cfg`` seeds every
    point's config before variant overrides; per-point ``cores`` always
    follows the workload's thread count (a ``cores`` override is an
    error).
    """

    name: str = "sweep"
    workloads: Sequence[Union[str, WorkloadSpec]] = ()
    defenses: Sequence[Union[str, Defense]] = ()
    variants: Sequence[ConfigVariant] = (BASE_VARIANT,)
    scale: Optional[float] = None
    max_cycles: int = 5_000_000
    #: Engine-level early-stop: cap every point at this many committed
    #: instructions (``None`` = no cap).  Folded into point digests, so
    #: capped and uncapped runs never share cache entries.
    max_insts: Optional[int] = None
    base_cfg: Optional[SystemConfig] = None

    def points(self) -> List[SweepPoint]:
        """Expand to a flat point list (workload-major, then defense,
        then variant — the iteration order results are reported in)."""
        from repro.sim.runner import default_scale
        scale = self.scale if self.scale is not None else default_scale()
        specs = [resolve_workload(w) for w in self.workloads]
        defenses = [resolve_defense(d) for d in self.defenses]
        points = [
            SweepPoint(workload=spec, defense=defense, variant=variant,
                       scale=scale, max_cycles=self.max_cycles,
                       max_insts=self.max_insts,
                       base_cfg=self.base_cfg)
            for spec in specs
            for defense in defenses
            for variant in self.variants
        ]
        seen: Dict[str, SweepPoint] = {}
        for point in points:
            key = point.key
            if key in seen:
                raise ValueError(
                    "duplicate sweep point %r: give colliding defenses "
                    "or variants distinct names/labels" % key)
            seen[key] = point
        return points


#: ``Sweep`` is the short name used throughout the engine and CLI.
Sweep = Experiment


def variants_for_axis(path_values: Dict[str, Iterable[object]]
                      ) -> List[ConfigVariant]:
    """Cross one or more config axes into labelled variants.

    ``variants_for_axis({"minion_d.size_bytes": [2048, 512]})`` gives
    variants labelled ``minion_d.size_bytes=2048`` etc.; multiple axes
    produce their cross product with ``,``-joined labels.
    """
    variants = [BASE_VARIANT]
    for path, values in path_values.items():
        expanded: List[ConfigVariant] = []
        for variant in variants:
            for value in values:
                overrides = variant.as_dict()
                overrides[path] = value
                label = "%s=%s" % (path, value)
                if variant.label != "base":
                    label = "%s,%s" % (variant.label, label)
                expanded.append(ConfigVariant.make(label, overrides))
        variants = expanded
    return variants
