"""Unified component registry: spec strings, plugins, introspection.

Every swappable component family registers here under a *kind*:

==============  ==========================================  ==========
kind            components                                  defined in
==============  ==========================================  ==========
``defense``     protection schemes (figs. 6-9 + ``Custom``) ``repro.defenses``
``workload``    named suites + parameterized synthetics     ``repro.workloads.spec``
``predictor``   branch-predictor implementations            ``repro.pipeline.branch_predictor``
``hierarchy``   per-core memory-hierarchy classes           ``repro.defenses``
``sink``        trace exporters (``repro trace``)           ``repro.obs.sinks``
``oracle``      differential fuzz oracles (``repro fuzz``)  ``repro.fuzz.oracles``
==============  ==========================================  ==========

Components are constructed from *spec strings* (``"MuonTrap(flush=True)"``,
``"pointer_chase(stride=128, footprint_kb=8192)"``) — see
``docs/components.md`` for the grammar, plugin protocol and a worked
example.  :func:`component_registry` is the public accessor; it imports
the defining module on demand so merely importing :mod:`repro.registry`
stays cheap.
"""

from __future__ import annotations

import importlib
from typing import Dict, List

from repro.registry.core import (
    Entry,
    REGISTRIES,
    Registry,
    SpecError,
    UnknownComponentError,
    check_kwargs,
)
from repro.registry.plugins import (
    ENV_PLUGINS,
    PLUGIN_FILE,
    PluginError,
    load_plugins,
    loaded_plugins,
)
from repro.registry.specstr import format_spec, normalize_spec, parse_spec

#: kind -> module whose import populates that registry.
_BUILTIN_MODULES = {
    "defense": "repro.defenses",
    "workload": "repro.workloads.spec",
    "predictor": "repro.pipeline.branch_predictor",
    "hierarchy": "repro.defenses",
    "sink": "repro.obs.sinks",
    "oracle": "repro.fuzz.oracles",
}

#: CLI spellings (``repro list defenses``) -> canonical kind.
KIND_ALIASES = {
    "defense": "defense", "defenses": "defense",
    "workload": "workload", "workloads": "workload",
    "predictor": "predictor", "predictors": "predictor",
    "hierarchy": "hierarchy", "hierarchies": "hierarchy",
    "sink": "sink", "sinks": "sink",
    "oracle": "oracle", "oracles": "oracle",
}


def component_registry(kind: str) -> Registry:
    """The registry for ``kind`` (accepts plural CLI spellings)."""
    canonical = KIND_ALIASES.get(kind, kind)
    module = _BUILTIN_MODULES.get(canonical)
    if module is not None:
        importlib.import_module(module)
    if canonical not in REGISTRIES:
        raise UnknownComponentError("registry kind", kind,
                                    sorted(_BUILTIN_MODULES))
    return REGISTRIES[canonical]


def all_registries() -> Dict[str, Registry]:
    """Every builtin registry, imported and keyed by kind."""
    return {kind: component_registry(kind)
            for kind in sorted(_BUILTIN_MODULES)}


def component_kinds() -> List[str]:
    """The canonical registry kinds."""
    return sorted(_BUILTIN_MODULES)


__all__ = [
    "ENV_PLUGINS",
    "Entry",
    "KIND_ALIASES",
    "PLUGIN_FILE",
    "PluginError",
    "REGISTRIES",
    "Registry",
    "SpecError",
    "UnknownComponentError",
    "all_registries",
    "check_kwargs",
    "component_kinds",
    "component_registry",
    "format_spec",
    "load_plugins",
    "loaded_plugins",
    "normalize_spec",
    "parse_spec",
]
