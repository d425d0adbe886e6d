"""The experiment engine: declarative sweeps, parallel execution and an
on-disk result cache.

Every figure, CLI command and bench funnels through this package::

    from repro.exp import Sweep, run_sweep
    report = run_sweep(
        Sweep(name="size", workloads=["mcf"], defenses=["GhostMinion"],
              scale=0.1),
        jobs=4, cache=True)
    for point in report.results:
        print(point.key, point.cycles)

See ``docs/experiments.md`` for the spec format, cache layout and the
``REPRO_CACHE_DIR`` / ``REPRO_JOBS`` / ``REPRO_SCALE`` environment
variables.
"""

from repro.exp.cache import ResultCache, default_cache_dir, resolve_cache
from repro.exp.engine import (
    SweepReport,
    format_engine_summary,
    resolve_jobs,
    run_points,
    run_sweep,
)
from repro.exp.resultset import PointResult, ResultSet
from repro.exp.spec import (
    BASE_VARIANT,
    CACHE_SCHEMA_VERSION,
    ConfigVariant,
    Experiment,
    Sweep,
    SweepPoint,
    apply_overrides,
    code_fingerprint,
    variants_for_axis,
)

__all__ = [
    "BASE_VARIANT",
    "CACHE_SCHEMA_VERSION",
    "ConfigVariant",
    "Experiment",
    "PointResult",
    "ResultCache",
    "ResultSet",
    "Sweep",
    "SweepPoint",
    "SweepReport",
    "apply_overrides",
    "code_fingerprint",
    "default_cache_dir",
    "format_engine_summary",
    "resolve_cache",
    "resolve_jobs",
    "run_points",
    "run_sweep",
    "variants_for_axis",
]
