"""Statistics, power modelling, figures and reports.

``repro.analysis.figures`` is imported lazily by callers (not
re-exported here) because it depends on the defense/pipeline layers,
which in turn depend on the base stats in this package.  Pipeline
traces live in :mod:`repro.obs`.
"""

from repro.analysis.stats import Stats
from repro.analysis.power import SRAMModel, PowerReport, power_report
from repro.analysis.report import (
    geomean,
    format_table,
    normalised_series,
    render_bars,
)

__all__ = [
    "Stats",
    "SRAMModel",
    "PowerReport",
    "power_report",
    "geomean",
    "format_table",
    "normalised_series",
    "render_bars",
]
