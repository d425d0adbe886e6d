"""Data-driven defense composition: the ``Custom`` registry entry.

The core is policy-driven (taint, validation, FU order, predictor
training) and the hierarchy is a registered class, so a *new* scheme is
often just a new combination of existing parts.  ``Custom`` exposes
exactly that through a spec string — no code edit required::

    repro run hmmer --defense "Custom(hierarchy='muontrap', \\
        flush_on_squash=True, strict_fu_order=True)"

``hierarchy`` is itself a spec string over the ``hierarchy`` registry;
its keyword arguments (here ``flush_on_squash``) are any keywords not
consumed by the policy knobs below, validated against the hierarchy
class's constructor up front.
"""

from __future__ import annotations

from repro.defenses.base import POLICY_MODES, Defense
from repro.registry import SpecError, check_kwargs, parse_spec

#: keywords consumed by the Defense itself; everything else goes to the
#: hierarchy constructor.
_POLICY_KNOBS = ("taint", "validation", "strict_fu_order",
                 "train_predictor_at_commit", "early_commit",
                 "full_strictness", "name")


def custom(hierarchy: str = "base", taint: str = "none",
           validation: str = "none", strict_fu_order: bool = False,
           train_predictor_at_commit: bool = False,
           early_commit: bool = False, full_strictness: bool = False,
           name: str = "Custom", **hierarchy_kwargs) -> Defense:
    """Compose a defense from a registered hierarchy + policy knobs."""
    from repro.defenses import HIERARCHIES
    for knob, value in (("taint", taint), ("validation", validation)):
        if value not in POLICY_MODES:
            raise SpecError("Custom keyword %r must be one of %s (got %r)"
                            % (knob, ", ".join(map(repr, POLICY_MODES)),
                               value))
    hierarchy_name, spec_kwargs = parse_spec(hierarchy)
    cls = HIERARCHIES.entry(hierarchy_name).factory
    merged = dict(spec_kwargs)
    merged.update(hierarchy_kwargs)
    check_kwargs(cls, merged, "hierarchy %r" % hierarchy_name)
    return Defense(
        name=name,
        hierarchy_cls=cls,
        hierarchy_kwargs=merged,
        taint_mode=taint,
        validation_mode=validation,
        strict_fu_order=strict_fu_order,
        train_predictor_at_commit=train_predictor_at_commit,
        early_commit=early_commit,
        epoch_timestamps=full_strictness,
    )
