"""Typed component registries with spec-string construction.

A :class:`Registry` maps component *names* to zero-or-more-argument
factories and is the single seam every component family (defenses,
workloads, branch predictors, hierarchies) hangs off.  Components are
constructed lazily from *spec strings* (:mod:`repro.registry.specstr`),
so an experiment names its points as data::

    DEFENSES.create("MuonTrap(flush=True)")
    WORKLOADS.create("pointer_chase(stride=128, footprint_kb=8192)")

Every registry self-registers in the process-global :data:`REGISTRIES`
table under its ``kind``, which is what the CLI's ``list``/``describe``
commands and the plugin loader enumerate.
"""

from __future__ import annotations

import difflib
import functools
import inspect
from typing import (
    Callable,
    Dict,
    Generic,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.registry.specstr import SpecError, format_spec, parse_spec

T = TypeVar("T")

#: kind -> registry, in registration order.  See :func:`get_registry`
#: in :mod:`repro.registry` for the lazy-importing public accessor.
REGISTRIES: "Dict[str, Registry]" = {}


class UnknownComponentError(KeyError):
    """A name that no registry entry answers to.

    Subclasses :class:`KeyError` so existing ``except KeyError`` call
    sites (and tests) keep working; the message lists close matches
    (did-you-mean) and every available name.
    """

    def __init__(self, kind: str, name: str,
                 available: Sequence[str]) -> None:
        self.kind = kind
        self.name = name
        self.available = list(available)
        self.suggestions = difflib.get_close_matches(
            name, self.available, n=3, cutoff=0.5)
        message = "unknown %s %r" % (kind, name)
        if self.suggestions:
            message += "; did you mean: %s?" % ", ".join(self.suggestions)
        message += " (available: %s)" % (", ".join(self.available)
                                         or "none")
        super().__init__(message)

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


def _unwrap_partial(factory: Callable) -> Tuple[Callable, Dict]:
    """Peel ``functools.partial`` layers; returns (function, preset)."""
    preset: Dict[str, object] = {}
    while isinstance(factory, functools.partial):
        if factory.args:
            raise ValueError("registry factories must bind presets as "
                             "keywords, not positionally")
        preset = {**factory.keywords, **preset}
        factory = factory.func
    return factory, preset


#: Annotation (as written) -> the exact value types a spec-string
#: keyword may carry, and how the error names them.  Exact types: a
#: ``bool`` is not an ``int`` here, so ``flush=3`` and ``stride=True``
#: fail instead of building a behaviour-identical point under a
#: different digest.
_TYPED_PARAMS = {
    "bool": ((bool,), "True or False"),
    "Optional[bool]": ((bool, type(None)), "True, False or None"),
    "int": ((int,), "an integer"),
    "Optional[int]": ((int, type(None)), "an integer or None"),
}


def _annotation_text(annotation: object) -> str:
    """``annotation`` as source text, whether or not the defining module
    postpones annotations (``from __future__ import annotations``)."""
    if isinstance(annotation, type):
        return annotation.__name__
    text = annotation if isinstance(annotation, str) else repr(annotation)
    return text.replace("typing.", "").replace(" ", "")


#: What a factory's signature says about spec-string keywords: the
#: names it accepts, whether it takes ``**kwargs``, and the
#: ``_TYPED_PARAMS`` row (or None) of each accepted name.
_Contract = Tuple[List[str], bool, Dict[str, Optional[Tuple]]]
#: factory -> its contract (None: no signature), read once per factory:
#: every machine built asks for its predictor through the registry.
_CONTRACTS: Dict[Callable, Optional[_Contract]] = {}


def _read_contract(factory: Callable) -> Optional[_Contract]:
    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):  # builtins without signatures
        return None
    params = signature.parameters
    accepted = [name for name, p in params.items()
                if p.kind in (inspect.Parameter.POSITIONAL_OR_KEYWORD,
                              inspect.Parameter.KEYWORD_ONLY)]
    var_keyword = any(p.kind is inspect.Parameter.VAR_KEYWORD
                      for p in params.values())
    typed = {name: _TYPED_PARAMS.get(
        _annotation_text(params[name].annotation)) for name in accepted}
    return accepted, var_keyword, typed


def _contract(factory: Callable) -> Optional[_Contract]:
    try:
        return _CONTRACTS[factory]
    except KeyError:
        contract = _CONTRACTS[factory] = _read_contract(factory)
        return contract
    except TypeError:  # an unhashable callable: read it every time
        return _read_contract(factory)


def check_kwargs(factory: Callable, kwargs: Dict[str, object],
                 what: str) -> None:
    """Reject keyword arguments ``factory`` cannot accept.

    Raises :class:`SpecError` naming the offending keys and the
    accepted parameters, so a typo'd spec string fails loudly before
    any simulation time is spent, and naming a value whose type does
    not match a ``bool``, ``int`` or ``Optional[...]`` annotation.
    Factories taking ``**kwargs`` accept every keyword.
    """
    if not kwargs:
        return
    contract = _contract(factory)
    if contract is None:
        return
    accepted, var_keyword, typed_params = contract
    if not var_keyword:
        unknown = sorted(set(kwargs) - set(accepted))
        if unknown:
            raise SpecError(
                "%s does not accept keyword%s %s (accepted: %s)"
                % (what, "s" if len(unknown) > 1 else "",
                   ", ".join(map(repr, unknown)),
                   ", ".join(accepted) or "none"))
    for name in accepted:
        if name not in kwargs:
            continue
        typed = typed_params[name]
        if typed is not None and type(kwargs[name]) not in typed[0]:
            raise SpecError("%s keyword %r must be %s (got %r)"
                            % (what, name, typed[1], kwargs[name]))


class Entry(Generic[T]):
    """One registered component: a named, tagged, documented factory."""

    def __init__(self, registry: "Registry[T]", name: str,
                 factory: Callable[..., T], tags: Tuple[str, ...] = (),
                 summary: Optional[str] = None,
                 metadata: Optional[Dict[str, object]] = None) -> None:
        self.registry = registry
        self.name = name
        self.factory = factory
        self.tags = tuple(tags)
        func, preset = _unwrap_partial(factory)
        self.preset = preset
        if summary is None:
            doc = inspect.getdoc(func) or ""
            summary = doc.splitlines()[0].strip() if doc else ""
        self.summary = summary
        self.metadata = dict(metadata or {})

    def create(self, kwargs: Optional[Dict[str, object]] = None) -> T:
        kwargs = dict(kwargs or {})
        check_kwargs(self.factory, kwargs,
                     "%s %r" % (self.registry.kind, self.name))
        return self.factory(**kwargs)

    def params(self) -> List[Dict[str, object]]:
        """Constructor parameters as JSON-able rows (spec-string
        keywords a user may pass)."""
        try:
            signature = inspect.signature(self.factory)
        except (TypeError, ValueError):
            return []
        rows: List[Dict[str, object]] = []
        for name, param in signature.parameters.items():
            if param.kind in (inspect.Parameter.VAR_POSITIONAL,):
                continue
            if param.kind is inspect.Parameter.VAR_KEYWORD:
                rows.append({"name": "**" + name, "default": None,
                             "required": False})
                continue
            has_default = param.default is not inspect.Parameter.empty
            rows.append({
                "name": name,
                "default": repr(param.default) if has_default else None,
                "required": not has_default,
            })
        return rows

    def describe(self) -> Dict[str, object]:
        """JSON-able introspection of this entry."""
        func, _preset = _unwrap_partial(self.factory)
        info: Dict[str, object] = {
            "kind": self.registry.kind,
            "name": self.name,
            "summary": self.summary,
            "tags": list(self.tags),
            "factory": "%s.%s" % (getattr(func, "__module__", "?"),
                                  getattr(func, "__qualname__",
                                          repr(func))),
            "params": self.params(),
        }
        if self.preset:
            info["preset"] = {key: repr(value)
                              for key, value in sorted(
                                  self.preset.items())}
        if self.metadata:
            info["metadata"] = dict(self.metadata)
        return info


#: ``finalize(obj, entry_name, normalized_spec, kwargs)`` -> obj, run on
#: every construction; lets a family stamp display names / spec strings.
FinalizeFn = Callable[[T, str, str, Dict[str, object]], T]


class Registry(Generic[T]):
    """A named component family: name -> factory, spec-string aware."""

    def __init__(self, kind: str,
                 finalize: Optional[FinalizeFn] = None) -> None:
        self.kind = kind
        self.finalize = finalize
        self._entries: Dict[str, Entry[T]] = {}
        REGISTRIES[kind] = self

    # -- registration -----------------------------------------------------

    def add(self, name: str, factory: Callable[..., T],
            tags: Sequence[str] = (), summary: Optional[str] = None,
            metadata: Optional[Dict[str, object]] = None,
            override: bool = False) -> Entry[T]:
        """Register ``factory`` under ``name``.

        Duplicate names are an error unless ``override=True`` — a
        plugin that silently shadowed a builtin would corrupt result
        labels and cache digests.
        """
        if name in self._entries and not override:
            raise ValueError(
                "%s %r is already registered; pass override=True to "
                "replace it" % (self.kind, name))
        entry = Entry(self, name, factory, tuple(tags), summary,
                      metadata)
        self._entries[name] = entry
        return entry

    def register(self, name: Optional[str] = None,
                 tags: Sequence[str] = (),
                 summary: Optional[str] = None,
                 metadata: Optional[Dict[str, object]] = None,
                 override: bool = False) -> Callable:
        """Decorator form of :meth:`add` (name defaults to
        ``factory.__name__``)."""
        def decorate(factory: Callable[..., T]) -> Callable[..., T]:
            self.add(name or factory.__name__, factory, tags=tags,
                     summary=summary, metadata=metadata,
                     override=override)
            return factory
        return decorate

    def remove(self, name: str) -> None:
        """Unregister ``name`` (primarily for tests and plugin
        reloads); missing names are ignored."""
        self._entries.pop(name, None)

    # -- lookup -----------------------------------------------------------

    def names(self, tag: Optional[str] = None) -> List[str]:
        """Registered names in registration order, optionally filtered
        by tag."""
        return [name for name, entry in self._entries.items()
                if tag is None or tag in entry.tags]

    def tags(self) -> List[str]:
        """Every tag in use, sorted."""
        seen = set()
        for entry in self._entries.values():
            seen.update(entry.tags)
        return sorted(seen)

    def entry(self, name: str) -> Entry[T]:
        """Look a name up, consulting plugins on a miss."""
        found = self._entries.get(name)
        if found is None:
            from repro.registry import plugins
            plugins.load_plugins()
            found = self._entries.get(name)
        if found is None:
            raise UnknownComponentError(self.kind, name,
                                        sorted(self._entries))
        return found

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    # -- construction -----------------------------------------------------

    def create(self, spec: str, **extra: object) -> T:
        """Construct a component from a spec string.

        ``extra`` keywords are runtime arguments merged *after* the
        spec's (they do not participate in spec normalization — e.g.
        the stats sink handed to a predictor factory).
        """
        name, kwargs = parse_spec(spec)
        entry = self.entry(name)
        merged = dict(kwargs)
        merged.update(extra)
        obj = entry.create(merged)
        if self.finalize is not None:
            obj = self.finalize(obj, name, format_spec(name, kwargs),
                                kwargs)
        return obj

    def describe(self, spec: str) -> Dict[str, object]:
        """Introspect a name or spec string without constructing it."""
        name, kwargs = parse_spec(spec)
        entry = self.entry(name)
        check_kwargs(entry.factory, kwargs,
                     "%s %r" % (self.kind, name))
        info = entry.describe()
        if kwargs:
            info["spec"] = format_spec(name, kwargs)
            info["spec_kwargs"] = {key: repr(value) for key, value
                                   in sorted(kwargs.items())}
        return info


__all__ = [
    "Entry",
    "Registry",
    "REGISTRIES",
    "SpecError",
    "UnknownComponentError",
    "check_kwargs",
]
