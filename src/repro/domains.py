"""Declared knob domains: one check for every settable value.

Every knob (a field of ``RunSpec``, ``SynthesisConfig`` or
``SimulationConfig``, a topology family's parameter, a fault model's or
traffic scenario's keyword, a field of a plan, trace or fault-event
document) has one domain, declared once by its owner.  Its kind is the
type annotation the owner already carries (``int``, ``float``, ``str``,
``bool``, a mapping, a list, a class, or a ``Union``/``Optional`` of
these); its bound is data beside the annotations, an :class:`Interval` or
its choices (a tuple or a registry).  The rules hold everywhere: a bool is
never a number, a ``float`` must be finite, a ``str`` must not be empty,
each element of a ``List[X]`` must be of kind ``X`` (``List[Any]`` is not
checked), an unknown key is rejected with the valid ones named, and a
required key must be given.  A violation raises the owner's typed error as
``"<owner>: <name> must be <domain>, got <value!r>"`` (``<name>[<position>]``
for a list element), the domain being the kind when the type is wrong and
the bound when the value is out of it.  A value that passes is kept as
given.

A class (a dataclass, a topology family, a report type, a document's
field list) holds a :class:`Domains` as its ``domains`` attribute; a
subclass's extends its base's.  A class's knob with a default (a class
value, a dataclass field's default) is optional, one without is required;
:meth:`Domains.normalize` fills an omitted one in from the class, so no
reader restates a default.  A generator (a fault model, a traffic
scenario class) is decorated with :func:`knobs`, which checks the
keywords of every call.
"""

from __future__ import annotations

import collections.abc
import copy
import dataclasses
import functools
import inspect
import math
import typing
from dataclasses import dataclass
from typing import Any, Dict, Mapping, NamedTuple, Optional, Tuple, Type

from repro.errors import ReproError


@dataclass(frozen=True)
class Interval:
    """The numbers from ``low`` (excluded when ``open_low``) up to, not including, ``high``."""

    low: float
    high: float = math.inf
    open_low: bool = False

    def __contains__(self, value) -> bool:
        return (value > self.low if self.open_low else value >= self.low) and value < self.high

    def describe(self, finite: bool) -> str:
        if self.high < math.inf:
            return f"in {'(' if self.open_low else '['}{self.low:g}, {self.high:g})"
        if self.low == -math.inf:
            return "finite"
        text = f"{'above' if self.open_low else 'at least'} {self.low:g}"
        if self.low == 0:
            text = "positive" if self.open_low else "non-negative"
        return f"{text} and finite" if finite else text


POSITIVE = Interval(0, open_low=True)
NON_NEGATIVE = Interval(0)
#: The bound of a ``float`` knob that declares none.
FINITE = Interval(-math.inf, open_low=True)
#: ``at_least(n)``: the numbers from ``n`` up.
at_least = Interval


class Knob(NamedTuple):
    """One knob's kind, resolved from its annotation; ``item`` is the kind of
    a ``List[X]`` knob's elements."""

    types: Tuple[type, ...]
    kind: str
    finite: bool
    required: bool
    item: Optional["Knob"] = None


_KIND_NAMES = {
    int: "an integer", float: "a number", str: "a non-empty string", bool: "a boolean",
    type(None): "null", dict: "a mapping", collections.abc.Mapping: "a mapping",
    list: "a list", tuple: "a tuple",
}


def _leaves(annotation) -> Tuple[Any, ...]:
    if typing.get_origin(annotation) is typing.Union:
        return tuple(leaf for arg in typing.get_args(annotation) for leaf in _leaves(arg))
    return (annotation,)


def _knob(annotation, required: bool) -> Knob:
    leaves = _leaves(annotation)
    origins = [typing.get_origin(t) or t for t in leaves]
    types = sum(((int, float) if t is float else (t,) for t in origins), ())
    names = dict.fromkeys(_KIND_NAMES.get(t) or f"an instance of {t.__name__}" for t in origins)
    items = [typing.get_args(t) for t in leaves if typing.get_origin(t) is list]
    item = _knob(items[0][0], True) if items and items[0] and items[0][0] is not Any else None
    return Knob(types, " or ".join(names), float in origins, required, item)


def _outside(knob: Knob, bound, value) -> Optional[str]:
    """The domain ``value`` lies outside of, or None when it is inside."""
    if not isinstance(value, knob.types) or value == "" or (
            isinstance(value, bool) and bool not in knob.types):
        return knob.kind
    if bound is None or value is None or value in bound:
        return None
    if isinstance(bound, Interval):
        return bound.describe(knob.finite)
    return "one of " + ", ".join(map(repr, bound))


@functools.lru_cache(maxsize=None)
def _resolve(owner) -> Dict[str, Knob]:
    """The owner's knobs: a function's keyword-only parameters, a class's annotations."""
    hints = typing.get_type_hints(owner)
    if inspect.isfunction(owner):
        return {
            p.name: _knob(hints[p.name], p.default is p.empty)
            for p in inspect.signature(owner).parameters.values()
            if p.kind is p.KEYWORD_ONLY
        }
    if dataclasses.is_dataclass(owner):
        unset = (dataclasses.MISSING, dataclasses.MISSING)
        optional = {f.name for f in dataclasses.fields(owner)
                    if (f.default, f.default_factory) != unset}
    else:
        optional = {name for name in hints if hasattr(owner, name)}
    return {name: _knob(kind, name not in optional) for name, kind in hints.items()}


class Domains:
    """One owner's knob domains: the kinds of its annotations and the ``bounds`` given.

    ``bounds`` maps a knob to an :class:`Interval` or its choices (a tuple,
    a registry).
    Errors read ``"<label>: ..."`` and raise ``error``; a subclass's
    ``Domains`` may leave both out to inherit them with its base's bounds.
    """

    def __init__(self, label: Optional[str] = None, error: Optional[Type[ReproError]] = None, /,
                 **bounds):
        self.label, self.error, self.bounds, self.owner = label, error, bounds, None

    def __set_name__(self, owner, name: str) -> None:
        self.owner, base = owner, getattr(owner.__mro__[1], name, None)
        if isinstance(base, Domains):
            self.label, self.error = self.label or base.label, self.error or base.error
            self.bounds = {**base.bounds, **self.bounds}

    @functools.cached_property
    def knobs(self) -> Dict[str, Knob]:
        """Every knob of the owner by name, resolved once."""
        return _resolve(self.owner)

    @functools.cached_property
    def _rules(self):
        """Each knob with its bound (a ``float`` without one gets :data:`FINITE`)."""
        return [(name, knob, self.bounds.get(name, FINITE if knob.finite else None))
                for name, knob in self.knobs.items()]

    def check(self, values: Mapping[str, Any], *, label=None, error=None, exclude=()) -> None:
        """Check the mapping ``values`` (name to value); ``label`` and ``error``
        override the owner's, and a name in ``exclude`` counts as unknown."""
        knobs, label, error = self.knobs, label or self.label, error or self.error
        if not isinstance(values, (dict, collections.abc.Mapping)):
            raise error(f"{label} must be a mapping, got {type(values).__name__}")
        unknown = values.keys() - knobs.keys()
        if exclude:
            unknown |= values.keys() & set(exclude)
        if unknown:
            valid = ", ".join(name for name in knobs if name not in exclude) or "none"
            raise error(f"{label}: unknown parameter(s) {', '.join(sorted(unknown))}; "
                        f"valid: {valid}")
        for name, knob, bound in self._rules:
            if name not in values:
                if knob.required and name not in exclude:
                    raise error(f"{label}: missing required parameter {name!r}")
                continue
            value = values[name]
            domain = _outside(knob, bound, value)
            if domain:
                raise error(f"{label}: {name} must be {domain}, got {value!r}")
            if knob.item and isinstance(value, list):
                item_bound = FINITE if knob.item.finite else None
                for position, element in enumerate(value):
                    domain = _outside(knob.item, item_bound, element)
                    if domain:
                        raise error(f"{label}: {name}[{position}] must be {domain}, "
                                    f"got {element!r}")

    def normalize(self, values: Mapping[str, Any], *, label=None) -> Dict[str, Any]:
        """:meth:`check` ``values`` and return every knob of a class owner:
        the value given, else a copy of the class value (its default), so no
        two callers share a default."""
        self.check(values, label=label)
        return {name: values[name] if name in values else copy.deepcopy(getattr(self.owner, name))
                for name in self.knobs}


def knobs(label: str, error: Type[ReproError], **bounds):
    """Declare a generator's keyword-only knobs and check the keywords of every call.

    Decorates a function, or a class through its ``__init__`` (extending
    the bounds its base declared), and attaches the :class:`Domains` as
    ``.domains``.
    """

    def decorate(target):
        function = target.__init__ if isinstance(target, type) else target
        inherited = getattr(target, "domains", None)
        domains = Domains(label, error, **{**(inherited.bounds if inherited else {}), **bounds})
        domains.owner = function

        @functools.wraps(function)
        def checked(*args, **params):
            domains.check(params)
            return function(*args, **params)

        checked.domains = domains
        if isinstance(target, type):
            target.__init__, target.domains = checked, domains
            return target
        return checked

    return decorate
