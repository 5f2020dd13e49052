"""Frozen records without generated source.

`frozen` gives a class what `dataclasses.dataclass(frozen=True)` gives it:
the same `fields()`, `replace()`, `__match_args__`, signature, automatic
docstring, repr, equality, hash and `FrozenInstanceError`. dataclass compiles
each class's methods from source text, about a millisecond per class at
import; here they are closures over the field names. Only what the package's
records use is implemented: positional or keyword fields, with or without a
default, and `__post_init__`. Any other field option, default_factory among
them, raises TypeError when the class is made: records are values, and an
object that keeps mutable state, as sim's compiled programs keep their state
memo, is a plain class. `__dataclass_params__` keeps the options of the
`dataclass` call that records the fields (frozen=False among them), so a
record cannot be the base of a `dataclass(frozen=True)`; no record is
subclassed. Standard library only.
"""
from __future__ import annotations

import dataclasses
import inspect
import reprlib
from dataclasses import MISSING, FrozenInstanceError
from operator import attrgetter


def _values(names: tuple[str, ...]):
    """self -> the tuple of its field values, which dataclass hashes and compares."""
    if len(names) == 1:
        get = attrgetter(*names)
        return lambda self: (get(self),)
    return attrgetter(*names) if names else lambda self: ()


def frozen(cls):
    """`@frozen`: `@dataclass(frozen=True)` (module doc)."""
    own = cls.__dict__
    for name in ("__setattr__", "__delattr__"):
        if name in own:
            raise TypeError(f"Cannot overwrite attribute {name} in class {cls.__name__}")
    doc = own.get("__doc__")
    # a placeholder, or dataclass would take the class's signature before it has one
    cls.__doc__ = doc or cls.__name__
    # a class body that defines __eq__ alone gets __hash__ = None, which is replaced
    own_hash = own.get("__hash__") is not None
    # compiles nothing: fields, replace() and __match_args__ work from here
    cls = dataclasses.dataclass(cls, init=False, repr=False, eq=False)
    fields = dataclasses.fields(cls)
    unsupported = [f.name for f in cls.__dataclass_fields__.values()
                   if f._field_type is dataclasses._FIELD_INITVAR]
    unsupported += [f.name for f in fields
                    if not (f.init and f.repr and f.compare) or f.kw_only or f.hash is not None
                    or f.default_factory is not MISSING]
    if unsupported:
        raise TypeError(f"frozen does not implement the options of {cls.__name__}.{unsupported[0]}")
    names = tuple(f.name for f in fields)
    defaults = {f.name: f.default for f in fields if f.default is not MISSING}
    empty, params = inspect.Parameter.empty, []
    for f in fields:
        default = defaults.get(f.name, empty)
        if default is empty and params and params[-1].default is not empty:
            raise TypeError(f"non-default argument {f.name!r} follows default argument")
        params.append(inspect.Parameter(f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
                                        default=default, annotation=f.type))
    signature = inspect.Signature(params, return_annotation=None)
    qualname, n, post_init = cls.__qualname__, len(names), hasattr(cls, "__post_init__")
    # the defaults are the trailing fields': a positional call that stops among them takes the rest
    trailing, required = tuple(defaults.values()), n - len(defaults)
    values, setattr_ = _values(names), object.__setattr__

    def bind(args: tuple, kwargs: dict) -> list:
        if len(args) > n:
            raise TypeError(f"{qualname}() takes {n} positional arguments, got {len(args)}")
        bound = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                bound.append(kwargs.pop(name))
            elif name in defaults:
                bound.append(defaults[name])
            else:
                raise TypeError(f"{qualname}() missing required argument {name!r}")
        for name in kwargs:
            what = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{qualname}() got {what} argument {name!r}")
        return bound

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            if kwargs or not required <= len(args) < n:
                args = bind(args, kwargs)
            else:
                args += trailing[len(args) - required:]
        for name, value in zip(names, args):
            setattr_(self, name, value)
        if post_init:
            self.__post_init__()

    @reprlib.recursive_repr()
    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    methods = {"__init__": __init__, "__repr__": __repr__, "__eq__": __eq__,
               "__setattr__": __setattr__, "__delattr__": __delattr__}
    for name, fn in methods.items():
        fn.__qualname__ = f"{qualname}.{name}"
        if name not in own:
            setattr(cls, name, fn)
    if not own_hash:
        __hash__.__qualname__ = f"{qualname}.__hash__"
        cls.__hash__ = __hash__
    cls.__signature__ = signature
    cls.__doc__ = doc or cls.__name__ + str(signature).replace(" -> None", "")
    return cls
