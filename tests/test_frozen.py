"""`_frozen.frozen` against `dataclasses.dataclass(frozen=True)`: synthetic
records that use every feature the package's records use, built by both,
must agree on fields, signature, docstring, repr, equality, hash, frozenness,
replace() and pickling; options frozen does not implement fail at class
creation. Then its two deliberate differences: a record hashes its fields
once, and the package's records pickle to a rebuild that hashes alike under
another str hash seed."""
import dataclasses
import inspect
import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError, InitVar, KW_ONLY, dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import remvqe
from remvqe import (AnsatzSpec, NoiseModel, ansatz_circuit, builtin, device_confusion,
                    h2_compact_spec, uccsd_spec)
from remvqe._frozen import frozen
from remvqe.chemdata import BUILTIN_NAMES


def _records(decorate, home: str) -> SimpleNamespace:
    """The synthetic records, decorated; `home` is the module attribute they
    live under, so that pickle finds them."""

    class Plain:
        """Two required fields, one annotated by a string."""

        name: str
        size: "int"

    class Defaults:  # no docstring: the decorator writes one
        kind: str
        scale: float = 1.0
        tags: tuple[str, ...] = ()
        note: str | None = None

    class Single:
        label: str

    class Checked:
        """A __post_init__ that validates, normalises a field and keeps a private attribute."""

        p2: float = 0.0
        p1: float | None = None

        def __post_init__(self) -> None:
            p1 = 0.1 * self.p2 if self.p1 is None else self.p1
            if not 0.0 <= self.p2 <= 1.0:
                raise ValueError(f"p2 must lie in [0, 1], got {self.p2}")
            object.__setattr__(self, "p1", float(p1))
            object.__setattr__(self, "_sum", self.p1 + self.p2)

    class Keyed:
        """Its own __eq__, __hash__ and __reduce__, over a key kept at construction."""

        n: int
        terms: tuple = ()
        offset: float = 0.0

        def __post_init__(self) -> None:
            object.__setattr__(self, "_key", (self.n, self.terms, float(self.offset)))
            object.__setattr__(self, "_hash", hash(("keyed", self._key)))

        def __hash__(self) -> int:
            return self._hash

        def __eq__(self, other) -> bool:
            if other.__class__ is not self.__class__:
                return NotImplemented
            return self is other or self._key == other._key

        def __reduce__(self):
            return (type(self), (self.n, self.terms, self.offset))

    class Hashed:
        """Its own __hash__ and __reduce__ only: equality stays the decorator's."""

        n: int
        gates: tuple = ()

        def __post_init__(self) -> None:
            object.__setattr__(self, "_hash", hash(("hashed", self.n, self.gates)))

        def __hash__(self) -> int:
            return self._hash

        def __reduce__(self):
            return (type(self), (self.n, self.gates))

    out = SimpleNamespace()
    for cls in (Plain, Defaults, Single, Checked, Keyed, Hashed):
        cls.__qualname__ = f"{home}.{cls.__name__}"
        setattr(out, cls.__name__, decorate(cls))
    return out


BY_DATACLASS = _records(dataclass(frozen=True), "BY_DATACLASS")
BY_FROZEN = _records(frozen, "BY_FROZEN")

# per record: argument sets (args, kwargs) to build from, one change for replace()
CASES = {
    "Plain": ([(("a", 1), {}), (("a",), {"size": 1}), ((), {"size": 2, "name": "b"})], {"size": 3}),
    "Defaults": (
        [(("RX",), {}), (("RX", 1.0, ("x",), "n"), {}), (("RY",), {"note": "m", "scale": 0.5})],
        {"tags": ("y", "z")},
    ),
    "Single": ([(("ZZ",), {}), ((), {"label": "XY"})], {"label": "YY"}),
    "Checked": ([((), {}), ((0.01,), {}), ((), {"p2": 0.01, "p1": 0.5})], {"p2": 0.2}),
    "Keyed": ([((2,), {}), ((2, (("ZZ", 0.5),), 1), {}), ((2,), {"offset": 1.0})], {"offset": 2.0}),
    "Hashed": ([((1,), {}), ((1, ("h",)), {}), ((), {"gates": ("h",), "n": 1})], {"n": 3}),
}
BAD_ARGUMENTS = {  # each raises TypeError from both
    "Plain": [(("a", 1, 2), {}), (("a",), {}), (("a", 1), {"name": "b"}), (("a", 1), {"colour": 1})],
    "Defaults": [((), {}), (("RX", 1.0, (), None, 0), {}), (("RX",), {"sclae": 2.0})],
    "Single": [((), {}), (("a", "b"), {})],
    "Checked": [((0.1, 0.2, 0.3), {}), ((), {"p3": 0.1})],
    "Keyed": [((), {}), ((1,), {"n": 1})],
    "Hashed": [((), {"gates": ()})],
}


def _shown(record) -> str:
    """repr(record) as if BY_FROZEN built it."""
    return repr(record).replace("BY_DATACLASS.", "BY_FROZEN.")


def _pair(name: str):
    return getattr(BY_DATACLASS, name), getattr(BY_FROZEN, name)


def _built(cls) -> list:
    return [cls(*args, **kwargs) for args, kwargs in CASES[cls.__name__][0]]


def _outcome(call):
    """(value, None) or (None, exception type) of call()."""
    try:
        return call(), None
    except Exception as exc:  # the type is what must agree
        return None, type(exc)


def _same_fields(cls) -> list:
    return [(f.name, f.type, f.default, f.default_factory, f.init, f.repr, f.compare, f.hash)
            for f in dataclasses.fields(cls)]


def test_class_surface_matches_dataclass():
    for name in CASES:
        by_dc, by_frozen = _pair(name)
        assert _same_fields(by_dc) == _same_fields(by_frozen), name
        assert by_dc.__match_args__ == by_frozen.__match_args__, name
        assert str(inspect.signature(by_dc)) == str(inspect.signature(by_frozen)), name
        assert by_dc.__doc__ == by_frozen.__doc__, name
        assert (by_dc.__hash__ is None) == (by_frozen.__hash__ is None), name
        assert (by_dc.__hash__ is object.__hash__) == (by_frozen.__hash__ is object.__hash__), name
    assert BY_FROZEN.Defaults.__doc__ == (
        "Defaults(kind: str, scale: float = 1.0, tags: tuple[str, ...] = (), "
        "note: str | None = None)"
    )


def test_instances_match_dataclass():
    for name in CASES:
        by_dc, by_frozen = _pair(name)
        ones, others = _built(by_dc), _built(by_frozen)
        assert [_shown(r) for r in ones] == [_shown(r) for r in others], name
        # equality within each family, pair by pair, and against a foreign type
        equal = [a == b for a in ones for b in ones]
        assert equal == [a == b for a in others for b in others], name
        assert [a == (a,) for a in ones] == [b == (b,) for b in others] == [False] * len(ones)
        assert [hash(a) for a in ones] == [hash(b) for b in others], name
        # a rebuilt record is equal
        assert [a == by_dc(*args, **kw) for a, (args, kw) in zip(ones, CASES[name][0])] == [
            b == by_frozen(*args, **kw) for b, (args, kw) in zip(others, CASES[name][0])
        ], name


def test_post_init_runs_as_in_dataclass():
    for name, args in (("Checked", (0.02,)), ("Keyed", (2, (), 1))):
        one, other = (cls(*args) for cls in _pair(name))
        assert vars(one) == vars(other), name
    assert _outcome(lambda: BY_DATACLASS.Checked(2.0)) == _outcome(lambda: BY_FROZEN.Checked(2.0))
    assert _outcome(lambda: BY_FROZEN.Checked(2.0))[1] is ValueError


def test_records_are_frozen_as_in_dataclass():
    for name in CASES:
        for record in (cls(*CASES[name][0][0][0], **CASES[name][0][0][1]) for cls in _pair(name)):
            field_name = dataclasses.fields(record)[0].name
            for attempt in (
                lambda: setattr(record, field_name, 0),
                lambda: setattr(record, "extra", 0),
                lambda: delattr(record, field_name),
                lambda: delattr(record, "extra"),
            ):
                with pytest.raises(FrozenInstanceError):
                    attempt()


def test_replace_and_pickle_match_dataclass():
    for name in CASES:
        change = CASES[name][1]
        by_dc, by_frozen = _pair(name)
        for one, other in zip(_built(by_dc), _built(by_frozen)):
            assert _shown(replace(one, **change)) == _shown(replace(other, **change)), name
            back, back_other = pickle.loads(pickle.dumps(one)), pickle.loads(pickle.dumps(other))
            assert type(back_other) is by_frozen
            assert _shown(back) == _shown(back_other) == _shown(other), name
            assert (back == one) == (back_other == other), name
            bogus = [_outcome(lambda: replace(record, bogus=1)) for record in (one, other)]
            assert bogus[0] == bogus[1] == (None, TypeError), name


def test_bad_arguments_are_type_errors_as_in_dataclass():
    for name, calls in BAD_ARGUMENTS.items():
        for args, kwargs in calls:
            outcomes = [_outcome(lambda: cls(*args, **kwargs)) for cls in _pair(name)]
            assert outcomes == [(None, TypeError)] * 2, (name, args, kwargs)


def test_positional_prefixes_fill_the_omitted_defaults():
    # a positional call that stops among the defaulted fields takes the
    # rest of the defaults, the default objects themselves, as dataclass does
    by_dc, by_frozen = _pair("Defaults")
    for args in (("RX",), ("RX", 2.0), ("RX", 2.0, ("a",)), ("RX", 2.0, ("a",), "n")):
        one, other = by_dc(*args), by_frozen(*args)
        assert _shown(one) == _shown(other), args
        assert [getattr(one, f) is getattr(other, f) for f in ("tags", "note")] == [True, True]
    assert _shown(BY_FROZEN.Checked(0.02)) == _shown(BY_DATACLASS.Checked(0.02))
    # bad calls keep their messages: the positional path takes none of them
    messages = {
        (("a", 1, 2), ()): "BY_FROZEN.Plain() takes 2 positional arguments, got 3",
        (("a",), ()): "BY_FROZEN.Plain() missing required argument 'size'",
        (("a", 1), ("name",)): "BY_FROZEN.Plain() got multiple values for argument 'name'",
        (("a", 1), ("colour",)): "BY_FROZEN.Plain() got an unexpected keyword argument 'colour'",
    }
    for (args, keys), message in messages.items():
        with pytest.raises(TypeError) as caught:
            BY_FROZEN.Plain(*args, **dict.fromkeys(keys, 0))
        assert str(caught.value) == message
    with pytest.raises(TypeError, match=r"^BY_FROZEN.Defaults\(\) missing required argument 'kind'$"):
        BY_FROZEN.Defaults()


def test_unsupported_options_fail_at_class_creation():
    bodies = {
        "init=False": {"a": int, "b": int, "defaults": {"b": field(default=0, init=False)}},
        "kw_only": {"a": int, "b": int, "defaults": {"b": field(kw_only=True)}},
        "KW_ONLY": {"a": int, "_": KW_ONLY, "b": int, "defaults": {}},
        "InitVar": {"a": int, "b": InitVar[int], "defaults": {}},
        "repr=False": {"a": int, "defaults": {"a": field(repr=False)}},
        "compare=False": {"a": int, "defaults": {"a": field(compare=False)}},
        "hash=True": {"a": int, "defaults": {"a": field(hash=True)}},
        # a record is a value: no field gets a fresh mutable default per record
        "default_factory": {"a": int, "b": list, "defaults": {"b": field(default_factory=list)}},
        "default order": {"a": int, "b": int, "defaults": {"a": 0}},
    }
    for option, body in bodies.items():
        defaults = body.pop("defaults")
        namespace = {"__annotations__": body, **defaults}
        if option == "InitVar":
            namespace["__post_init__"] = lambda self, b: None
        # a fresh class each time: dataclass changes the class it is given
        with pytest.raises(TypeError):
            frozen(type("Record", (), dict(namespace)))
    for method in ("__setattr__", "__delattr__"):  # dataclass(frozen=True) refuses them too
        with pytest.raises(TypeError):
            frozen(type("Record", (), {"__annotations__": {"a": int}, method: lambda *args: None}))


def test_records_hash_their_fields_once():
    class Counted:
        calls = 0

        def __hash__(self) -> int:
            Counted.calls += 1
            return 7

    @frozen
    class Pair:
        item: Counted
        n: int = 0

    item = Counted()
    record = Pair(item, 1)
    changed = replace(record, n=2)  # a new record, which hashes its own fields
    hashes = [hash(record), hash(record), hash(changed), hash(changed)]
    assert Counted.calls == 2
    assert hashes == [hash((item, 1))] * 2 + [hash((item, 2))] * 2
    assert hashes[0] != hashes[2]


def _ansatz_specs() -> list:
    specs = [h2_compact_spec(), AnsatzSpec("hardware-efficient", 3, "010")]
    for name in BUILTIN_NAMES:
        ds = builtin(name)
        specs += [AnsatzSpec(family, ds.n_qubits, ds.hf_bitstring)
                  for family in ("uccsd", "hardware-efficient")]
    return specs


def test_hamiltonians_and_circuits_hash_as_their_field_tuples():
    # the values their own hooks gave before frozen kept hashes, so no dict
    # or set of them changes its order
    for name in BUILTIN_NAMES:
        for geometry in builtin(name).geometries:
            h = geometry.hamiltonian
            assert hash(h) == hash((h.n_qubits, h.terms, h.offset)), (name, geometry.r)
    for spec in _ansatz_specs():
        c = ansatz_circuit(spec)
        assert hash(c) == hash((c.n_qubits, c.gates)), spec


# Loads the pickled (Hamiltonian, circuit, noise model, confusion matrix) from
# stdin under another str hash seed: each must equal, and hash like, a fresh
# construction, and hit the caches the fresh one primed.
_LOAD_ELSEWHERE = """
import pickle, sys
from remvqe import NoiseModel, ansatz_circuit, builtin, device_confusion, sim, uccsd_spec, vqe
assert hash("remvqe") != int(sys.argv[1]), "the child hashes str as the parent does"
loaded = pickle.loads(sys.stdin.buffer.read())
fresh = (builtin("lih").geometry(1.5949).hamiltonian, ansatz_circuit(uccsd_spec(4)),
         NoiseModel(p2=4e-3), device_confusion())
for got, new in zip(loaded, fresh):
    assert got is not new and got == new and hash(got) == hash(new), type(new).__name__
h, circuit, noise, confusion = loaded
for cache, fresh_args, args in ((vqe._plan, fresh[:1], (h,)),
                                (sim._program, fresh[1:3], (circuit, noise))):
    cache(*fresh_args)
    hits = cache.cache_info().hits
    cache(*args)
    assert cache.cache_info().hits == hits + 1, cache.__name__
assert {fresh[3]: "hit"}.get(confusion) == "hit"
"""


def test_pickled_records_rebuild_under_another_hash_seed():
    records = (builtin("lih").geometry(1.5949).hamiltonian, ansatz_circuit(uccsd_spec(4)),
               NoiseModel(p2=4e-3), device_confusion())
    for record in records:
        hash(record)  # a kept hash must not travel with the pickle
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = str(Path(remvqe.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", _LOAD_ELSEWHERE, str(hash("remvqe"))],
                          input=pickle.dumps(records), env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
