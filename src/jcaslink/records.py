"""What jcaslink uses of ``@dataclass``, without its module, which loads ``inspect``, ``ast``,
``dis`` and ``tokenize``: ``record`` compiles one ``__init__`` per class and shares equality,
repr, hash and the frozen guards; a record equals only a record of its own class."""

from types import SimpleNamespace


def fields(obj) -> tuple:
    """The fields of a record class or instance, each with ``.name`` and ``.type``, in order."""
    return obj.__record_fields__


def asdict(obj) -> dict:
    """{field name: value} in declaration order; nested records stay records."""
    return {f.name: getattr(obj, f.name) for f in obj.__record_fields__}


def replace(obj, **changes):
    """A new record of the same class with ``changes``; ``__init__`` validates again."""
    return obj.__class__(**{**asdict(obj), **changes})


def _values(obj) -> tuple:
    return tuple(getattr(obj, f.name) for f in obj.__record_fields__)


def _eq(self, other):
    return _values(self) == _values(other) if other.__class__ is self.__class__ else NotImplemented


def _hash(self):
    return hash(_values(self))


def _repr(self):
    return f"{self.__class__.__qualname__}({', '.join(f'{k}={v!r}' for k, v in asdict(self).items())})"


def _frozen(self, name, *value):
    raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen {self.__class__.__qualname__}")


def record(frozen=False, slots=False):
    """``dataclass(frozen=True)`` or ``dataclass(slots=True)``, exactly one of the two:
    a frozen record hashes by its fields, a slotted one is mutable and unhashable."""
    if frozen == slots:
        raise TypeError("record() takes exactly one of frozen=True and slots=True")

    def build(cls):
        # cls.__annotations__, not a __dict__ key: from Python 3.14 annotations are lazy and the key is absent.
        ann = cls.__annotations__
        body, names = {**cls.__dict__, "__annotations__": ann}, tuple(ann)
        scope = {"_set": object.__setattr__, **{f"_d_{n}": body[n] for n in names if n in body}}
        params = ", ".join(f"{n}=_d_{n}" if n in body else n for n in names)
        lines = [f"_set(self, {n!r}, {n})" if frozen else f"self.{n} = {n}" for n in names]
        lines += ["self.__post_init__()"] if "__post_init__" in body else []
        exec(f"def __init__(self, {params}):\n " + "\n ".join(lines), scope)
        scope["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
        for n in ("__dict__", "__weakref__", *(() if frozen else names)):
            body.pop(n, None)
        body.update(__init__=scope["__init__"], __qualname__=cls.__qualname__, __eq__=_eq, __repr__=_repr)
        body.update(__match_args__=names, __replace__=replace)
        body["__record_fields__"] = tuple(SimpleNamespace(name=n, type=ann[n]) for n in names)
        if frozen:
            body.update(__hash__=_hash, __setattr__=_frozen, __delattr__=_frozen)
        else:
            body.update(__hash__=None, __slots__=names)
        return type(cls)(cls.__name__, cls.__bases__, body)

    return build
