"""What jcaslink uses of ``@dataclass(frozen=True)``, without its module, which loads ``inspect``,
``ast``, ``dis`` and ``tokenize``: ``record`` shares equality, repr, hash, pickling and the frozen
guards; a record equals only a record of its own class. Every record is frozen and every class
shares one binder, ``__init__(self, *args, **kwargs)``; no source is compiled."""

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


def _reduce(self):
    return self.__class__, _values(self)


def _frozen(self, name, *value):
    raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen {self.__class__.__qualname__}")


def _binder(qualname, names, defaults, post_init, slots):
    """A record's ``__init__``, built without source: positionals bind in declaration order, defaults
    fill the rest, the fields are written in that order, to their slots with ``object.__setattr__``
    or to the instance dict with one ``__dict__.update``, and ``post_init`` runs."""
    template, required = {n: defaults.get(n) for n in names}, {n for n in names if n not in defaults}
    setattr_ = object.__setattr__

    def __init__(self, *args, **kwargs):
        given = dict(zip(names, args), **kwargs) if args else kwargs
        if len(given) < len(args) + len(kwargs):  # too many positionals, or a field given twice
            twice = [k for k in kwargs if k in names[: len(args)]]
            raise TypeError(f"{qualname}() got multiple values for argument {twice[0]!r}" if twice else
                            f"{qualname}() takes at most {len(names)} positional arguments but {len(args)} were given")
        if tuple(given) != names:  # a field left to its default, keywords out of order, or misuse
            if not kwargs.keys() <= template.keys():
                raise TypeError(f"{qualname}() got an unexpected keyword argument {min(kwargs.keys() - names)!r}")
            if not given.keys() >= required:
                raise TypeError(f"{qualname}() missing required argument {min(required - given.keys())!r}")
            given = template | given
        if slots:
            for name, value in given.items():
                setattr_(self, name, value)
        else:
            self.__dict__.update(given)
        if post_init is not None:
            post_init(self)

    return __init__


def record(slots=False):
    """``dataclass(frozen=True)``, with ``slots=True`` as ``dataclass(frozen=True, slots=True)``:
    a record refuses assignment and hashes by its fields."""

    def build(cls):
        # cls.__annotations__, not a __dict__ key: from Python 3.14 annotations are lazy and the key is absent.
        ann = cls.__annotations__
        body, names = {**cls.__dict__, "__annotations__": ann}, tuple(ann)
        defaults = {n: body[n] for n in names if n in body}
        init = _binder(cls.__qualname__, names, defaults, body.get("__post_init__"), slots)
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        for n in ("__dict__", "__weakref__", *(names if slots else ())):
            body.pop(n, None)
        body.update(__init__=init, __qualname__=cls.__qualname__, __eq__=_eq, __repr__=_repr, __hash__=_hash)
        body.update(__match_args__=names, __replace__=replace, __reduce__=_reduce, __setattr__=_frozen,
                    __delattr__=_frozen, __record_fields__=tuple(SimpleNamespace(name=n, type=ann[n]) for n in names))
        if slots:
            body["__slots__"] = names
        return type(cls)(cls.__name__, cls.__bases__, body)

    return build
