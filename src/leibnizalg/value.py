"""Immutable value records, and the argument binding they share with
``core.memo``.

``Value`` is the base of the package's records, in place of frozen
dataclasses, whose module imports ``inspect`` and compiles code for each
class.  A subclass names its fields in ``_fields``; a class attribute
named like one of the last fields is its default.  Records take their
fields by position or keyword, then run ``__post_init__``; compare equal
only to records of their own class with equal fields; hash as the tuple
of their fields; print as a dataclass does, ``Name(field=value, ...)``;
and refuse assignment and deletion.  Fields are set by
``object.__setattr__``: on CPython 3.11, writing ``self.__dict__``
directly makes every later attribute read of the object slower.
``Subspace`` and the field classes, whose construction, ``==`` and hash
lie on the kernel's hot paths, spell these out over their own attributes.
"""


def bind(name, params, args, kwargs, defaults):
    """``args`` and ``kwargs`` as one tuple over the parameter names
    ``params``, as a call binds them; ``defaults`` are the values of the
    last parameters, as in a function's ``__defaults__``.  A bad call
    raises ``TypeError`` naming ``name``."""
    given = dict(zip(params, args), **kwargs)
    if len(given) != len(args) + len(kwargs) or not given.keys() <= set(params):
        raise TypeError(f"{name}() got too many, repeated or unknown arguments")
    values = dict(zip(params[len(params) - len(defaults):], defaults), **given)
    if len(values) != len(params):
        raise TypeError(f"{name}() is missing arguments")
    return tuple([values[p] for p in params])


class Value:
    _fields = _defaults = ()

    def __init_subclass__(cls):
        names = cls._fields
        first = len(names)
        while first and hasattr(cls, names[first - 1]):
            first -= 1
        cls._defaults = tuple(getattr(cls, name) for name in names[first:])

    def __init__(self, *args, **kwargs):
        names, defaults = self._fields, self._defaults
        missing = len(names) - len(args)
        if kwargs or not 0 <= missing <= len(defaults):
            args = bind(type(self).__name__, names, args, kwargs, defaults)
        elif missing:
            args += defaults[len(defaults) - missing:]
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        """Check or derive the fields after ``__init__``; nothing here."""

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {type(value).__name__} value to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
