"""The base classes of the package's records.

Each record is a plain class with `__slots__` and a written-out
`__init__`, not a generated data class: the standard library `exec`s
about five methods per data class, 0.6-1.0 ms a class and 13.1 ms of a
55.3 ms package import over 21 classes, where a plain class takes
0.01 ms.  A shared, loop-based `__init__` took 4.6 us to build a `Check`
where a frozen data class takes 1.8 us.  Nor is a record a named tuple:
tuples compare equal across types, `openness._jsonable` writes every
tuple as a list, and the benchmark's tracer counts `result[1]` of a
tuple result, which for a tuple `Check` would be its `ok`.  A record
defines `__eq__` and `__hash__` only where something compares or hashes
it: equal only to the same class with equal fields, hashed as the tuple
of its fields.
"""

setfield = object.__setattr__  # how a frozen record's __init__ sets a field


class Record:
    """A record whose fields are its `__slots__`, in `__init__` order."""
    __slots__ = ()

    def _fields(self):
        return [name for name in self.__slots__ if name != "__dict__"]

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields())
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A record whose fields cannot be assigned or deleted."""
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """A copy with the named fields changed; TypeError on another name."""
        return type(self)(**{**{name: getattr(self, name)
                                for name in self._fields()}, **changes})
