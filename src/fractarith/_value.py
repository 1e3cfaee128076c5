"""The base of the library's immutable value types.

A value type lists its fields, in order, as its __slots__ and sets them in
its own __init__ through setfield; one that stores them in another form
names them in _fields instead, each readable as an attribute.  The base
gives it field-wise equality between instances of one class, the hash of
the field tuple, the repr Name(field=value, ...) and immutability.  Plain
classes keep the import of the package cheap: no method is generated or
exec'd when a class is defined.
"""

from operator import attrgetter

# sets a field from inside __init__, past Value.__setattr__
setfield = object.__setattr__


class Value:
    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        fields = cls.__dict__.get("_fields", cls.__slots__)
        if fields:  # an empty __slots__ marks a base that shares an __init__
            cls._fields = fields
            get = attrgetter(*fields)
            # the field tuple, also for a single field
            cls._values = property(get if len(fields) > 1 else lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as assignment is refused
        return type(self), self._values
