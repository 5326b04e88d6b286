"""The base of the package's value types.

A subclass of `Value` is a record of the fields its class body annotates,
in the order it names them. A field's default is its class attribute, and
a `dict` default is copied for each instance. The fields give the class a
constructor that takes them by position or by name, a `repr` of the form
`Name(a=1, b='x')`, equality with instances of the same class only, and a
hash of the field values. Instances are frozen: assigning or deleting an
attribute raises AttributeError. Copies and pickles are rebuilt through
the constructor.

The fields are read once, when the class is created; no code is generated.
"""

_set = object.__setattr__


class Value:
    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields
                         if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments "
                            f"but {len(args)} were given")
        for key in kwargs:
            if key not in fields or key in fields[:len(args)]:
                raise TypeError(f"{name}() got an unexpected or repeated "
                                f"argument {key!r}")
        kwargs.update(zip(fields, args))
        for field in fields:
            if field in kwargs:
                _set(self, field, kwargs[field])
            elif field in self._defaults:
                default = self._defaults[field]
                _set(self, field,
                     dict(default) if type(default) is dict else default)
            else:
                raise TypeError(f"{name}() missing argument {field!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={value!r}" for field, value
                           in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
