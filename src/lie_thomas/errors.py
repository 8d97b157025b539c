"""The common base of the package's own errors, and of its record classes.

Every error class the package raises for malformed input or a
mathematical obstruction derives from DomainError next to its usual base
(ValueError or ExprError), so a caller can tell them from a programming
error with one except clause; the command line reports them with exit
code 3.

Record is the base of the package's immutable value classes (parameters,
fields, cases, families, grid reports).  A subclass lists its fields as
class annotations, with class attributes as their defaults, and gets: an
``__init__`` that binds the fields in order, positionally or by name, and
then calls ``__post_init__`` if the class has one; ``__eq__`` and
``__hash__`` on the tuple of field values; a ``Name(field=value, ...)``
repr that leaves out the fields named in the ``hidden=`` class keyword;
and an AttributeError on assigning or deleting an attribute.  Only
``__init__`` is generated, compiled once per class with the fields as its
parameters, so constructing a record costs what a hand-written
constructor costs, and defining one loads no module.

This module imports nothing, so naming either base loads no other part of
the package.
"""


class DomainError(Exception):
    """Malformed input or a mathematical obstruction, not a bug."""


_set = object.__setattr__


class Record:
    """An immutable record of the annotated fields; see the module notes."""

    def __init_subclass__(cls, hidden=(), **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        defaults = tuple(cls.__dict__[f] for f in fields if f in cls.__dict__)
        for f in fields[len(fields) - len(defaults):]:
            if f not in cls.__dict__:
                raise TypeError("non-default argument %r follows default argument" % f)
        body = ["_set(self, %r, %s)" % (f, f) for f in fields]
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        namespace = {"_set": _set}
        params = ", ".join(("self",) + fields)
        exec("def __init__(%s):\n    %s" % (params, "\n    ".join(body)), namespace)
        init = namespace["__init__"]
        init.__defaults__ = defaults or None
        init.__qualname__ = cls.__qualname__ + ".__init__"
        cls.__init__ = init
        cls._fields = fields
        cls._shown = tuple(f for f in fields if f not in hidden)

    def _values(self):
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._shown))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)
