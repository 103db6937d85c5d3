"""`Record`: the base of the engine's value classes.

A record names its fields once, `__slots__ = _fields = (...)`, and is
built from them positionally.  It is equal only to a record of its own
class with equal fields (not to a subclass, as a dataclass compared
`__class__`), hashed as the tuple of its fields and shown as
`Name(field=value, ...)`; records have no order.  The variety specs are
records, so each spec is equal to a spec of its own class with the same
fields and hashed by them: specs key `build_ring`, the `restrict_generator`
memo and the flag-type memo.  Subvariety reprs appear in error messages.

`_memoized` keeps the results of a method, or of a function of one object,
in that object's `memo` dict, one entry per name and argument tuple: rings,
complexes, weight tables and Lefschetz contexts memoize through it.
"""

import functools


def _memoized(fn):
    """Compute fn(obj, *args) once per object and argument tuple, in obj.memo."""
    @functools.wraps(fn)
    def wrapper(obj, *args):
        key = (fn.__name__,) + args
        if key not in obj.memo:
            obj.memo[key] = fn(obj, *args)
        return obj.memo[key]
    return wrapper


class Record:
    __slots__ = _fields = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError("%s takes %d fields, got %d"
                            % (type(self).__name__, len(self._fields),
                               len(values)))
        for name, value in zip(self._fields, values):
            setattr(self, name, value)

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))
