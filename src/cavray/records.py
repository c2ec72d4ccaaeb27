"""Immutable value records as ``collections.namedtuple`` subclasses."""

from collections import namedtuple


def record(cls):
    """``cls`` rebuilt as an immutable tuple of its annotated fields.

    Fields keep their annotation order; a class attribute named like a
    field (a default) is a TypeError. Instances compare and hash by value
    and take no attribute assignment. ``__post_init__(self)``, when defined,
    checks every instance that ``cls(...)``, ``_make`` and ``_replace`` build.
    The class body is copied into a new class, so its methods may not use
    ``super()`` or ``__class__``.
    """
    body = vars(cls)
    names = tuple(cls.__annotations__)
    for name in names:
        if name in body:
            raise TypeError(f"{cls.__name__}: field {name!r} has a default; "
                            "a record takes every field")
    base = namedtuple(cls.__name__, names, module=cls.__module__)
    namespace = {key: value for key, value in body.items()
                 if key not in ("__dict__", "__weakref__")}
    namespace["__slots__"] = ()
    check = body.get("__post_init__")
    if check is not None:
        def __init__(self, *args, **kwargs):
            check(self)

        namespace["__init__"] = __init__
        # _make, and so _replace, would build through tuple.__new__ alone
        namespace["_make"] = classmethod(lambda klass, iterable: klass(*iterable))
    return type(cls.__name__, (base,), namespace)
