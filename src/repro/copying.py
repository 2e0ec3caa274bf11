"""Deep copies that share what cannot change.

The figure experiments copy a trained world once per measurement
(:func:`~repro.experiments.runner.clone_world`), and most of what a
world holds never changes once created: logged records, and the lists
of them that logs only append to and trim.  A hot type gives
``copy.deepcopy`` a ``__deepcopy__`` hook by one of two rules:

* a frozen value type whose every field is a str, a number, a bool or
  a tuple of those returns ``self``;
* a container whose elements are immutable calls
  :func:`deepcopy_state`, naming the attributes to copy one level deep.

Every attribute a hook does not name is deep-copied as before, so a
field added later is copied in full by default.  The attributes are the
instance's ``__dict__`` and its slots, so a class may give up its
per-instance dict and keep its hook as it is.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, Iterator, Tuple, TypeVar

T = TypeVar("T")


def _state(obj: Any) -> Iterator[Tuple[str, Any]]:
    """(name, value) of every attribute *obj* holds: its ``__dict__``
    entries, then its set slots."""
    attrs = getattr(obj, "__dict__", None)
    if attrs is not None:
        yield from attrs.items()
    for klass in type(obj).__mro__:
        slots = klass.__dict__.get("__slots__", ())
        for name in (slots,) if isinstance(slots, str) else slots:
            if name not in ("__dict__", "__weakref__") and hasattr(obj, name):
                yield name, getattr(obj, name)


def deepcopy_state(obj: T, memo: Dict[int, Any],
                   **shallow: Callable[[Any], Any]) -> T:
    """A copy of *obj* for its ``__deepcopy__(memo)`` hook.

    Each attribute named in *shallow* is copied by calling its function
    on the original value (``list`` for a list of immutable elements,
    say).  Every other attribute is deep-copied through *memo*.  The copy
    is entered in *memo* before any attribute is copied, so a reference
    cycle back to *obj* resolves to the copy.
    """
    cls = type(obj)
    clone = cls.__new__(cls)
    memo[id(obj)] = clone
    for name, value in _state(obj):
        copier = shallow.get(name)
        object.__setattr__(clone, name, copy.deepcopy(value, memo)
                           if copier is None else copier(value))
    return clone
