"""Timing wrappers around the program's public layer entry points.

The program is not edited: :func:`install` replaces each target
function or method with a wrapper *everywhere it is bound* - the
defining module, every ``repro`` module that imported the name, and
the class for methods - and :func:`uninstall` puts the originals back.
Each wrapper records a span ``(id, name, start, end, parent, count)``
in memory; the parent is the innermost wrapped call still open on the
same thread.  A layer's self time is its span's duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``module:qualname`` under a layer name.

    ``count`` maps a call's return value to a number summed per layer
    (e.g. Lloyd iterations); it is stored on the call's span, so counts
    can be cut to a time window like spans.  ``sites`` lists
    ``module.attribute`` call sites that must end up patched:
    :func:`install` fails loudly if the program stops binding the name
    there, instead of silently measuring nothing.
    """

    name: str
    ref: str
    count: Callable[[Any], float] | None = None
    sites: tuple[str, ...] = ()


class Recorder:
    """In-memory span store shared by all wrappers.

    A span is ``(id, name, start, end, parent_id, count)``.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, count=None) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            sid = next(recorder._ids)
            stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                value = count(result) if count is not None and result is not None else None
                recorder.spans.append((sid, name, start, end, parent, value))

        return wrapper


@dataclass
class Installation:
    """The ``(owner, attribute, original)`` triples a wrap replaced."""

    patches: list[tuple[Any, str, Any]] = field(default_factory=list)


def _resolve(ref: str) -> tuple[Any, str, Any]:
    module_name, _, qualname = ref.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr] if path else getattr(owner, attr)


def _site_value(site: str) -> Any:
    module_name, _, attr = site.rpartition(".")
    return getattr(sys.modules[module_name], attr)


def install(recorder: Recorder, targets, package: str = "repro") -> Installation:
    """Wrap every target wherever ``package`` modules bind it."""
    inst = Installation()
    try:
        for target in targets:
            owner, attr, original = _resolve(target.ref)
            wrapper = recorder.wrap(target.name, original, target.count)
            if isinstance(owner, type):
                inst.patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                for mod_name, module in list(sys.modules.items()):
                    if module is None or not (
                        mod_name == package or mod_name.startswith(package + ".")
                    ):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            inst.patches.append((module, key, original))
                            setattr(module, key, wrapper)
            for site in target.sites:
                if _site_value(site) is not wrapper:
                    raise RuntimeError(f"{target.name}: call site {site} not patched")
    except BaseException:
        uninstall(inst)
        raise
    return inst


def uninstall(inst: Installation) -> None:
    """Restore every attribute :func:`install` replaced."""
    while inst.patches:
        owner, attr, original = inst.patches.pop()
        setattr(owner, attr, original)


def self_times(spans) -> dict[str, dict[str, float]]:
    """Per-name ``calls``, ``total_s``, ``self_s`` and summed ``count``."""
    child_time: dict[int, float] = defaultdict(float)
    for _sid, _name, start, end, parent, _value in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for sid, name, start, end, _parent, value in spans:
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                    "count": 0})
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += end - start - child_time[sid]
        agg["count"] += value or 0
    return out


def covered_time(spans, start: float, end: float) -> float:
    """Wall-clock time in ``[start, end]`` inside at least one root span."""
    intervals = sorted(
        (max(s, start), min(e, end))
        for _sid, _name, s, e, parent, _value in spans
        if parent is None and e > start and s < end
    )
    total, cur_s, cur_e = 0.0, None, None
    for s, e in intervals:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total
