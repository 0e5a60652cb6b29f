"""Spans recorded from outside the program, and the layer shims that make them.

The traced run replaces each layer's public callables with thin wrappers
(:class:`Shims`) that open a span on entry and close it on exit.  Spans are
kept in compact in-memory arrays (:class:`SpanRecorder`) and written to a
file only when the run ends.  A layer's self time is its spans' duration
minus the part of each span that its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Iterable, Sequence

import numpy as np

Hook = Callable[[tuple, dict], None]


class ShimError(RuntimeError):
    """A shim target does not exist (the program's API moved) or cannot be
    wrapped."""


class SpanRecorder:
    """Append-only span store: one row per span, parent links by row index."""

    def __init__(self, layer_names: Sequence[str]):
        self.layer_names = tuple(layer_names)
        self.layer = array("i")
        self.parent = array("i")
        self.pass_index = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_pass = 0
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def open(self, layer: int) -> int:
        """Open a span; returns its row index."""
        idx = len(self.start)
        stack = self._stack
        self.layer.append(layer)
        self.parent.append(stack[-1] if stack else -1)
        self.pass_index.append(self.current_pass)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        """Close the span opened as ``idx``."""
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def pass_spans(self, pass_index: int) -> tuple[int, list[tuple[int, int, float, float]]]:
        """``(offset, rows)``: the ``(layer, parent, start, end)`` rows of one
        pass and the recorder index of its first row (parents are recorder
        indices; a pass's rows are contiguous)."""
        rows = []
        offset = -1
        for idx, p in enumerate(self.pass_index):
            if p != pass_index:
                continue
            if offset < 0:
                offset = idx
            rows.append((self.layer[idx], self.parent[idx], self.start[idx], self.end[idx]))
        return max(offset, 0), rows

    def save(self, path: str, meta: dict[str, Any]) -> None:
        """Write every span, with the layer names and ``meta``, as ``.npz``."""
        np.savez(
            path,
            layer_names=np.asarray(self.layer_names),
            layer=np.frombuffer(self.layer, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            pass_index=np.frombuffer(self.pass_index, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            meta=np.asarray(json.dumps(meta, sort_keys=True)),
        )


def covered_length(
    intervals: Iterable[tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for start, end in sorted(intervals):
        start = max(start, lo)
        end = min(end, hi)
        if end <= start:
            continue
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        elif end > cur_hi:
            cur_hi = end
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(
    spans: Sequence[tuple[int, int, float, float]],
    *,
    offset: int = 0,
) -> tuple[dict[int, float], dict[int, int]]:
    """Per-layer self time and span count.

    Args:
        spans: ``(layer, parent, start, end)`` rows; ``parent`` is the row
            index of the enclosing span (-1 for a root).  Child spans may
            nest, overlap each other, or stick out of their parent: only
            the part of the parent they cover, counted once, is removed.
        offset: Row index of ``spans[0]`` when the rows are a slice of a
            larger recorder (parents outside the slice are ignored).

    Returns:
        ``(self_s, calls)`` keyed by layer.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for layer, parent, start, end in spans:
        pos = parent - offset
        if parent >= 0 and 0 <= pos < len(spans):
            children[pos].append((start, end))
    self_s: dict[int, float] = defaultdict(float)
    calls: dict[int, int] = defaultdict(int)
    for pos, (layer, _, start, end) in enumerate(spans):
        kids = children.get(pos)
        covered = covered_length(kids, start, end) if kids else 0.0
        self_s[layer] += (end - start) - covered
        calls[layer] += 1
    return dict(self_s), dict(calls)


def _resolve(target: str) -> tuple[Any, str, Any]:
    """``"pkg.mod:Qual.name"`` -> ``(owner, attribute, original)``."""
    module_name, _, qualname = target.partition(":")
    if not qualname:
        raise ShimError(f"shim target {target!r} is not 'module:qualname'")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError as exc:
        raise ShimError(f"shim target {target!r}: {exc}") from exc
    *path, attribute = qualname.split(".")
    for part in path:
        if not hasattr(owner, part):
            raise ShimError(f"shim target {target!r}: no attribute {part!r}")
        owner = getattr(owner, part)
    if inspect.isclass(owner):
        # Only a method the class defines itself: patching an inherited one
        # would shadow it on this class alone.
        original = vars(owner).get(attribute)
        if not inspect.isfunction(original):
            raise ShimError(
                f"shim target {target!r}: {owner.__name__} defines no plain "
                f"method {attribute!r}"
            )
    else:
        original = getattr(owner, attribute, None)
        if not callable(original):
            raise ShimError(f"shim target {target!r}: no callable {attribute!r}")
    return owner, attribute, original


def _repro_bindings(original: Any) -> list[tuple[Any, str]]:
    """Every ``repro`` module attribute bound to ``original``."""
    out = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in vars(module).items():
            if value is original:
                out.append((module, attr))
    return out


class Shims:
    """Wrap program callables; restore every original on exit.

    Each added target counts its calls (:meth:`snapshot_calls`); with a ``layer`` it
    also records a span per call, and with a ``hook`` it passes the call's
    arguments to the hook first.  Module-level functions are rebound in the
    defining module and in every ``repro`` module that imported them by
    name; ``repro_only`` rebinds them in ``repro`` modules alone (to count
    calls a third-party function receives from the program).
    """

    def __init__(self, recorder: SpanRecorder | None = None):
        self.recorder = recorder
        self._specs: list[tuple[str, int | None, Hook | None, bool]] = []
        self._patched: list[tuple[Any, str, Any]] = []
        self._boxes: dict[str, list[int]] = {}

    def add(
        self,
        target: str,
        *,
        layer: int | None = None,
        hook: Hook | None = None,
        repro_only: bool = False,
    ) -> None:
        if layer is not None and self.recorder is None:
            raise ShimError("a span layer needs a SpanRecorder")
        self._specs.append((target, layer, hook, repro_only))

    def _wrap(self, target: str, fn: Any, layer: int | None, hook: Hook | None) -> Any:
        box = self._boxes.setdefault(target, [0])
        if layer is None:

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                box[0] += 1
                if hook is not None:
                    hook(args, kwargs)
                return fn(*args, **kwargs)

        else:
            recorder = self.recorder
            open_span = recorder.open
            close_span = recorder.close

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                box[0] += 1
                if hook is not None:
                    hook(args, kwargs)
                idx = open_span(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close_span(idx)

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def install(self) -> "Shims":
        """Patch every target; on any failure nothing stays patched."""
        try:
            for target, layer, hook, repro_only in self._specs:
                owner, attribute, original = _resolve(target)
                wrapper = self._wrap(target, original, layer, hook)
                if inspect.isclass(owner):
                    sites = [(owner, attribute)]
                else:
                    sites = _repro_bindings(original)
                    if not repro_only and (owner, attribute) not in sites:
                        sites.append((owner, attribute))
                    if not sites:
                        raise ShimError(
                            f"shim target {target!r}: no repro module binds it"
                        )
                for site, attr in sites:
                    self._patched.append((site, attr, getattr(site, attr)))
                    setattr(site, attr, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patched:
            site, attr, original = self._patched.pop()
            setattr(site, attr, original)

    def snapshot_calls(self) -> dict[str, int]:
        """Calls per target so far."""
        return {target: box[0] for target, box in self._boxes.items()}

    def __enter__(self) -> "Shims":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.restore()
