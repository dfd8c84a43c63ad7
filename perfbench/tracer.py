"""In-memory spans around the public functions of the blocksets modules.

The tracer replaces every public module-level function and every public
method of a public class in ``blocksets.gf``, ``plane``, ``families``,
``blocking``, ``extremal``, ``search`` and ``cli`` with a timing wrapper.
Module-level functions are patched in every ``blocksets`` module that holds
a reference to them, because callers look them up there (for example
``blocksets.cli.load_plane`` and ``blocksets.search.characterize``); methods
are patched on their class.  ``remove`` puts every original back.

For each wrapped function the tracer keeps ``calls``, ``s`` (inclusive time,
counted once for recursive activations) and ``self_s`` (inclusive time minus
the time of wrapped callees).  Self times of all spans partition the time of
the outermost span, which the self-test checks.
"""

from __future__ import annotations

import sys
import types
from time import perf_counter

MODULES = ("gf", "plane", "families", "blocking", "extremal", "search", "cli")
PACKAGE = "blocksets"
SEARCH_ENTRY = "search.exhaustive_extremal_search"

_MARK = "_perfbench_span"


def _package_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _public_members(mod):
    """(owner, attribute, function, kind, span name) for each wrappable member."""
    short = mod.__name__.rsplit(".", 1)[1]
    found = []
    for attr, obj in sorted(vars(mod).items()):
        if attr.startswith("_"):
            continue
        if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
            found.append((mod, attr, obj, "function", f"{short}.{attr}"))
        elif isinstance(obj, type) and obj.__module__ == mod.__name__:
            for mattr, mobj in sorted(vars(obj).items()):
                if mattr.startswith("_"):
                    continue
                if isinstance(mobj, (classmethod, staticmethod)):
                    kind, fn = type(mobj).__name__, mobj.__func__
                elif isinstance(mobj, types.FunctionType):
                    kind, fn = "method", mobj
                else:
                    continue
                found.append((obj, mattr, fn, kind, f"{short}.{mattr}"))
    # Two classes of one module may share a method name; qualify those.
    names = [entry[4] for entry in found]
    return [
        entry
        if names.count(entry[4]) == 1 or entry[3] == "function"
        else entry[:4] + (f"{short}.{entry[0].__name__}.{entry[1]}",)
        for entry in found
    ]


class Tracer:
    """Span totals per wrapped function, plus the SearchResult of each search."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.searches: list[dict] = []
        self._stack: list[list[float]] = [[0.0]]
        self._active: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- install / remove ----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {m.__name__: m for m in _package_modules()}
        wrappers: dict[int, object] = {}  # id of an original function -> its wrapper
        for short in MODULES:
            mod = mods[f"{PACKAGE}.{short}"]
            for owner, attr, fn, kind, name in _public_members(mod):
                wrapper = self._wrap(name, fn)
                if kind == "function":
                    wrappers[id(fn)] = wrapper
                    continue
                if kind == "classmethod":
                    wrapper = classmethod(wrapper)
                elif kind == "staticmethod":
                    wrapper = staticmethod(wrapper)
                self._patches.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, wrapper)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @staticmethod
    def leftover_wrappers() -> list[str]:
        """Names in the blocksets modules that still hold a wrapper."""
        left = []
        for mod in _package_modules():
            for attr, obj in vars(mod).items():
                if hasattr(obj, _MARK):
                    left.append(f"{mod.__name__}.{attr}")
                if isinstance(obj, type):
                    for mattr, mobj in vars(obj).items():
                        fn = getattr(mobj, "__func__", mobj)
                        if hasattr(fn, _MARK):
                            left.append(f"{mod.__name__}.{attr}.{mattr}")
        return left

    # -- accounting ----------------------------------------------------------

    def snapshot(self) -> dict[str, tuple[int, float, float]]:
        return {name: tuple(entry) for name, entry in self.stats.items()}

    def top_level_s(self) -> float:
        """Total time of outermost spans since the tracer was created."""
        return self._stack[0][0]

    def self_total_s(self) -> float:
        return sum(entry[2] for entry in self.stats.values())

    def _wrap(self, name, fn):
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, active = self._stack, self._active
        observe = self._observe_search if name == SEARCH_ENTRY else None

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth = active.get(name, 0)
            active[name] = depth + 1
            start = perf_counter()
            result = error = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                active[name] = depth
                entry[0] += 1
                if depth == 0:
                    entry[1] += elapsed
                entry[2] += elapsed - frame[0]
                stack[-1][0] += elapsed
                if observe is not None:
                    observe(args[0] if args else kwargs["task"], result, error, elapsed)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        setattr(wrapper, _MARK, name)
        return wrapper

    def _observe_search(self, task, result, error, elapsed):
        row = {"q": task.plane.order, "t": task.t}
        if result is None:
            row.update(nodes=0, s=elapsed, complete=False, found=0, error=error)
        else:
            row.update(
                nodes=result.nodes,
                s=result.seconds,
                complete=result.complete,
                found=len(result.sets),
                error=None,
            )
        self.searches.append(row)
