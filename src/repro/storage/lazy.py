"""Lazy, zero-copy-backed views over a segment store.

``repro serve`` used to pay O(total pairs) of JSON parsing and index
building before it could bind a socket.  These two classes move that
cost off the startup path:

* :class:`SegmentRelationshipSet` — a :class:`RelationshipSet` whose
  pair sets materialise (mmap + struct decode + WAL replay) only on
  first access; counts and ``repr`` come from the manifest in O(1).
* :class:`LazyRelationshipIndex` — a :class:`RelationshipIndex` whose
  adjacency maps are built on first lookup instead of at construction.

Both rely on ``__getattr__``, which Python only consults when normal
attribute lookup fails — i.e. exactly while the underlying state has
not been materialised yet.  After the one-time build every access is a
plain slot/dict hit with zero overhead.

The server that consumes these views is a ``ThreadingHTTPServer`` whose
queries run under a *shared* read lock, so several first queries can
race into the build.  Both builds are therefore guarded by a
``threading.Lock`` with a double-checked fast path, and both are
atomic: state becomes visible only after a complete, successful build,
so a failed build (e.g. a corrupt segment) leaves the view unbuilt and
retryable instead of half-populated and silently empty.
"""

from __future__ import annotations

import threading

from repro.core.results import RelationshipSet
from repro.obs import catalogue
from repro.obs.tracing import trace
from repro.service.index import RelationshipIndex

__all__ = ["SegmentRelationshipSet", "LazyRelationshipIndex"]

#: The slot attributes whose first access triggers materialisation.
_SET_SLOTS = ("full", "partial", "complementary", "partial_map", "degrees")


class SegmentRelationshipSet(RelationshipSet):
    """A relationship set that decodes its segment store on demand."""

    # No __slots__ here: the subclass needs a __dict__ for its own
    # bookkeeping while the parent's slots stay unset until first use.

    def __init__(self, store, partitions=None):
        # Deliberately does NOT call super().__init__ — leaving the
        # parent's data slots unset is what makes __getattr__ fire.
        # The columnar-queue state does get initialised (empty): the
        # parent's partial/partial_map/degrees property setters drain
        # it during materialisation.
        self._pending = []
        self._pending_lock = threading.Lock()
        self._store = store
        #: None = the whole store; otherwise the (dataset, signature)
        #: partition keys this view covers (a cluster shard's slice).
        self._partitions = list(partitions) if partitions is not None else None
        if self._partitions is None:
            self._totals = store.totals()
        else:
            # Manifest-level counts for just the covered segments, so
            # counts/repr stay O(manifest) for shard views too.  WAL
            # records are excluded, exactly like the whole-store totals.
            self._totals = {"full": 0, "partial": 0, "complementary": 0}
            for entry in store.segments_in(self._partitions):
                for field in self._totals:
                    self._totals[field] += entry.get(field, 0)
        self._build_lock = threading.Lock()

    # -- lazy materialisation -----------------------------------------
    def __getattr__(self, name: str):
        if name in _SET_SLOTS:
            self._materialise()
            return getattr(self, name)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def _materialise(self) -> None:
        if self.__dict__.get("_loaded"):
            return
        with self.__dict__["_build_lock"]:
            if self.__dict__.get("_loaded"):
                return
            catalogue.STORAGE_LAZY_MATERIALISATIONS.inc()
            from repro.resilience.deadline import check_deadline

            check_deadline("lazy.materialise")
            # Decode fully before assigning anything: a load failure
            # leaves every slot unset, so the next access retries
            # instead of serving empty sets.
            with trace("storage.materialise"):
                if self.__dict__["_partitions"] is not None:
                    loaded = self._store.load_partitions(self.__dict__["_partitions"])
                else:
                    loaded = self._store.load()
            self.full = loaded.full
            self.partial = loaded.partial
            self.complementary = loaded.complementary
            self.partial_map = loaded.partial_map
            self.degrees = loaded.degrees
            self._loaded = True

    @property
    def materialised(self) -> bool:
        return bool(self.__dict__.get("_loaded"))

    # -- O(1) overrides from the manifest ------------------------------
    def total(self) -> int:
        if not self.materialised:
            return int(
                self._totals.get("full", 0)
                + self._totals.get("partial", 0)
                + self._totals.get("complementary", 0)
            )
        return super().total()

    def __repr__(self) -> str:
        if not self.materialised:
            return (
                f"SegmentRelationshipSet(full={self._totals.get('full', 0)}, "
                f"partial={self._totals.get('partial', 0)}, "
                f"complementary={self._totals.get('complementary', 0)}, lazy)"
            )
        return super().__repr__().replace("RelationshipSet", "SegmentRelationshipSet", 1)


def _lazy_view(name: str) -> property:
    """Materialise-on-first-read wrapper for a parent property view.

    ``partial`` / ``partial_map`` / ``degrees`` are *properties* on
    :class:`RelationshipSet` (they drain the columnar queue), so unlike
    the plain ``full`` / ``complementary`` slots their first access
    never falls through to ``__getattr__``.  Wrap them so a read
    triggers the segment decode exactly once; the ``materialised``
    guard (not just delegation) matters because the cluster shard wraps
    ``_materialise`` with a prune step that itself reads these views.
    """
    parent = getattr(RelationshipSet, name)

    def fget(self):
        if not self.materialised:
            self._materialise()
        return parent.fget(self)

    return property(fget, parent.fset, doc=parent.__doc__)


for _name in ("partial", "partial_map", "degrees"):
    setattr(SegmentRelationshipSet, _name, _lazy_view(_name))
del _name


class LazyRelationshipIndex(RelationshipIndex):
    """A relationship index built on first lookup, not at construction.

    Construction stores the ``(result, space)`` pair and returns
    immediately; the first attribute the parent's methods touch (an
    adjacency map, ``result``...) triggers the real
    :class:`RelationshipIndex` build.  Served queries before and after
    the build behave identically — only the first one pays.

    The build runs into a *fresh* index whose state is adopted only on
    success: concurrent first lookups serialise on the build lock, and
    a build that raises keeps ``_pending`` so the index stays unbuilt
    (and retryable) rather than permanently half-populated.
    """

    def __init__(self, result: RelationshipSet, space=None):
        self.__dict__["_pending"] = (result, space)
        self.__dict__["_build_lock"] = threading.Lock()

    def __getattr__(self, name: str):
        state = self.__dict__
        lock = state.get("_build_lock")
        if lock is None or "_pending" not in state:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        with lock:
            pending = state.get("_pending")
            if pending is not None:
                built = RelationshipIndex(*pending)
                # an observe() before the build keeps its newer space
                for attribute, value in built.__dict__.items():
                    state.setdefault(attribute, value)
                del state["_pending"]
        return getattr(self, name)

    @property
    def built(self) -> bool:
        return "_pending" not in self.__dict__
