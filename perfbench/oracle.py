"""Expected query results, computed apart from the program's query paths.

The oracle keeps its own single-catalog replica of every state the
program passes through (a plain :class:`MultimediaDatabase` with a
linear index and no memo).  From it, outside every timed phase, it
derives two per-image tables over all 64 bins:

* ``exact`` — the bin fractions of the *instantiated* image (edited
  images are executed, not bounded): the ground truth of §2;
* ``lo`` / ``hi`` — the BOUNDS fraction interval from the per-image
  all-bins walk (:meth:`BoundsEngine.fraction_bounds_all_bins`), which
  is proven equal to the scalar Table 1 walk the linear RBM scan uses,
  and shares no code with the columnar sweep, the R-tree probe or BWM.

A range query's expected answer is then the linear RBM set (binary
images whose exact fraction lies in the range, edited images whose
interval overlaps it); by the paper's invariant RBM ≡ BWM ≡ every
planner strategy, so every front door must return exactly that set.
The exact table gives the no-false-negative check and the precision.
A mutation re-derives only the rows it can change: the image itself
and every edited image that references it as a base or Merge target.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Set, Tuple

import numpy as np

from repro.color.histogram import ColorHistogram
from repro.core.query import RangeQuery
from repro.db.database import MultimediaDatabase
from repro.db.records import BinaryImageRecord

from perfbench.inputs import CatalogInputs, Mutation


class Oracle:
    """Replica catalog plus exact and interval tables for every image."""

    def __init__(self, inputs: CatalogInputs) -> None:
        self.replica = MultimediaDatabase(index_kind="linear")
        for image_id, image in inputs.binaries:
            self.replica.insert_image(image, image_id)
        for image_id, sequence in inputs.edited:
            self.replica.insert_edited(sequence, image_id)
        self.ids = np.array(
            [image_id for image_id, _ in inputs.binaries]
            + [image_id for image_id, _ in inputs.edited]
        )
        self._row = {image_id: row for row, image_id in enumerate(self.ids)}
        bins = self.replica.quantizer.bin_count
        self.exact = np.empty((len(self.ids), bins))
        self.lo = np.empty_like(self.exact)
        self.hi = np.empty_like(self.exact)
        self._referrers: Dict[str, Set[str]] = {}
        for image_id, sequence in inputs.edited:
            self._link(image_id, sequence)
        for image_id in self.ids:
            self._derive(str(image_id))

    # ------------------------------------------------------------------
    def _link(self, image_id: str, sequence) -> None:
        for referenced in sequence.referenced_ids():
            self._referrers.setdefault(referenced, set()).add(image_id)

    def _unlink(self, image_id: str, sequence) -> None:
        for referenced in sequence.referenced_ids():
            self._referrers[referenced].discard(image_id)

    def _derive(self, image_id: str) -> None:
        row = self._row[image_id]
        record = self.replica.catalog.record(image_id)
        if isinstance(record, BinaryImageRecord):
            fractions = record.histogram.fractions()
            self.exact[row] = self.lo[row] = self.hi[row] = fractions
            return
        image = self.replica.instantiate(image_id)
        self.exact[row] = ColorHistogram.of_image(image, self.replica.quantizer).fractions()
        self.lo[row], self.hi[row] = self.replica.engine.fraction_bounds_all_bins(image_id)

    def apply(self, *mutations: Mutation) -> None:
        """Mirror acknowledged mutations, then re-derive each touched row once."""
        touched: Set[str] = set()
        for mutation in mutations:
            image_id = mutation.image_id
            touched.add(image_id)
            if mutation.kind == "replace_edited":
                self._unlink(image_id, self.replica.catalog.sequence_of(image_id))
                self.replica.delete_edited(image_id)
                self.replica.insert_edited(mutation.sequence, image_id)
                self._link(image_id, mutation.sequence)
            else:
                self.replica.update_image(image_id, mutation.image)
                touched.update(self._referrers.get(image_id, ()))
        for image_id in touched:
            self._derive(image_id)

    # ------------------------------------------------------------------
    def expected(self, query: RangeQuery) -> FrozenSet[str]:
        """The linear RBM answer: exact binaries plus overlapping intervals."""
        lo = self.lo[:, query.bin_index]
        hi = self.hi[:, query.bin_index]
        mask = (lo <= query.pct_max) & (hi >= query.pct_min)
        return frozenset(self.ids[mask].tolist())

    def exact_matches(self, query: RangeQuery) -> FrozenSet[str]:
        """Images whose instantiated histogram satisfies ``query``."""
        column = self.exact[:, query.bin_index]
        mask = (column >= query.pct_min) & (column <= query.pct_max)
        return frozenset(self.ids[mask].tolist())

    def check(self, query: RangeQuery, matches: FrozenSet[str]) -> Tuple[bool, int]:
        """``(correct, exact match count)`` for one returned result.

        Correct means: equal to the linear RBM set, and no exact match
        missing (which the equality implies unless the bounds themselves
        are unsound — checked separately so such a fault cannot hide).
        """
        exact = self.exact_matches(query)
        expected = self.expected(query)
        return matches == expected and exact <= matches and exact <= expected, len(exact)

    def user_bytes(self) -> int:
        """PPM bytes of every binary plus serialized bytes of every sequence."""
        catalog = self.replica.catalog
        return CatalogInputs(
            tuple((i, catalog.binary_record(i).image) for i in catalog.binary_ids()),
            tuple((i, catalog.sequence_of(i)) for i in catalog.edited_ids()),
        ).user_bytes()

    # ------------------------------------------------------------------
    def content_mismatches(
        self,
        ids: Iterable[str],
        database_of: Callable[[str], MultimediaDatabase],
    ) -> List[str]:
        """Ids whose stored content differs from the replica's.

        ``ids`` are the ids the checked catalog holds and ``database_of``
        maps each to the database storing it; a missing or extra id is
        reported too.  Binary images compare by raster and histogram,
        edited images by their sequence.
        """
        held = set(ids)
        problems = sorted(held ^ set(self._row))
        for image_id in sorted(held & set(self._row)):
            mine = self.replica.catalog.record(image_id)
            theirs = database_of(image_id).catalog.record(image_id)
            if isinstance(mine, BinaryImageRecord):
                same = isinstance(theirs, BinaryImageRecord) and (
                    np.array_equal(mine.image.pixels, theirs.image.pixels)
                    and np.array_equal(mine.histogram.counts, theirs.histogram.counts)
                )
            else:
                sequence = getattr(theirs, "sequence", None)
                same = sequence is not None and (
                    sequence.serialize() == mine.sequence.serialize()
                )
            if not same:
                problems.append(image_id)
        return problems

    def linear_scan_agrees(self, queries: Iterable[RangeQuery]) -> bool:
        """Cross-check the interval table against the replica's real RBM scan."""
        return all(
            self.replica.range_query(query, method="rbm").matches == self.expected(query)
            for query in queries
        )
