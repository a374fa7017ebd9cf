"""Seeded inputs for the benchmark workloads.

Everything the program receives is generated here, from ``--seed``
alone, before any timed phase:

* the flag catalog at the Table 2 flag parameters scaled by 4 — 1,000
  binary flags, three edited variants each (3,000 edited, 75% of the
  catalog), 80% of the edited images bound-widening-only, every
  sequence extended to 5 operations with bound-widening tail recipes;
* the shard-local variant of that catalog, whose non-widening Merge
  targets are drawn only among bases that hash to the same shard
  (:func:`repro.shard.hash_shard`), so no insert is refused with
  ``CrossShardReferenceError``;
* an endless, duplicate-free range-query stream from
  :func:`repro.workloads.queries.make_query_workload` (40% anchored,
  40% broad, 20% miss-heavy);
* mutation streams: edited-image replacements on the same base and
  base-raster updates (uniform for the service, zipf-skewed bases for
  the shards).

Ids are assigned here (``img-N`` / ``edit-N``) and passed to the
program, so a run's catalog is identical whatever order it is built in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.query import RangeQuery
from repro.editing.operations import Operation
from repro.editing.recipes import (
    build_variant,
    recipe_multi_recolor,
    recipe_recolor,
    recipe_regional_blur,
    recipe_shift,
)
from repro.editing.sequence import EditSequence
from repro.images.ppm import write_ppm
from repro.images.raster import Image
from repro.shard import hash_shard
from repro.workloads.flags import FLAG_RECIPE_PALETTE, make_flag, make_flag_collection
from repro.workloads.queries import make_query_workload
from repro.workloads.table2 import FLAG_PARAMETERS

#: Table 2 flag column at ``scale=4``: 1,000 binary + 3,000 edited.
PARAMS = FLAG_PARAMETERS.scaled(4)

#: Shards of the ``shard-durable`` catalog.
SHARD_COUNT = 4

#: Tail recipes that keep a sequence executable after any head recipe
#: (no size change, no non-empty-DR requirement) and keep it
#: bound-widening — the same set the Table 2 builder appends.
_TAIL_RECIPES = (
    recipe_regional_blur,
    recipe_recolor,
    recipe_multi_recolor,
    recipe_shift,
)

#: Queries drawn per :func:`make_query_workload` call of the query stream.
_QUERY_CHUNK = 400

#: Sub-stream tags mixed into the seed so each input family draws from
#: its own generator and adding one never shifts another.
_CATALOG, _QUERIES, _MUTATIONS = 1, 2, 3


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


@dataclass(frozen=True)
class CatalogInputs:
    """One generated catalog: binaries and edit sequences with their ids."""

    binaries: Tuple[Tuple[str, Image], ...]
    edited: Tuple[Tuple[str, EditSequence], ...]

    @property
    def base_ids(self) -> Tuple[str, ...]:
        return tuple(image_id for image_id, _ in self.binaries)

    def user_bytes(self) -> int:
        """Bytes of user data: PPM rasters plus serialized sequences."""
        rasters = sum(len(write_ppm(image)) for _, image in self.binaries)
        sequences = sum(
            len(sequence.serialize().encode("utf-8")) for _, sequence in self.edited
        )
        return rasters + sequences


def _sequence(
    rng: np.random.Generator,
    base_id: str,
    widening: bool,
    targets: Sequence[str],
) -> EditSequence:
    height, width = PARAMS.image_height, PARAMS.image_width
    target = None
    if not widening and targets:
        target = targets[int(rng.integers(len(targets)))]
    operations: List[Operation] = list(
        build_variant(
            rng, height, width, FLAG_RECIPE_PALETTE,
            bound_widening=widening, merge_target=target,
        )
    )
    while len(operations) < PARAMS.average_ops_per_edited:
        tail = _TAIL_RECIPES[int(rng.integers(len(_TAIL_RECIPES)))]
        operations.extend(tail(rng, height, width, FLAG_RECIPE_PALETTE))
    return EditSequence(base_id, tuple(operations))


class MergeTargets:
    """Merge-target pools per base: every other base, or same-shard ones."""

    def __init__(self, base_ids: Sequence[str], shard_count: Optional[int]) -> None:
        self._shard_count = shard_count
        groups: Dict[int, List[str]] = {}
        for base_id in base_ids:
            groups.setdefault(self._group(base_id), []).append(base_id)
        self._groups = groups

    def _group(self, base_id: str) -> int:
        return 0 if self._shard_count is None else hash_shard(base_id, self._shard_count)

    def for_base(self, base_id: str) -> List[str]:
        return [b for b in self._groups[self._group(base_id)] if b != base_id]


def make_catalog(seed: int, shard_count: Optional[int] = None) -> Tuple[CatalogInputs, MergeTargets]:
    """The Table 2 flag catalog; shard-local Merges when ``shard_count``."""
    rng = _rng(seed, _CATALOG)
    images = make_flag_collection(
        rng, PARAMS.binary_images, PARAMS.image_height, PARAMS.image_width
    )
    binaries = tuple((f"img-{index + 1}", image) for index, image in enumerate(images))
    base_ids = [image_id for image_id, _ in binaries]
    targets = MergeTargets(base_ids, shard_count)
    edited_count = PARAMS.edited_images
    widening = np.zeros(edited_count, dtype=bool)
    widening[: PARAMS.expected_bound_widening] = True
    rng.shuffle(widening)
    edited = tuple(
        (
            f"edit-{index + 1}",
            _sequence(
                rng,
                base_ids[index % len(base_ids)],
                bool(widening[index]),
                targets.for_base(base_ids[index % len(base_ids)]),
            ),
        )
        for index in range(edited_count)
    )
    return CatalogInputs(binaries, edited), targets


def query_stream(seed: int, database) -> Iterator[RangeQuery]:
    """Endless distinct range queries drawn against ``database``'s state.

    Chunks come from :func:`make_query_workload` with per-chunk seeds;
    a query equal to an earlier one is dropped, so the result cache
    never serves a repeat.
    """
    seen: Set[Tuple[int, float, float]] = set()
    for number in range(1 << 30):
        for query in make_query_workload(database, _rng(seed, _QUERIES, number), _QUERY_CHUNK):
            key = (query.bin_index, query.pct_min, query.pct_max)
            if key not in seen:
                seen.add(key)
                yield query


@dataclass(frozen=True)
class Mutation:
    """One catalog change: a replaced sequence or a new base raster."""

    kind: str  # "replace_edited" | "update_image"
    image_id: str
    sequence: Optional[EditSequence] = None
    image: Optional[Image] = None


class MutationStream:
    """Deterministic mutations; ``zipf`` skews base updates to hot bases.

    Mutation ``n`` has kind ``kinds[n % len(kinds)]``, so every run has
    the same mix at every length (a random mix near 50/50 would flip a
    p50 between the cheap and the dear kind), and draws from its own
    generator, so the stream does not depend on how many queries ran
    between mutations.
    """

    def __init__(
        self,
        seed: int,
        inputs: CatalogInputs,
        targets: MergeTargets,
        kinds: Sequence[str],
        zipf: bool,
    ) -> None:
        self._seed = seed
        self._targets = targets
        self._base_ids = list(inputs.base_ids)
        self._edited = [(image_id, sequence.base_id) for image_id, sequence in inputs.edited]
        self._kinds = tuple(kinds)
        weights = None
        if zipf:
            order = _rng(seed, _MUTATIONS).permutation(len(self._base_ids))
            weights = np.empty(len(self._base_ids))
            weights[order] = 1.0 / np.arange(1, len(self._base_ids) + 1)
            weights /= weights.sum()
        self._weights = weights
        self._next = 0

    def __iter__(self) -> "MutationStream":
        return self

    def __next__(self) -> Mutation:
        rng = _rng(self._seed, _MUTATIONS, self._next + 1)
        kind = self._kinds[self._next % len(self._kinds)]
        self._next += 1
        if kind == "replace_edited":
            image_id, base_id = self._edited[int(rng.integers(len(self._edited)))]
            widening = bool(rng.random() < PARAMS.bound_widening_fraction)
            sequence = _sequence(rng, base_id, widening, self._targets.for_base(base_id))
            return Mutation("replace_edited", image_id, sequence=sequence)
        index = int(rng.choice(len(self._base_ids), p=self._weights))
        image = make_flag(rng, PARAMS.image_height, PARAMS.image_width)
        return Mutation("update_image", self._base_ids[index], image=image)
