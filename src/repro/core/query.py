"""Range queries and query results shared by the RBM and BWM processors.

The paper's query class is the color range query: "Retrieve all images
that are at least 25% blue" becomes *bin HB = bin(blue)*, *PCT_min =
0.25*, *PCT_max = 1.0*.  Both processing methods consume the same
:class:`RangeQuery` and produce the same :class:`QueryResult` shape so the
performance evaluation can compare them on identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Protocol

from repro.color.histogram import ColorHistogram
from repro.editing.sequence import EditSequence
from repro.errors import QueryError


@dataclass(frozen=True)
class RangeQuery:
    """A color range query over one histogram bin.

    ``pct_min``/``pct_max`` are fractions in ``[0, 1]``; an image
    satisfies the query when its fraction of bin ``bin_index`` pixels lies
    in the closed interval.
    """

    bin_index: int
    pct_min: float
    pct_max: float = 1.0

    def __post_init__(self) -> None:
        if self.bin_index < 0:
            raise QueryError(f"bin index must be non-negative, got {self.bin_index}")
        if not 0.0 <= self.pct_min <= 1.0 or not 0.0 <= self.pct_max <= 1.0:
            raise QueryError(
                f"percentages must be in [0, 1]: [{self.pct_min}, {self.pct_max}]"
            )
        if self.pct_min > self.pct_max:
            raise QueryError(
                f"empty query range [{self.pct_min}, {self.pct_max}]"
            )

    @staticmethod
    def at_least(bin_index: int, pct_min: float) -> "RangeQuery":
        """The paper's "at least X%" form."""
        return RangeQuery(bin_index, pct_min, 1.0)

    @staticmethod
    def at_most(bin_index: int, pct_max: float) -> "RangeQuery":
        """The complementary "at most X%" form."""
        return RangeQuery(bin_index, 0.0, pct_max)

    def matches_histogram(self, histogram: ColorHistogram) -> bool:
        """Exact check against a concrete histogram."""
        return histogram.satisfies_range(self.bin_index, self.pct_min, self.pct_max)

    def __repr__(self) -> str:
        return (
            f"RangeQuery(bin={self.bin_index}, "
            f"[{self.pct_min:.3f}, {self.pct_max:.3f}])"
        )


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A conjunction of range constraints ("at least 20% red AND at most
    10% blue").

    An image satisfies the query when it satisfies *every* constraint.
    For edited images the conservative semantics compose soundly: if the
    true histogram satisfies all constraints, then each constraint's
    BOUNDS interval overlaps its range, so intersecting the per-constraint
    conservative result sets never produces a false negative.
    """

    constraints: tuple

    def __post_init__(self) -> None:
        constraints = tuple(self.constraints)
        if not constraints:
            raise QueryError("conjunctive queries need at least one constraint")
        for constraint in constraints:
            if not isinstance(constraint, RangeQuery):
                raise QueryError(f"not a range constraint: {constraint!r}")
        object.__setattr__(self, "constraints", constraints)

    def matches_histogram(self, histogram: ColorHistogram) -> bool:
        """Exact check: every constraint must hold."""
        return all(c.matches_histogram(histogram) for c in self.constraints)

    def __len__(self) -> int:
        return len(self.constraints)

    def __iter__(self):
        return iter(self.constraints)


@dataclass
class QueryStats:
    """Work counters for one query execution.

    Wall-clock time depends on the host; these counters are the
    machine-independent work metric the reproduction reports alongside
    timings (rule applications are what BWM saves).
    """

    histograms_checked: int = 0
    bounds_computed: int = 0
    rules_applied: int = 0
    clusters_short_circuited: int = 0
    edited_accepted_without_rules: int = 0

    def merge(self, other: "QueryStats") -> "QueryStats":
        """Accumulate counters from another execution (for averaging)."""
        self.histograms_checked += other.histograms_checked
        self.bounds_computed += other.bounds_computed
        self.rules_applied += other.rules_applied
        self.clusters_short_circuited += other.clusters_short_circuited
        self.edited_accepted_without_rules += other.edited_accepted_without_rules
        return self


@dataclass(frozen=True)
class QueryResult:
    """Result set plus work counters for one query execution."""

    matches: FrozenSet[str]
    stats: QueryStats = field(default_factory=QueryStats)

    def sorted_ids(self) -> Iterable[str]:
        """Matches in deterministic (lexicographic) order."""
        return sorted(self.matches)

    def __len__(self) -> int:
        return len(self.matches)

    def __contains__(self, image_id: str) -> bool:
        return image_id in self.matches


def total_stats(results: Iterable[QueryResult]) -> QueryStats:
    """The work behind ``results``, counting each stats object once.

    Batch processors hand every result of one pass the same
    :class:`QueryStats`; summing per result would count that pass once
    per query.
    """
    total = QueryStats()
    for stats in {id(result.stats): result.stats for result in results}.values():
        total.merge(stats)
    return total


class CatalogView(Protocol):
    """Read access the query processors need from the MMDBMS catalog."""

    def binary_ids(self) -> Iterable[str]:
        """Ids of images stored in the conventional binary format."""
        ...

    def edited_ids(self) -> Iterable[str]:
        """Ids of images stored as edit sequences."""
        ...

    def histogram_of(self, image_id: str) -> ColorHistogram:
        """Exact histogram of a binary image."""
        ...

    def sequence_of(self, image_id: str) -> EditSequence:
        """Edit sequence of an edited image."""
        ...
