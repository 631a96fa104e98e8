"""Cost vectors and the cost model.

``COST`` in the paper's Figure 2 is the "estimated cost (total resources,
a linear combination of I/O, CPU, and communications costs [LOHM 85])".
We keep the components separate in :class:`Cost` and reduce them to a
scalar with :class:`CostWeights`, so benchmarks can report the breakdown
and experiments can re-weight (e.g. make shipping free to model a fast
interconnect).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.catalog.catalog import Catalog
from repro.query.expressions import ColumnRef


@dataclass(frozen=True, slots=True)
class Cost:
    """Resource components of a plan's estimated (or actual) cost."""

    io: float = 0.0
    cpu: float = 0.0
    msgs: float = 0.0
    bytes_sent: float = 0.0

    def __add__(self, other: "Cost") -> "Cost":
        return Cost(
            self.io + other.io,
            self.cpu + other.cpu,
            self.msgs + other.msgs,
            self.bytes_sent + other.bytes_sent,
        )

    def scaled(self, factor: float) -> "Cost":
        return Cost(
            self.io * factor,
            self.cpu * factor,
            self.msgs * factor,
            self.bytes_sent * factor,
        )

    def __str__(self) -> str:
        return (
            f"io={self.io:.1f} cpu={self.cpu:.1f} "
            f"msgs={self.msgs:.1f} bytes={self.bytes_sent:.0f}"
        )


# A shared zero-cost constant (not a dataclass field: plain class attr).
Cost.ZERO = Cost()  # type: ignore[attr-defined]


@dataclass(frozen=True, slots=True)
class CostWeights:
    """Linear-combination weights reducing a :class:`Cost` to a scalar.

    Defaults approximate the R* weighting: a page I/O is the unit, CPU
    instructions-per-tuple are cheap, and a datagram costs several page
    I/Os worth of time [LOHM 85, MACK 86].
    """

    w_io: float = 1.0
    w_cpu: float = 0.002
    w_msg: float = 2.0
    w_byte: float = 0.0002

    def total(self, cost: Cost) -> float:
        return self.combine(cost.io, cost.cpu, cost.msgs, cost.bytes_sent)

    def combine(self, io: float, cpu: float, msgs: float, bytes_sent: float) -> float:
        """The total of a cost given as components (a join candidate has
        no ``Cost`` object yet)."""
        return (
            self.w_io * io
            + self.w_cpu * cpu
            + self.w_msg * msgs
            + self.w_byte * bytes_sent
        )


#: Estimated byte width of a TID pseudo-column in a stream.
TID_WIDTH = 8

#: Bytes per network message (datagram) for SHIP cost estimation.
MESSAGE_SIZE = 4096


def ship_messages(nbytes: float, message_size: int = MESSAGE_SIZE) -> int:
    """Messages needed to ship ``nbytes`` in one transfer: one datagram
    per ``message_size`` bytes plus one control message.

    This is the single source of truth for message accounting — both the
    cost model's ``msgs`` estimate and :class:`NetworkSim`'s actuals use
    it, so experiment E8's estimate-vs-actual comparison measures
    cardinality/width estimation error only, never formula drift.
    """
    if nbytes <= 0:
        return 1
    return int(math.ceil(nbytes / message_size)) + 1

#: Pages of sort memory: inputs smaller than this sort without spill I/O.
SORT_MEMORY_PAGES = 32

#: Pages of hash memory: inners smaller than this build without spill I/O.
HASH_MEMORY_PAGES = 32


class CostModel:
    """Estimation helpers shared by all property functions.

    The model owns the weights, the page size (from the catalog), and the
    row-width estimation used to turn cardinalities into pages and bytes.
    One model serves one optimization, so the width of each distinct COLS
    set (a relational property: every alternative of a class shares it)
    is summed once and remembered here.
    """

    def __init__(self, catalog: Catalog, weights: CostWeights | None = None):
        self.catalog = catalog
        self.weights = weights if weights is not None else CostWeights()
        self._row_widths: dict[frozenset | tuple, int] = {}

    def total(self, cost: Cost) -> float:
        return self.weights.combine(cost.io, cost.cpu, cost.msgs, cost.bytes_sent)

    # -- width / page arithmetic ----------------------------------------------

    def column_width(self, column: ColumnRef) -> int:
        if column.column.startswith("#"):
            return TID_WIDTH
        if self.catalog.has_table(column.table):
            return self.catalog.table(column.table).column(column.column).byte_width
        return TID_WIDTH  # temp-table columns of unknown base: conservative

    def row_width(self, columns: frozenset[ColumnRef] | tuple[ColumnRef, ...]) -> int:
        width = self._row_widths.get(columns)
        if width is None:
            width = max(1, sum(self.column_width(c) for c in columns))
            self._row_widths[columns] = width
        return width

    def stream_bytes(self, card: float, columns: frozenset[ColumnRef]) -> float:
        return card * self.row_width(columns)

    def stream_pages(self, card: float, columns: frozenset[ColumnRef]) -> float:
        return max(1.0, self.stream_bytes(card, columns) / self.catalog.page_size)

    def table_pages(self, table: str) -> float:
        return self.catalog.page_count(table)

    def table_card(self, table: str) -> float:
        return self.catalog.table_stats(table).card

    # -- building-block cost terms --------------------------------------------

    @staticmethod
    def sort_cpu(card: float) -> float:
        card = max(card, 1.0)
        return card * max(1.0, math.log2(card))

    @staticmethod
    def btree_height(card: float, fanout: float = 64.0) -> float:
        card = max(card, 1.0)
        return max(1.0, math.ceil(math.log(card, fanout)))

    def ship_cost(self, card: float, columns: frozenset[ColumnRef]) -> Cost:
        """Communication cost of shipping a stream between sites."""
        nbytes = self.stream_bytes(card, columns)
        msgs = ship_messages(nbytes)
        return Cost(msgs=float(msgs), bytes_sent=nbytes, cpu=card)
