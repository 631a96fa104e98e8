"""Storage substrate: page-based heaps, B-trees, stored/temp tables.

The paper's optimizer runs against Starburst's storage managers
([LIND 87]); this package is the synthetic equivalent.  It provides:

* :class:`~repro.storage.heap.HeapFile` — a physically-sequential,
  page-structured heap;
* :class:`~repro.storage.btree.BTree` — a B+-tree with a bounded scan and
  a batch probe (access methods and B-tree-organized tables);
* :class:`~repro.storage.table.TableData` — a stored table (base or temp):
  schema + heap + indexes;
* :class:`~repro.storage.table.Database` — the binding of a catalog to
  stored data, shared by the executor and the workload loaders.

All structures charge page touches to a shared
:class:`~repro.storage.accounting.IOAccounting`, which is how *actual*
resource usage is measured for experiment E8 (estimated vs. actual cost).
"""

from repro.storage.accounting import IOAccounting
from repro.storage.heap import HeapFile, RID
from repro.storage.btree import BTree
from repro.storage.table import Database, TableData, tid_column

__all__ = [
    "BTree",
    "Database",
    "HeapFile",
    "IOAccounting",
    "RID",
    "TableData",
    "tid_column",
]
