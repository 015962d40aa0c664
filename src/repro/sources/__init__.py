"""Source wrappers: the mediator's view of heterogeneous sources.

The paper's architecture (Fig. 1) has every source wrapped to offer an
XML view of itself.  Three wrappers are provided:

* :class:`~repro.sources.relational.RelationalWrapper` — exports each
  registered table as a document whose children are "tuple objects" with
  key-derived oids (Fig. 2), supports lazy cursor-driven child iteration,
  and executes pushed-down SQL for the ``rQ`` operator.  The export
  itself is :class:`~repro.sources.relational.TableSource`, which both
  SQL back ends share, and its :func:`~repro.sources.relational.assemble`
  builds the tuple objects of document scans and ``rQ`` leaves alike;
* :class:`~repro.sources.xmlfile.XmlFileSource` — an XML file/text
  source; per the paper's footnote, sources with no navigation support
  are fetched in one step;
* :class:`~repro.sources.mediator_source.MediatorSource` — another MIX
  mediator acting as a source, whose QDOM navigation is passed through.

Two federation-oriented wrappers extend the set:

* :class:`~repro.sources.sqlite.SqliteWrapper` — the same export over
  a stdlib ``sqlite3`` database;
* :class:`~repro.sources.shard.ShardedSource` — one logical table
  horizontally partitioned across k member wrappers, scattered to in
  parallel and gathered through a block-aware merge (see
  :mod:`repro.sources.shard`).

Every wrapper speaks one protocol, :class:`~repro.sources.base.Source`,
whose optional capabilities have do-nothing defaults; decorating
wrappers (the resilience proxies) build on
:class:`~repro.sources.base.SourceProxy`, which forwards it.  The
:class:`~repro.sources.catalog.SourceCatalog` maps document ids
(``root1``) and server names to wrappers and is what the engines consult.
"""

from repro.sources.base import Source, SourceProxy
from repro.sources.catalog import SourceCatalog
from repro.sources.mediator_source import MediatorSource
from repro.sources.relational import RelationalWrapper
from repro.sources.shard import Partition, ShardedSource, hash_shard
from repro.sources.sqlite import SqliteWrapper
from repro.sources.xmlfile import XmlFileSource

__all__ = [
    "MediatorSource",
    "Partition",
    "RelationalWrapper",
    "ShardedSource",
    "Source",
    "SourceCatalog",
    "SourceProxy",
    "SqliteWrapper",
    "XmlFileSource",
    "hash_shard",
]
