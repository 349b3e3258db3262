"""HDFS-like distributed storage model.

Provides exactly what the experiments need from HDFS: a namespace of files
split into blocks, block placement across hosts (and therefore
datacenters), replica-aware locality queries, and a simple disk-throughput
model used to charge read/write time.

Each block is one :class:`~repro.storage.hdfs.Block` record holding its
records, logical size and replica hosts, so RDD tasks read genuine data
while the simulation charges genuine time.  The object store that the
blob shuffle backend writes to lives beside it in ``blob``.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.storage.blob": ("BlobObject", "BlobStore"),
    "repro.storage.disk": ("DiskModel",),
    "repro.storage.hdfs": ("Block", "BlockId", "DistributedFileSystem"),
})
