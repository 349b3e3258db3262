"""HDFS-like distributed storage model.

Provides exactly what the experiments need from HDFS: a namespace of files
split into blocks, block placement across hosts (and therefore
datacenters), replica-aware locality queries, and a simple disk-throughput
model used to charge read/write time.

The namenode is pure metadata; actual record payloads live in
:class:`~repro.storage.datanode.DataNode` objects so that RDD tasks can
read genuine data while the simulation charges genuine time.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.storage.blob": ("BlobObject", "BlobStore"),
    "repro.storage.block": ("Block", "BlockId"),
    "repro.storage.datanode": ("DataNode",),
    "repro.storage.namenode": ("NameNode",),
    "repro.storage.disk": ("DiskModel",),
    "repro.storage.hdfs": ("DistributedFileSystem",),
})
