"""Stage decomposition of a lineage graph.

A *stage* is a maximal narrow-dependency-connected subgraph, exactly as
in Spark, with one extension from the paper: :class:`TransferDependency`
is also a stage boundary.  Three stage kinds result:

* ``SHUFFLE_MAP`` — the stage's root RDD feeds a shuffle; tasks end with
  a sharded shuffle write.
* ``TRANSFER_PRODUCER`` — the root feeds a ``transfer_to`` boundary;
  tasks end by staging the whole partition at the producing host, ready
  for a receiver task to pull.
* ``RESULT`` — the final stage; tasks apply the job's action.

A stage whose in-stage chain contains a
:class:`~repro.rdd.transferred.TransferredRDD` is a *receiver stage*: its
tasks prefer the aggregator datacenter and are unlocked per-partition as
producer tasks finish (no barrier), which is what pipelines WAN pushes
with map execution.
"""

from __future__ import annotations

import enum
import itertools
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.errors import LineageError
from repro.rdd.dependencies import (
    NarrowDependency,
    RangeDependency,
    ShuffleDependency,
    TransferDependency,
)
from repro.rdd.rdd import RDD
from repro.rdd.transferred import TransferredRDD

_stage_ids = itertools.count()


class StageKind(enum.Enum):
    SHUFFLE_MAP = "shuffle_map"
    TRANSFER_PRODUCER = "transfer_producer"
    RESULT = "result"


BoundaryDep = Union[ShuffleDependency, TransferDependency]


class Stage:
    """One schedulable stage of a job."""

    def __init__(
        self,
        rdd: RDD,
        kind: StageKind,
        outgoing_dep: Optional[BoundaryDep],
    ) -> None:
        self.stage_id = next(_stage_ids)
        self.rdd = rdd
        self.kind = kind
        # The boundary dependency this stage's output feeds (None for RESULT).
        self.outgoing_dep = outgoing_dep
        # Parent stages, discovered while walking the in-stage subgraph.
        self.parents: List[Stage] = []
        # Shuffle dependencies whose output this stage's tasks read.
        self.boundary_shuffle_deps: List[ShuffleDependency] = []
        # TransferredRDDs inside this stage (receiver semantics), paired
        # with the producer stage feeding each.
        self.transfer_inputs: List[Tuple[TransferredRDD, Stage]] = []
        # True once pre-combine already happened before the transfer, so
        # the shuffle write must merge combiners rather than values.
        self.combine_done = False
        # Owning tenant of the job this stage belongs to (None for
        # single-job runs); stamped by the DAGScheduler so every flow
        # the stage's tasks issue can be attributed and weighted.
        self.tenant: Optional[str] = None
        # Ordinal of that job among the jobs its context started, also
        # stamped by the DAGScheduler: with ``stage_id`` and a partition
        # it names the task's failure and straggler draws.
        self.job = 0

    # ------------------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        return self.rdd.num_partitions

    @property
    def is_receiver_stage(self) -> bool:
        return bool(self.transfer_inputs)

    @property
    def reads_shuffle(self) -> bool:
        return bool(self.boundary_shuffle_deps)

    @property
    def name(self) -> str:
        return f"stage{self.stage_id}:{self.kind.value}:{self.rdd.name}"

    def required_transfers(self, partition: int) -> List[Tuple[Stage, int]]:
        """(producer stage, producer partition) pairs gating this task.

        Walks the in-stage narrow chain depth first, dependencies in
        order, translating partition indices so union offsets are
        honoured.
        """
        required: List[Tuple[Stage, int]] = []
        if not self.transfer_inputs:
            return required
        producer_by_transfer = {
            transferred.transfer_dependency.transfer_id: producer
            for transferred, producer in self.transfer_inputs
        }
        stack = [(dep, partition) for dep in reversed(self.rdd.dependencies)]
        while stack:
            dep, index = stack.pop()
            if isinstance(dep, TransferDependency):
                producer = producer_by_transfer.get(dep.transfer_id)
                if producer is not None:
                    required.append((producer, index))
            elif isinstance(dep, NarrowDependency):
                if isinstance(dep, RangeDependency) and not dep.covers(index):
                    continue  # a union branch not owning this partition
                index = dep.parent_partition(index)
                stack.extend(
                    (parent_dep, index)
                    for parent_dep in reversed(dep.parent.dependencies)
                )
        return required

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.name} partitions={self.num_partitions}>"


def build_stages(final_rdd: RDD) -> Tuple[Stage, List[Stage]]:
    """Build the stage DAG for a job ending at ``final_rdd``.

    Returns ``(result_stage, all_stages)`` with ``all_stages`` in a
    parents-before-children topological order.  Stages for the same
    shuffle/transfer dependency are shared (important for cogroup and for
    diamond lineages).
    """
    builder = _StageBuilder()
    result_stage = builder.new_stage(final_rdd, StageKind.RESULT, None)
    ordered = _topological(builder.stages)
    # Renumber stages in topological order so ids (and the names derived
    # from them) depend only on this job's lineage, not on how many
    # stages earlier jobs in the process happened to build — experiment
    # results must be identical whether cells run sequentially or fanned
    # out across worker processes.
    for index, stage in enumerate(ordered):
        stage.stage_id = index
    return result_stage, ordered


class _StageBuilder:
    """One job's stage construction: stages shared per boundary
    dependency, collected children-after-parents as they complete."""

    __slots__ = ("by_shuffle", "by_transfer", "stages")

    def __init__(self) -> None:
        self.by_shuffle: Dict[int, Stage] = {}
        self.by_transfer: Dict[int, Stage] = {}
        self.stages: List[Stage] = []

    def stage_for_boundary(self, dep: BoundaryDep) -> Stage:
        if isinstance(dep, ShuffleDependency):
            existing = self.by_shuffle.get(dep.shuffle_id)
            if existing is None:
                existing = self.new_stage(dep.parent, StageKind.SHUFFLE_MAP, dep)
                self.by_shuffle[dep.shuffle_id] = existing
            return existing
        existing = self.by_transfer.get(dep.transfer_id)
        if existing is None:
            existing = self.new_stage(
                dep.parent, StageKind.TRANSFER_PRODUCER, dep
            )
            self.by_transfer[dep.transfer_id] = existing
        return existing

    def new_stage(
        self, rdd: RDD, kind: StageKind, outgoing: Optional[BoundaryDep]
    ) -> Stage:
        stage = Stage(rdd, kind, outgoing)
        self._populate(stage)
        # Pre-combined transfer feeding this stage's shuffle write: when
        # the stage is exactly ``TransferredRDD -> shuffle`` and the
        # transfer carried a ``pre_combine``, map-side combine already
        # happened at the producer (paper §IV-C-3) and the shuffle write
        # must merge combiners instead of raw values.
        if (
            kind is StageKind.SHUFFLE_MAP
            and isinstance(rdd, TransferredRDD)
            and rdd.transfer_dependency.pre_combine is not None
        ):
            stage.combine_done = True
        self.stages.append(stage)
        return stage

    def _populate(self, stage: Stage) -> None:
        """Walk the in-stage narrow subgraph depth first, dependencies in
        order, wiring boundaries as they are reached.  The stack holds
        RDDs still to visit and shuffle dependencies still to wire."""
        parents = stage.parents
        visited: Set[int] = set()
        stack: list = [stage.rdd]
        while stack:
            item = stack.pop()
            if isinstance(item, ShuffleDependency):
                stage.boundary_shuffle_deps.append(item)
                parent = self.stage_for_boundary(item)
                if parent not in parents:
                    parents.append(parent)
                continue
            if isinstance(item, TransferDependency):
                # Reached only via a TransferredRDD, handled below.
                raise LineageError("TransferDependency outside a TransferredRDD")
            if item.rdd_id in visited:
                continue
            visited.add(item.rdd_id)
            if isinstance(item, TransferredRDD):
                producer = self.stage_for_boundary(item.transfer_dependency)
                stage.transfer_inputs.append((item, producer))
                if producer not in parents:
                    parents.append(producer)
                continue  # boundary: do not walk past the transfer
            for dep in reversed(item.dependencies):
                stack.append(
                    dep
                    if isinstance(dep, (ShuffleDependency, TransferDependency))
                    else dep.parent
                )


def _topological(stages: List[Stage]) -> List[Stage]:
    """Parents-before-children order (depth first, parents in order);
    detects accidental cycles."""
    order: List[Stage] = []
    state: Dict[int, int] = {}  # 0 = visiting, 1 = done
    for root in stages:
        if root.stage_id in state:
            continue
        state[root.stage_id] = 0
        stack = [(root, iter(root.parents))]
        while stack:
            stage, parents = stack[-1]
            for parent in parents:
                mark = state.get(parent.stage_id)
                if mark == 1:
                    continue
                if mark == 0:
                    raise LineageError("cycle detected in stage graph")
                state[parent.stage_id] = 0
                stack.append((parent, iter(parent.parents)))
                break
            else:
                stack.pop()
                state[stage.stage_id] = 1
                order.append(stage)
    return order
