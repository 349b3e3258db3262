"""Plain-text reporting: fixed-width tables and lineage dumps.

§IV-E of the paper notes that expressing transfers as computation lets
"inter-datacenter data transfers ... be shown from the Spark WebUI".
This module is that idea for a terminal: a lineage dump shows transfers
as first-class stage boundaries beside the shuffles.
"""

from __future__ import annotations

from typing import List, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    align_right: bool = True,
) -> str:
    """A minimal fixed-width table (no external dependencies)."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [
        max(len(headers[column]), *(len(row[column]) for row in cells))
        if cells else len(headers[column])
        for column in range(len(headers))
    ]

    def render_row(row: Sequence[str]) -> str:
        parts = []
        for column, value in enumerate(row):
            if align_right and column > 0:
                parts.append(value.rjust(widths[column]))
            else:
                parts.append(value.ljust(widths[column]))
        return "  ".join(parts).rstrip()

    lines = [render_row(list(headers))]
    lines.append("  ".join("-" * width for width in widths))
    lines.extend(render_row(row) for row in cells)
    return "\n".join(lines)


def lineage_dump(rdd) -> str:
    """A textual DAG of an RDD's lineage, stage boundaries annotated."""
    from repro.rdd.dependencies import (
        ShuffleDependency,
        TransferDependency,
    )

    lines: List[str] = []
    for node in rdd.lineage():
        edges: List[str] = []
        for dep in node.dependencies:
            if isinstance(dep, ShuffleDependency):
                edges.append(
                    f"shuffle#{dep.shuffle_id} <- {dep.parent.name}"
                    f"({dep.parent.rdd_id})"
                )
            elif isinstance(dep, TransferDependency):
                destination = dep.destination_datacenter or "auto"
                edges.append(
                    f"transfer#{dep.transfer_id}[{destination}] <- "
                    f"{dep.parent.name}({dep.parent.rdd_id})"
                )
            else:
                edges.append(f"narrow <- {dep.parent.name}({dep.parent.rdd_id})")
        marker = " [cached]" if node.cached else ""
        suffix = f" {{{'; '.join(edges)}}}" if edges else " {source}"
        lines.append(
            f"({node.rdd_id}) {node.name}"
            f"[{node.num_partitions}]{marker}{suffix}"
        )
    return "\n".join(lines)
