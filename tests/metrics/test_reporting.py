"""Text reporting: tables and lineage dumps."""


from repro.metrics.reporting import format_table, lineage_dump
from tests.conftest import make_context


def test_format_table_alignment_and_separator():
    table = format_table(
        ["name", "value"], [["a", 1], ["long-name", 22]]
    )
    lines = table.splitlines()
    assert lines[0].startswith("name")
    assert set(lines[1]) <= {"-", " "}
    assert len(lines) == 4
    # All rows padded to consistent widths.
    assert lines[2].split()[0] == "a"


def test_format_table_empty_rows():
    table = format_table(["a", "b"], [])
    assert "a" in table


def test_lineage_dump_marks_boundaries_and_cache():
    context = make_context(push=True)
    context.write_input_file("/in", [[("a", 1)]])
    rdd = (
        context.text_file("/in")
        .map(lambda kv: kv)
        .cache()
        .transfer_to("dc-b")
        .reduce_by_key(lambda a, b: a + b)
    )
    dump = lineage_dump(rdd)
    assert "{source}" in dump
    assert "[cached]" in dump
    assert "transfer#" in dump
    assert "[dc-b]" in dump
    assert "shuffle#" in dump
    context.shutdown()


def test_lineage_dump_auto_destination():
    context = make_context(push=True)
    context.write_input_file("/in", [[1]])
    dump = lineage_dump(context.text_file("/in").transfer_to())
    assert "[auto]" in dump
    context.shutdown()
