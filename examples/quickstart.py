"""Quickstart: a geo-distributed word count with Push/Aggregate shuffle.

Builds a two-datacenter cluster, writes a small keyed dataset spread
over both datacenters, and runs ``reduce_by_key`` twice — once with
Spark's stock fetch-based shuffle and once with the paper's AggShuffle
(implicit ``transfer_to`` before every shuffle) — then compares job
completion time and cross-datacenter traffic.

Run:  python examples/quickstart.py
"""

from repro import ClusterContext, backend_config, two_datacenter_spec

WORDS = "the quick brown fox jumps over the lazy dog the fox".split()


def run(config, label):
    context = ClusterContext(two_datacenter_spec(), config)
    # Four input blocks, round-robined over every worker in both DCs.
    partitions = [
        [(word, 1) for word in WORDS],
        [(word, 1) for word in WORDS[::-1]],
        [(word, 1) for word in WORDS[::2]],
        [(word, 1) for word in WORDS[1::2]],
    ]
    context.write_input_file("/words", partitions)

    counts = (
        context.text_file("/words")
        .reduce_by_key(lambda a, b: a + b)
        .collect()
    )

    duration = context.metrics.job.duration
    cross_dc = context.traffic.cross_dc_megabytes
    context.shutdown()
    print(f"{label:<12} JCT = {duration:6.2f} s   "
          f"cross-DC = {cross_dc * 1000:7.1f} KB")
    return dict(counts)


def main():
    print("Word count on a 2-datacenter cluster")
    print("-" * 52)
    fetch_counts = run(backend_config("fetch", seed=7), "Spark")
    push_counts = run(backend_config("push_aggregate", seed=7), "AggShuffle")
    assert fetch_counts == push_counts, "both mechanisms must agree"
    print("-" * 52)
    top = sorted(push_counts.items(), key=lambda kv: -kv[1])[:3]
    print("top words:", ", ".join(f"{w}={c}" for w, c in top))


if __name__ == "__main__":
    main()
