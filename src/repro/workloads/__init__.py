"""HiBench-style workloads (Table I of the paper).

Five workloads of increasing complexity: WordCount (one combined
shuffle), Sort (one full-data shuffle), TeraSort (full-data shuffle with
a bloating map — the paper's §V-B anomaly), PageRank (iterative joins
over cached links), and NaiveBayes (two chained shuffles).
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.workloads.base": ("Workload", "merge_counts", "add_weighted"),
    "repro.workloads.wordcount": ("WordCount",),
    "repro.workloads.sort": ("Sort",),
    "repro.workloads.terasort": ("TeraSort",),
    "repro.workloads.pagerank": ("PageRank",),
    "repro.workloads.naive_bayes": ("NaiveBayes",),
    "repro.workloads.text_gen": ("TextGenerator",),
    "repro.workloads.specs": (
        "WorkloadSpec", "spec_by_name", "ALL_SPECS", "WORDCOUNT", "SORT", "TERASORT",
        "TERASORT_BLOAT_FACTOR", "PAGERANK", "PAGERANK_ITERATIONS", "NAIVE_BAYES",
    ),
    "repro.workloads.catalog": ("all_workloads", "workload_by_name"),
})
