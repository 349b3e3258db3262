"""The five Table I workloads, by position and by name."""

from __future__ import annotations

from typing import List

from repro.workloads.base import Workload
from repro.workloads.naive_bayes import NaiveBayes
from repro.workloads.pagerank import PageRank
from repro.workloads.sort import Sort
from repro.workloads.terasort import TeraSort
from repro.workloads.wordcount import WordCount


def all_workloads() -> List[Workload]:
    """Fresh instances of the five Table I workloads, paper order."""
    return [WordCount(), Sort(), TeraSort(), PageRank(), NaiveBayes()]


def workload_by_name(name: str) -> Workload:
    for workload in all_workloads():
        if workload.name.lower() == name.lower():
            return workload
    raise KeyError(f"unknown workload {name!r}")
