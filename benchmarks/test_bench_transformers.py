"""Benchmark: transformer-suite scheduling, cold and store-warm.

Not a paper figure: the paper evaluates CNNs only.  This tracks the new
workload class through the same cold/warm serving trajectory the
design-space scenario pins down — the ``transformers`` registry suite
(BERT-Base and ViT-B/16 prefill, GPT-2-style decode) on the paper's two
array geometries, scheduled through the batched backend and the
disk-persistent decision store.

Pinned conclusions:

* the batched backend agrees bit-exactly with the analytical reference on
  every transformer workload (schedules and totals);
* a store-warm rerun — a fresh backend whose decisions all come off disk,
  i.e. what a repeated CLI/CI invocation sees — re-derives nothing
  (``misses == 0``) and stays bit-identical.
"""

import multiprocessing

from bench_scenarios import schedule_transformer_suite, transformer_workloads

from repro.backends import AnalyticalBackend, BatchedCachedBackend, DecisionStore
from repro.core.config import ArrayFlexConfig


def _seed_store(directory: str) -> None:
    """Child process: schedule the suite into the store, then exit normally."""
    schedule_transformer_suite(BatchedCachedBackend(store=DecisionStore(directory)))


def test_transformer_suite_batched_matches_analytical(benchmark):
    reference = schedule_transformer_suite(AnalyticalBackend())
    batched = BatchedCachedBackend()
    assert schedule_transformer_suite(batched) == reference

    config = ArrayFlexConfig.paper_128x128()
    analytical = AnalyticalBackend()
    for workload in transformer_workloads():
        assert (
            batched.schedule_model(workload, config).layers
            == analytical.schedule_model(workload, config).layers
        )

    # Track the (memoised steady-state) batched path in the trajectory.
    benchmark(schedule_transformer_suite, batched)


def test_transformer_suite_warm_store_rerun(benchmark, tmp_path):
    """A fresh process with a seeded store re-derives nothing."""
    reference = schedule_transformer_suite(AnalyticalBackend())

    # Seeded by another process, so the rerun reads exactly what an
    # exiting process leaves on disk.
    seeder = multiprocessing.get_context("spawn").Process(
        target=_seed_store, args=(str(tmp_path),)
    )
    seeder.start()
    seeder.join(timeout=120)
    assert not seeder.is_alive() and seeder.exitcode == 0

    def warm_rerun():
        backend = BatchedCachedBackend(store=DecisionStore(tmp_path))
        return backend, schedule_transformer_suite(backend)

    probe, totals = warm_rerun()
    assert totals == reference  # bit-identical decisions off disk
    assert probe.cache_info()["misses"] == 0  # nothing re-derived

    # Track the warm serving path (what a rerun CLI/CI invocation costs).
    benchmark(lambda: warm_rerun()[1])
