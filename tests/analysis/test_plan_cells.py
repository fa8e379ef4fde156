"""Every cell of the experiment plan is a distinct simulated machine.

Closed form, no simulation: the plan's cells are listed with
``figure.cells``, and each study point is compared with its siblings on
what a run of it reads.
"""

import dataclasses

import pytest

from repro.analysis.figures import STUDIES, _variants
from repro.analysis.validate import CLAIMS, experiment_plan
from repro.config import (ObsConfig, PrefetcherConfig, SchedulerKind,
                          small_config)
from repro.workloads import Scale, build

#: Schedulers that read prefetch state; under any other, a ``none`` run
#: reads no :class:`PrefetcherConfig` field.
PREFETCH_AWARE = {SchedulerKind.PAS, SchedulerKind.PAS_LRR,
                  SchedulerKind.PAS_GTO}

#: A study point kept although it reads what a sibling reads: the claim
#: that names it grades that saturation.
SATURATION = {("tables", 8): "four_entries_suffice"}


def planned(**kwargs):
    return {key for _, figure, args in experiment_plan(**kwargs)
            if hasattr(figure, "cells")
            for key in figure.cells(**args).values()}


def normalised(key):
    """``key`` with the config fields its run does not read at their
    defaults."""
    cfg = dataclasses.replace(key.config, obs=ObsConfig())
    if key.prefetcher == "none" and cfg.scheduler not in PREFETCH_AWARE:
        cfg = dataclasses.replace(cfg, prefetch=PrefetcherConfig())
    return dataclasses.replace(key, config=cfg)


@pytest.mark.parametrize("full, cells", [(False, 417), (True, 545)],
                         ids=["small", "full-gate"])
def test_no_two_planned_cells_simulate_the_same_machine(full, cells):
    keys = planned(include_full_scale=full)
    assert len(keys) == cells
    assert len({normalised(key) for key in keys}) == cells


def reads(study, machine, kind, kernels):
    """What a run of one study point reads that a sibling may not."""
    pcfg = machine.prefetch
    if study == "window":       # CAP never looks past a CTA's last warp
        return min(pcfg.prefetch_window,
                   max(k.warps_per_cta for k in kernels) - 1)
    if study == "warps":
        return tuple(k.max_ctas_per_sm(machine) for k in kernels)
    if study == "tables":       # one entry per load PC at most
        sites = max(len(k.program.load_sites()) for k in kernels)
        return min(pcfg.percta_entries, sites), min(pcfg.dist_entries, sites)
    return machine, kind


@pytest.mark.parametrize("group, study", [
    (group, study) for group, (_, studies) in STUDIES.items()
    for study in studies])
def test_every_study_point_changes_what_the_run_reads(group, study):
    benchmarks, _ = STUDIES[group]
    kernels = [build(b, Scale.SMALL) for b in benchmarks]
    seen = {}
    for label, (machine, kind) in _variants(small_config())[study].items():
        value = reads(study, machine, kind, kernels)
        twins = [other for other, v in seen.items() if v == value]
        if (study, label) in SATURATION:
            assert twins, f"{study} {label} binds: drop its exemption"
        else:
            assert not twins, f"{study} {label} simulates {study} {twins}"
        seen[label] = value


def test_each_saturation_point_is_graded():
    names = {claim.name for claim in CLAIMS}
    assert set(SATURATION.values()) <= names
