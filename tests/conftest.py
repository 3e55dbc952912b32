"""Shared fixtures.

Heavy artifacts (traffic datasets, trained pipelines) are session-scoped
so the whole suite trains once per size.  Sizes are chosen for test
speed; the benchmarks exercise paper-scale data.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core.pipeline import BrowserPolygraph
from repro.traffic.generator import TrafficConfig, TrafficSimulator
from tests.oracle import build_world


@pytest.fixture(scope="session")
def small_dataset():
    """A 15k-session training window with the default fraud mix."""
    return TrafficSimulator(TrafficConfig(seed=7).scaled(15_000)).generate()


@pytest.fixture(scope="session")
def trained(small_dataset):
    """Browser Polygraph fitted on :func:`small_dataset`."""
    return BrowserPolygraph().fit(small_dataset)


@pytest.fixture()
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def relabelled_model(trained):
    """:func:`trained`'s model under other cluster ids.

    Centroid ``c`` becomes centroid ``(c + 1) % k`` and the UA table
    follows it, so every verdict (flag, risk) is unchanged while every
    predicted and expected cluster moves — what a retrain that lands on
    the same partition looks like.
    """
    model = copy.deepcopy(trained.cluster_model)
    k = model.config.n_clusters
    model.kmeans.cluster_centers_ = np.roll(model.kmeans.cluster_centers_, 1, axis=0)
    model.ua_to_cluster = {
        ua: (cluster + 1) % k for ua, cluster in model.ua_to_cluster.items()
    }
    model._rebuild_table()
    return model


@pytest.fixture(scope="session")
def oracle_world(trained, small_dataset, tmp_path_factory):
    """What every parity trace runs in (:mod:`tests.oracle`)."""
    return build_world(trained, small_dataset, tmp_path_factory.mktemp("oracle"))
