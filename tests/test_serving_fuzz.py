"""Fuzzing the ``repro serve`` HTTP contract.

Hypothesis generates request bodies for ``POST /lca``, ``/treefix`` and
``/cuts`` — valid queries, wrong types, missing keys, out-of-range ids,
huge lists and bytes that are not JSON at all — and sends them to one
in-process server. Every reply must be a 200 whose answer equals the
sequential oracle (``offline_tarjan_lca`` / ``bottom_up_treefix``) or a
typed 4xx carrying an ``error``; a 500 means some input escaped
validation. After the run the server must still report healthy and
answer a valid query correctly.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.plans import make_tree
from repro.serving import QueryService, ServingServer
from repro.spatial import SpatialTree
from repro.trees import bottom_up_treefix, offline_tarjan_lca

N = 64
SEED = 9


@pytest.fixture(scope="module")
def tree():
    return make_tree("random", N, SEED)


@pytest.fixture(scope="module")
def server(tree):
    st_ = SpatialTree.build(tree, curve="hilbert", engine="batched")
    svc = QueryService(st_, window_s=0.002, max_batch=4096, max_queue=256,
                       seed=SEED).start()
    srv = ServingServer(svc, port=0).start()
    yield srv
    srv.shutdown()


def post_raw(url: str, route: str, body: bytes) -> tuple[int, dict]:
    req = urllib.request.Request(url + route, data=body, method="POST")
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


# --------------------------------------------------------------------------- #
# oracles
# --------------------------------------------------------------------------- #


def oracle_lca(tree, payload):
    # the service reads a bare id as a one-element list
    us, vs = np.atleast_1d(payload["us"]), np.atleast_1d(payload["vs"])
    pairs = np.stack([us, vs], axis=1)
    return offline_tarjan_lca(tree, pairs).tolist()


def oracle_treefix(tree, payload):
    values = np.asarray(payload["values"])
    if values.dtype == bool:
        values = values.astype(np.int64)  # the service sums bools as integers
    return bottom_up_treefix(tree, values).tolist()


def oracle_cuts(tree, payload):
    """1-respecting cuts from the two sequential oracles: charge each extra
    edge to its endpoints and -2 to their LCA, then sum over subtrees."""
    edges = np.asarray(payload["extra_edges"], dtype=np.int64).reshape(-1, 2)
    charges = np.zeros(tree.n, dtype=np.int64)
    if len(edges):
        np.add.at(charges, edges[:, 0], 1)
        np.add.at(charges, edges[:, 1], 1)
        np.add.at(charges, offline_tarjan_lca(tree, edges), -2)
    cut = bottom_up_treefix(tree, charges) + (tree.parents >= 0)
    cut[tree.root] = 0
    return cut.tolist()


def answer_matches(tree, route, payload, body) -> bool:
    if route == "/lca":
        return body["lca"] == oracle_lca(tree, payload)
    if route == "/treefix":
        return body["sums"] == oracle_treefix(tree, payload)
    return body["cut"] == oracle_cuts(tree, payload)


# --------------------------------------------------------------------------- #
# request bodies
# --------------------------------------------------------------------------- #

json_leaf = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
)
json_any = st.recursive(
    json_leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
    ),
    max_leaves=10,
)
vertex = st.integers(0, N - 1)
near_vertex = st.integers(-3, N + 3)  # straddles both ends of the id range
# sums of halves stay exact in float64, so float treefix answers are exact
exact_number = st.one_of(
    st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6).map(lambda k: k / 2)
)


def _pairs(k: int, ids=vertex):
    return st.fixed_dictionaries({
        "us": st.lists(ids, min_size=k, max_size=k),
        "vs": st.lists(ids, min_size=k, max_size=k),
    })


def _huge(k: int, key: str):
    """A long list without making hypothesis generate every element."""
    ids = [(7 * i + 3) % N for i in range(k)]
    if key == "us":
        return {"us": ids, "vs": ids[::-1]}
    if key == "values":
        return {"values": ids}
    return {"extra_edges": [[a, b] for a, b in zip(ids, ids[1:])]}


# (route, payload, must_succeed): must_succeed marks well-formed queries,
# which have to come back 200; everything else may be 200 or a typed 4xx
valid_cases = st.one_of(
    st.integers(0, 30).flatmap(_pairs).map(lambda p: ("/lca", p, True)),
    st.lists(exact_number, min_size=N, max_size=N)
    .map(lambda v: ("/treefix", {"values": v}, True)),
    st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]).map(list),
             max_size=20)
    .map(lambda e: ("/cuts", {"extra_edges": e}, True)),  # self loops are a 400
    st.sampled_from([
        ("/lca", _huge(20_000, "us"), True),
        ("/cuts", _huge(5_000, "extra_edges"), True),
    ]),
)
invalid_cases = st.one_of(
    st.integers(0, 12).flatmap(lambda k: _pairs(k, near_vertex)),
    st.fixed_dictionaries({"us": st.lists(vertex), "vs": st.lists(vertex)}),
    st.fixed_dictionaries({"us": json_any, "vs": json_any}),
    st.dictionaries(st.sampled_from(["us", "vs", "values", "extra_edges", "x"]), json_any),
).map(lambda p: ("/lca", p, False)) | st.one_of(
    st.lists(json_leaf, min_size=N, max_size=N).map(lambda v: {"values": v}),
    st.lists(st.integers(-(2**64), 2**64), min_size=N, max_size=N)
    .map(lambda v: {"values": v}),
    st.fixed_dictionaries({"values": json_any}),
    st.just(_huge(100_000, "values")),
).map(lambda p: ("/treefix", p, False)) | st.one_of(
    st.lists(st.lists(near_vertex, max_size=3), max_size=8)
    .map(lambda e: {"extra_edges": e}),
    st.fixed_dictionaries({"extra_edges": json_any}),
    st.dictionaries(st.text(max_size=3), json_any, max_size=2),
).map(lambda p: ("/cuts", p, False))

raw_bodies = st.one_of(
    st.binary(min_size=1, max_size=64),
    st.sampled_from([
        b'{"us": [1,',
        b"[1, 2]",
        b'"us"',
        b"\xff\xfe{",
        b"[" * 100_000,
        b'{"us": [1], "vs": [2]} trailing',
    ]),
)


# --------------------------------------------------------------------------- #
# the contract
# --------------------------------------------------------------------------- #

FUZZ_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def test_http_contract_under_fuzzing(server, tree):
    url = server.url

    @FUZZ_SETTINGS
    @given(case=valid_cases | invalid_cases)
    def json_bodies(case):
        route, payload, must_succeed = case
        status, body = post_raw(url, route, json.dumps(payload).encode())
        if status == 200:
            assert answer_matches(tree, route, payload, body), (route, payload)
        else:
            assert not must_succeed, (route, payload, status, body)
            assert 400 <= status < 500 and "error" in body, (status, body)

    @FUZZ_SETTINGS
    @given(route=st.sampled_from(["/lca", "/treefix", "/cuts"]), body=raw_bodies)
    def raw(route, body):
        status, reply = post_raw(url, route, body)
        assert status == 400 and "error" in reply, (body[:40], status, reply)

    json_bodies()
    raw()

    with urllib.request.urlopen(url + "/health", timeout=10) as resp:
        assert resp.status == 200
    status, body = post_raw(url, "/lca", b'{"us": [0, 5, 63], "vs": [63, 17, 2]}')
    assert status == 200
    assert body["lca"] == oracle_lca(tree, {"us": [0, 5, 63], "vs": [63, 17, 2]})
