"""Unit tests for the compiled indexed-instance layer itself."""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.core.assignment import Assignment
from repro.core.indexed import (
    IndexedAssignment,
    index_instance,
    resolve_engine,
    skew_bins,
)
from repro.core.instance import MMDInstance, unit_skew_instance
from repro.exceptions import ValidationError
from repro.instances.generators import random_mmd, random_smd


@pytest.fixture
def inst() -> MMDInstance:
    return random_mmd(8, 5, m=2, mc=2, seed=7)


class TestLowering:
    def test_id_tables_round_trip(self, inst):
        idx = index_instance(inst)
        assert idx.stream_ids == inst.stream_ids()
        assert idx.user_ids == inst.user_ids()
        for sid, k in idx.stream_index.items():
            assert idx.stream_ids[k] == sid
        assert idx.stream_ids_of([0, 1]) == inst.stream_ids()[:2]
        assert idx.user_ids_of(np.array([0])) == [inst.user_ids()[0]]

    def test_csr_shapes_and_alignment(self, inst):
        idx = index_instance(inst)
        nnz = sum(len(u.utilities) for u in inst.users)
        assert idx.nnz == nnz
        assert idx.u_w.shape == (nnz,)
        assert idx.u_loads.shape == (nnz, inst.mc)
        assert idx.stream_costs.shape == (inst.num_streams, inst.m)
        # User-major rows hold exactly the user's utilities, in dict order.
        for u_i, user in enumerate(inst.users):
            lo, hi = idx.u_indptr[u_i], idx.u_indptr[u_i + 1]
            sids = idx.stream_ids_of(idx.u_stream[lo:hi])
            assert sids == list(user.utilities)
            assert [float(w) for w in idx.u_w[lo:hi]] == [
                float(user.utilities[s]) for s in sids
            ]
        # Stream-major rows hold each stream's interested users, in
        # instance user order.
        for k, stream in enumerate(inst.streams):
            lo, hi = idx.s_indptr[k], idx.s_indptr[k + 1]
            uids = idx.user_ids_of(idx.s_user[lo:hi])
            assert uids == [u.user_id for u in inst.interested_users(stream.stream_id)]

    def test_lowering_is_cached(self, inst):
        assert index_instance(inst) is index_instance(inst)

    def test_cache_not_pickled(self, inst):
        index_instance(inst)
        clone = pickle.loads(pickle.dumps(inst))
        assert not hasattr(clone, "_indexed_cache")
        assert clone == inst

    def test_total_utilities_matches_instance(self, inst):
        idx = index_instance(inst)
        totals = idx.total_utilities()
        for k, sid in enumerate(idx.stream_ids):
            assert totals[k] == inst.total_utility(sid)


class TestEngineResolution:
    def test_default_is_indexed(self):
        assert resolve_engine() == "indexed"
        assert resolve_engine("dict") == "dict"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValidationError):
            resolve_engine("pandas")


class TestSkewBins:
    def test_unit_skew_pairs_in_class_one(self):
        instance = unit_skew_instance(
            stream_costs={"a": 1.0, "b": 2.0},
            budget=3.0,
            utilities={"u": {"a": 2.0, "b": 4.0}},
            utility_caps={"u": 6.0},
        )
        bins = skew_bins(index_instance(instance))
        assert list(bins.bins) == [1, 1]

    def test_zero_load_pair_is_free(self):
        instance = random_smd(4, 3, 2.0, seed=3)
        idx = index_instance(instance)
        bins = skew_bins(idx)
        for p in range(idx.nnz):
            if idx.u_loads[p, 0] == 0.0:
                assert bins.bins[p] == 0


class TestIndexedAssignment:
    def test_accounting_matches_dict_assignment(self, inst):
        trace_assignment = Assignment(inst)
        for s in inst.streams[:4]:
            trace_assignment.add_stream_to_all(s.stream_id)
        indexed = IndexedAssignment.from_assignment(trace_assignment)
        assert indexed.utility() == pytest.approx(trace_assignment.utility())
        assert tuple(indexed.server_costs()) == pytest.approx(
            trace_assignment.server_costs()
        )
        loads = indexed.user_loads()
        for u_i, uid in enumerate(indexed.idx.user_ids):
            assert tuple(loads[u_i]) == pytest.approx(trace_assignment.user_loads(uid))
        assert indexed.is_server_feasible() == trace_assignment.is_server_feasible()
        assert indexed.is_user_feasible() == trace_assignment.is_user_feasible()
        assert indexed.is_feasible() == trace_assignment.is_feasible()

    def test_round_trip_mapping(self, inst):
        source = Assignment(inst)
        source.add_stream_to_all(inst.streams[0].stream_id)
        indexed = IndexedAssignment.from_assignment(source)
        rebuilt = Assignment(inst, indexed.to_mapping())
        assert rebuilt.as_dict() == source.as_dict()

    def test_bulk_assign_stream(self, inst):
        idx = index_instance(inst)
        indexed = IndexedAssignment(idx)
        k = 0
        receivers = idx.s_user[idx.s_indptr[k]:idx.s_indptr[k + 1]]
        indexed.assign_stream(k, receivers)
        mapping = indexed.to_mapping()
        sid = idx.stream_ids[k]
        for u in receivers:
            assert sid in mapping[idx.user_ids[int(u)]]


class TestAssignmentBulkMutation:
    def test_assign_stream_matches_add(self, inst):
        sid = inst.streams[0].stream_id
        uids = [u.user_id for u in inst.interested_users(sid)]
        bulk = Assignment(inst)
        bulk.assign_stream(sid, uids)
        one_by_one = Assignment(inst)
        for uid in uids:
            one_by_one.add(uid, sid)
        assert bulk.as_dict() == one_by_one.as_dict()

    def test_assign_stream_validates(self, inst):
        a = Assignment(inst)
        with pytest.raises(ValidationError):
            a.assign_stream("nope", [inst.users[0].user_id])
        with pytest.raises(ValidationError):
            a.assign_stream(inst.streams[0].stream_id, ["ghost"])

    def test_pairs_iterates_assignment(self, inst):
        a = Assignment(inst)
        sid = inst.streams[0].stream_id
        uid = inst.users[0].user_id
        a.add(uid, sid)
        assert list(a.pairs()) == [(uid, sid)]


class TestDegenerateLowering:
    def test_empty_instance(self):
        instance = MMDInstance([], [], (math.inf,))
        idx = index_instance(instance)
        assert idx.nnz == 0 and idx.num_streams == 0 and idx.num_users == 0
        assert idx.total_utilities().shape == (0,)

    def test_no_capacity_measures(self):
        instance = random_mmd(4, 3, m=1, mc=0, seed=1)
        idx = index_instance(instance)
        assert idx.mc == 0
        assert idx.u_loads.shape == (idx.nnz, 0)
