"""Decision-map replay for order-free policies (``engine="batched"``).

The simulation engines, all float-identical on a common trace:

===========  ==========================================  =================
engine       replay driver                                policy calls
===========  ==========================================  =================
``dict``     heap calendar over string ids (the oracle)   one per decision
``indexed``  decision-point kernel on the index arrays    one per stream
             (:class:`~repro.sim.indexed.IndexedVideoSim`,  per state epoch
             the default); parks stable rejections
``batched``  the same kernel plus a decision map for      one batched call
             ``batch_order_free`` policies                per state epoch
===========  ==========================================  =================

A *state epoch* ends at an admit, at a live departure, and (under
``indexed``) when the policy's
:meth:`~repro.sim.policies.AdmissionPolicy.rejection_token` moves; a
policy whose token is ``None`` is called once per decision under every
engine.

:class:`BatchedVideoSim` inherits the decision-point kernel of
:class:`~repro.sim.indexed.IndexedVideoSim` unchanged and differs only
for policies that declare
:attr:`~repro.sim.policies.AdmissionPolicy.batch_order_free` — answers
that are pure functions of the resource state.  Between state changes
(an admit or a live departure) such a policy's answers cannot change,
and a rejection mutates nothing, so one
:meth:`~repro.sim.policies.AdmissionPolicy.on_offer_batch` call over
the pending arrivals' distinct streams yields a map ``stream -> answer``
that also decides every repeat arrival of those streams until the state
moves.  Rejection runs then replay with no policy work at all.  Every
other policy — stateful, randomized or a third-party string-id policy —
goes straight to the inherited per-offer driver, so it sees the
identical ``on_offer_indexed`` call sequence as under ``indexed``.

Reports stay bit-identical to every other engine on a common trace
(``tests/test_sim_indexed.py`` asserts ``==``), including windowed
:meth:`~repro.sim.indexed.IndexedVideoSim.run_store` replay.
Since ``indexed`` parks rejected streams too, the decision map no
longer beats it: ``benchmarks/bench_e16_batched.py`` reports both
engines' times on a rejection-heavy threshold trace of ~10⁶ events and
gates ``indexed``'s policy calls per offer instead.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.sim.indexed import _ARRIVAL, _BEYOND_HORIZON, _DEPARTURE, IndexedVideoSim

#: Decision-map group sizing: first group width, then adaptive between
#: :data:`_MIN_GROUP` and :data:`_MAX_GROUP` (grow ×2 when an unmapped
#: stream ends an epoch, halve when an admit does).
_INITIAL_GROUP = 16
_MIN_GROUP = 4
_MAX_GROUP = 1024


class BatchedVideoSim(IndexedVideoSim):
    """Decision-point replay with a decision map for order-free policies.

    A drop-in :class:`~repro.sim.indexed.IndexedVideoSim`: construction,
    policy binding, event handlers, windowing and reporting are
    inherited; only :meth:`_replay_window` differs, and only when the
    bound policy is ``batch_order_free`` (see module docstring).
    """

    def _replay_window(
        self,
        times: np.ndarray,
        streams: np.ndarray,
        departures: np.ndarray,
        horizon: float,
        heap: list,
        resident: "dict[int, float]",
        offset: int,
        boundary: "float | None",
    ) -> None:
        """Decision-map driver over one window of the replay order.

        Same windowing contract as
        :meth:`~repro.sim.indexed.IndexedVideoSim._replay_window`, which
        non-order-free policies run unchanged.  For order-free ones, one
        batched answer covers each *state epoch*: the group's answers
        form a map ``stream -> answer`` that also decides every repeat
        arrival of the same streams.  Events still leave the heap in
        exact replay order; the map merely replaces per-arrival policy
        calls.  The epoch ends at the first admit or live departure
        (state changes) or at an unmapped stream (the next group answers
        it first).

        Window boundaries compose freely with the epochs: answers are
        pure functions of the resource state, so a map cut short by the
        boundary is simply recomputed — identically — from the next
        window's first group, and the all-reject cursor jump stops at
        the window's own arrivals, whose skipped repeats are counted
        exactly once either way.
        """
        if not self.policy.batch_order_free:
            super()._replay_window(
                times, streams, departures, horizon,
                heap, resident, offset, boundary,
            )
            return
        sorter, times_by_stream, cursor, bounds = self._window_setup(
            times, streams, heap, resident, offset
        )
        push, pop = heapq.heappush, heapq.heappop
        on_departure = self._on_departure
        on_offer_batch = self.policy.on_offer_batch
        admit = self._admit
        # The hot (auto-reject) path below runs once per trace event with
        # no numpy state to read, so index plain Python lists.
        sorter_list = sorter.tolist()
        times_list = times.tolist()
        empty = ()  # sentinel: mapped-and-rejected (None = unmapped)
        group_cap = _INITIAL_GROUP
        while heap and (boundary is None or heap[0][0] < boundary):
            top = heap[0]
            if top[1]:
                pop(heap)
                on_departure(top[3], top[4], top[0])
                del resident[top[4]]
                continue
            # Answer the distinct pending streams in one policy call.
            group = [pop(heap)]
            while len(group) < group_cap and heap and not heap[0][1]:
                group.append(pop(heap))
            ks = np.fromiter(
                (e[4] for e in group), dtype=np.int64, count=len(group)
            )
            answers = on_offer_batch(ks, self.view)
            if (
                (not heap or heap[0][1])
                and len(answers) == len(group)
                and all(len(a) == 0 for a in answers)
            ):
                # All-reject fast path: the group covered *every* pending
                # arrival (formation stopped at a departure or drained
                # the heap) and rejected them all, so every arrival up to
                # the next departure — which sorts after same-instant
                # arrivals — is an identical rejection.  Jump each
                # stream's cursor there with one searchsorted; no heap
                # traffic, no per-event work.
                limit_time = heap[0][0] if heap else None
                offered = 0
                for member in group:
                    k = member[4]
                    lo, hi = cursor[k], bounds[k]
                    if limit_time is None:
                        jump = hi
                    else:
                        jump = lo + int(
                            np.searchsorted(
                                times_by_stream[lo:hi],
                                limit_time,
                                side="right",
                            )
                        )
                    offered += jump - lo
                    cursor[k] = jump
                    if jump < hi:
                        local = sorter_list[jump]
                        arrival_time = times_list[local]
                        push(
                            heap,
                            (arrival_time, _ARRIVAL, arrival_time,
                             local + offset, k),
                        )
                self.offered += offered
                continue
            decisions = {
                e[4]: np.asarray(a, dtype=np.int64) if len(a) else empty
                for e, a in zip(group, answers)
            }
            for member in group:  # the map drives them back out in order
                push(heap, member)
            reason = "drained"
            offered = 0
            while heap:
                top = heap[0]
                if top[1]:
                    reason = "departure"  # state epoch ends regardless
                    break
                answer = decisions.get(top[4])
                if answer is None:
                    reason = "unmapped"  # next group answers it first
                    break
                entry = pop(heap)
                k = entry[4]
                offered += 1
                if answer is empty:
                    # Rejections commit nothing and touch no counter:
                    # advance straight to the stream's next arrival (the
                    # hot case — every repeat of a rejected stream).
                    lo = cursor[k] + 1
                    cursor[k] = lo
                    if lo < bounds[k]:
                        local = sorter_list[lo]
                        arrival_time = times_list[local]
                        push(
                            heap,
                            (arrival_time, _ARRIVAL, arrival_time,
                             local + offset, k),
                        )
                    continue
                time, position = entry[0], entry[3]
                changed = admit(position, k, time, answer)
                lo = cursor[k] + 1
                hi = bounds[k]
                if changed:  # a popped candidate's stream was inactive,
                    # so the stream is active now iff this admit took
                    departure_time = float(departures[position - offset])
                    if departure_time <= horizon:
                        resident[k] = departure_time
                        push(
                            heap,
                            (departure_time, _DEPARTURE, time, position, k),
                        )
                        lo += int(
                            np.searchsorted(
                                times_by_stream[lo:hi],
                                departure_time,
                                side="right",
                            )
                        )
                    else:  # departs beyond the horizon: carried to the end
                        resident[k] = _BEYOND_HORIZON
                        lo = hi
                cursor[k] = lo
                if lo < hi:
                    local = sorter_list[lo]
                    arrival_time = times_list[local]
                    push(
                        heap,
                        (arrival_time, _ARRIVAL, arrival_time,
                         local + offset, k),
                    )
                if changed:
                    reason = "admit"  # post-admit answers would be stale
                    break
            self.offered += offered
            if reason == "unmapped":
                # A wider group would have answered that stream already.
                group_cap = min(group_cap * 2, _MAX_GROUP)
            elif reason == "admit":
                group_cap = max(_MIN_GROUP, group_cap // 2)
