"""Tests for Protocol IDL (Algorithm 2)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.runner import run_idl_trial
from repro.core.idl import IDL_PAYLOAD, IdlLayer
from repro.core.requests import RequestDriver
from repro.engine import TrialSpec
from repro.sim.channel import BernoulliLoss
from repro.sim.runtime import Simulator
from repro.spec.idl_spec import check_idl
from repro.types import RequestState


def build(host) -> None:
    host.register(IdlLayer("idl"))


class TestUnit:
    def test_embeds_a_pif_instance(self):
        sim = Simulator(2, build, auto=False)
        tags = [layer.tag for layer in sim.host(1).layers]
        assert tags == ["idl/pif", "idl"]

    def test_ident_defaults_to_pid(self):
        sim = Simulator(3, build, auto=False)
        assert sim.layer(2, "idl").ident == 2

    def test_custom_ident(self):
        sim = Simulator(
            2, lambda h: h.register(IdlLayer("idl", ident=h.pid * 100)), auto=False
        )
        assert sim.layer(2, "idl").ident == 200

    def test_a1_starts_pif_wave(self):
        sim = Simulator(2, build, auto=False)
        layer: IdlLayer = sim.layer(1, "idl")
        layer.request_learn()
        sim.activate(1)
        assert layer.request is RequestState.IN
        assert layer.min_id == 1
        assert layer.pif.b_mes == IDL_PAYLOAD
        assert layer.pif.request is not RequestState.DONE

    def test_on_broadcast_answers_identity(self):
        sim = Simulator(2, build, auto=False)
        layer: IdlLayer = sim.layer(2, "idl")
        assert layer.on_broadcast(1, IDL_PAYLOAD) == 2
        assert layer.on_broadcast(1, "garbage") is None

    @staticmethod
    def _started(sim, pid) -> IdlLayer:
        """``pid``'s IDL layer inside a started computation: IDL's A1 and
        the embedded PIF's A1 have run, so the PIF is ``In``."""
        layer: IdlLayer = sim.layer(pid, "idl")
        layer.request_learn()
        sim.activate(pid)
        sim.activate(pid)
        assert layer.pif.request is RequestState.IN
        return layer

    def test_on_feedback_tracks_minimum(self):
        sim = Simulator(3, build, auto=False)
        layer = self._started(sim, 3)
        layer.on_feedback(1, 1)
        layer.on_feedback(2, 2)
        assert layer.min_id == 1
        assert layer.id_tab == {1: 1, 2: 2}

    def test_on_feedback_ignores_non_int_garbage(self):
        sim = Simulator(2, build, auto=False)
        layer = self._started(sim, 1)
        layer.on_feedback(2, None)
        layer.on_feedback(2, "junk")
        assert layer.id_tab[2] == 0  # untouched default

    def test_on_feedback_before_the_pif_starts_is_ignored(self):
        """The start window: IDL's A1 has run, the embedded PIF is still
        ``Wait``, so a ``receive-fck`` belongs to no started computation
        and must not lower ``min_id`` (Specification 1 guarantees one
        only inside a computation)."""
        sim = Simulator(3, build, auto=False)
        layer: IdlLayer = sim.layer(3, "idl")
        layer.request_learn()
        sim.activate(3)
        assert layer.request is RequestState.IN
        assert layer.pif.request is RequestState.WAIT
        layer.on_feedback(1, 0)
        layer.on_feedback(2, 1)
        assert (layer.min_id, layer.id_tab) == (3, {1: 0, 2: 0})

    def test_scramble_and_restore(self):
        sim = Simulator(3, build, auto=False)
        layer: IdlLayer = sim.layer(1, "idl")
        snap = layer.snapshot()
        layer.scramble(random.Random(3))
        layer.restore(snap)
        assert layer.min_id == 1


class TestIntegration:
    def test_learns_all_ids(self):
        sim = Simulator(5, build, seed=0)
        layer: IdlLayer = sim.layer(4, "idl")
        layer.request_learn()
        assert sim.run(300_000, until=lambda s: layer.request is RequestState.DONE)
        assert layer.min_id == 1
        assert layer.id_tab == {1: 1, 2: 2, 3: 3, 5: 5}

    def test_custom_idents_change_minimum(self):
        idents = {1: 500, 2: 7, 3: 300}
        sim = Simulator(
            3, lambda h: h.register(IdlLayer("idl", ident=idents[h.pid])), seed=1
        )
        layer: IdlLayer = sim.layer(1, "idl")
        layer.request_learn()
        assert sim.run(300_000, until=lambda s: layer.request is RequestState.DONE)
        assert layer.min_id == 7
        assert layer.id_tab == {2: 7, 3: 300}

    @pytest.mark.parametrize("seed", range(5))
    def test_snap_stabilizing_from_scramble(self, seed):
        sim = Simulator(4, build, seed=seed, loss=BernoulliLoss(0.1))
        sim.scramble(seed=seed + 50)
        driver = RequestDriver(sim, "idl", requests_per_process=2)
        assert sim.run(2_000_000, until=lambda s: driver.done)
        sim.run(sim.now + 500)
        verdict = check_idl(
            sim.trace, "idl", {p: p for p in sim.pids},
            final_requests={p: sim.layer(p, "idl").request for p in sim.pids},
        )
        assert verdict.ok, verdict.summary()

    def test_concurrent_learners(self):
        sim = Simulator(4, build, seed=9)
        for p in sim.pids:
            sim.layer(p, "idl").request_learn()
        ok = sim.run(
            500_000,
            until=lambda s: all(
                s.layer(p, "idl").request is RequestState.DONE for p in s.pids
            ),
        )
        assert ok
        for p in sim.pids:
            assert sim.layer(p, "idl").min_id == 1


class TestMonitoredOnline:
    """IDL is judged on the async and cluster engines for free: its
    automaton is on its row of ``repro.core.protocols.PROTOCOLS``, and
    the runner's one pass judges every engine's trace with it.  The
    per-row adapter (``default_monitors``) fed the same trace agrees."""

    @staticmethod
    def _judged(spec, idents, monkeypatch):
        """The trial of ``spec``, and the per-row monitor's verdict on
        the trace that trial judged."""
        from repro.analysis import runner
        from repro.net.monitors import default_monitors

        runs = []
        execute = runner.execute
        monkeypatch.setattr(
            runner, "execute", lambda spec: runs.append(execute(spec)) or runs[-1])
        trial = runner.run_idl_trial(spec, requests_per_process=1, idents=idents)
        [run] = runs
        [monitor] = default_monitors("idl", run.topology, idents)
        for row in run.trace.scan(*monitor.automaton.KINDS):
            monitor.observe(*row)
        return trial, monitor.report(final_requests=run.finals)

    @pytest.mark.parametrize("topology", ["complete", "ring"])
    @pytest.mark.parametrize(
        "idents", [None, {1: 50, 2: 7, 3: 31, 4: 12, 5: 90}],
        ids=["pid-idents", "explicit-idents"])
    @pytest.mark.parametrize("engine", ["async", "cluster"])
    def test_trial_carries_the_idl_monitor_verdict(
        self, engine, idents, topology, monkeypatch
    ):
        from repro.engine import ClusterOpts

        trial, report = self._judged(
            TrialSpec(n=5, seed=0, loss=0.1, topology=topology, engine=engine,
                      cluster=ClusterOpts(hosts=2 if engine == "cluster" else None)),
            idents, monkeypatch)
        assert (trial.ok, trial.violations) == (True, 0)
        assert trial.provenance["engine"] == engine
        assert (report.spec, report.ok) == ("IDL[idl]", True)
        assert report.info["computations"] == trial.measurements["computations"] > 0
        assert report.events_observed > 0

    def test_monitor_and_trial_agree_the_start_window_is_shut(self, monkeypatch):
        """Not crafted: with identities above the pid range, seeds 3, 5
        and 6 let a garbage receive-fck of the scrambled, never-started
        PIF wave arrive between IDL's START and the embedded PIF's.  A4
        applies only inside a started computation, so ``min_id`` keeps no
        garbage: the trial and the per-row monitor agree that
        Specification 2 holds."""
        for seed in (3, 5, 6):
            trial, report = self._judged(
                TrialSpec(n=5, seed=seed, loss=0.1, engine="async"),
                {1: 50, 2: 7, 3: 31, 4: 12, 5: 90}, monkeypatch)
            assert (trial.ok, trial.violations) == (True, 0), seed
            assert (report.ok, len(report.violations)) == (True, 0), seed


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    idents=st.integers(2, 6).flatmap(lambda n: st.lists(
        st.integers(1, 199), min_size=n, max_size=n, unique=True)),
    seed=st.integers(0, 7),
    loss=st.sampled_from([0.0, 0.1, 0.2]),
)
def test_idl_meets_specification_2_under_any_identity_map(idents, seed, loss):
    """Theorem 3 over random identity maps: garbage feedback of a
    scrambled, never-started wave can undercut any identity, so only a
    started computation's feedback may reach ``min_id``."""
    trial = run_idl_trial(
        TrialSpec(n=len(idents), seed=seed, loss=loss), requests_per_process=1,
        idents=dict(enumerate(idents, start=1)))
    assert trial.ok, trial
