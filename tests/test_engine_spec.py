"""TrialSpec, the backend registry, and the capability gate.

The contracts under test:

* every unsupported axis/engine combination raises one uniform
  :class:`SpecError` naming the backend and the offending field, and a
  missing or unknown ``protocol``, or an unknown protocol parameter, is
  one ``SpecError(field="protocol")`` on every engine — raised, like a
  driver tag that is not the protocol's kind, before anything is spawned;
* the spec codecs round-trip: ``from_cli_args`` → ``as_provenance`` →
  ``from_provenance`` is lossless for codable specs (hypothesis-fuzzed);
* the protocol table (:data:`repro.core.protocols.PROTOCOLS`) fills a
  spec the same way for ``run_trial``, the ``run_*_trial`` keyword
  spellings and a record read back from JSON text;
* every engine's provenance record validates against the one shared
  schema (:func:`validate_run_provenance`);
* the registry is a flat namespace: unknown engines fail with the
  available names, collisions are errors, unregister works.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import run_topology_matrix
from repro.analysis.runner import (
    run_idl_trial,
    run_mutex_trial,
    run_pif_trial,
    run_trial,
)
from repro.core.protocols import PROTOCOLS
from repro.engine import (
    ChaosOpts,
    ClusterOpts,
    EngineBackend,
    ShardingOpts,
    TransportOpts,
    TrialSpec,
    engine_names,
    execute,
    register,
    resolve,
    unregister,
    validate_run_provenance,
)
from repro.errors import HorizonExceeded, SpecError
from repro.net.coordinator import interpreters_spawned

DRIVER = dict(tag="pif", requests_per_process=1, payload_fmt="m-{pid}-{k}")


def _spec(**over) -> TrialSpec:
    base = dict(n=5, protocol={"kind": "pif"}, seed=3,
                loss=0.1, driver=dict(DRIVER), horizon=50_000)
    base.update(over)
    return TrialSpec(**base)


# -- the uniform capability error -----------------------------------------

#: (engine, offending axes, the field the error must name).  One row per
#: populated-axis/engine pair the capability table rejects.
UNSUPPORTED = [
    ("serial", dict(sharding=ShardingOpts(shards=2)), "shards"),
    ("serial", dict(sharding=ShardingOpts(window=8)), "window"),
    ("serial", dict(transport=TransportOpts(tick=0.01)), "tick"),
    ("serial", dict(transport=TransportOpts(transport="tcp")), "transport"),
    ("serial", dict(cluster=ClusterOpts(hosts=2)), "hosts"),
    ("serial", dict(chaos=ChaosOpts(plan="drop ship from 1 count 1")),
     "fault_plan"),
    ("sharded", dict(round_budget=4), "round_budget"),
    ("sharded", dict(transport=TransportOpts(transport="udp")), "transport"),
    ("sharded", dict(cluster=ClusterOpts(sync="windowed")), "sync"),
    ("sharded", dict(chaos=ChaosOpts(plan="crash worker 0 at barrier 1")),
     "fault_plan"),
    ("async", dict(round_budget=4), "round_budget"),
    ("async", dict(sharding=ShardingOpts(shards=2)), "shards"),
    ("async", dict(cluster=ClusterOpts(hosts=2)), "hosts"),
    ("async", dict(cluster=ClusterOpts(listen="0:0")), "cluster_listen"),
    ("cluster", dict(round_budget=4), "round_budget"),
    ("cluster", dict(sharding=ShardingOpts(shards=2)), "shards"),
    ("cluster", dict(transport=TransportOpts(tick=0.01)), "tick"),
    ("cluster", dict(transport=TransportOpts(transport="udp")), "transport"),
]


@pytest.mark.parametrize("engine,axes,fieldname", UNSUPPORTED)
def test_unsupported_axis_is_one_uniform_spec_error(engine, axes, fieldname):
    with pytest.raises(SpecError) as err:
        execute(_spec(engine=engine, **axes))
    assert err.value.backend == engine
    assert err.value.field == fieldname
    message = str(err.value)
    assert f"the {engine!r} backend" in message
    assert "requires engine=" in message


@pytest.mark.parametrize("engine,axes,fieldname", [
    ("cluster", dict(cluster=ClusterOpts(hosts=0)), "hosts"),
    ("sharded", dict(sharding=ShardingOpts(shards=9)), "shards"),
    ("cluster", dict(sharding=ShardingOpts(window=5)), "window"),
    ("cluster", dict(cluster=ClusterOpts(sync="freerun")), "sync"),
], ids=["hosts", "shards", "window", "sync"])
def test_bad_window_sync_axis_names_the_field_it_rides(
        engine, axes, fieldname):
    # n=6 on a complete graph: 1..6 workers, a lookahead of one tick.
    spawned = interpreters_spawned()
    spec = TrialSpec(n=6, protocol={"kind": "pif"}, engine=engine, **axes)
    with pytest.raises(SpecError) as err:
        run_trial(spec)
    assert err.value.field == fieldname
    assert interpreters_spawned() == spawned


@pytest.mark.parametrize("engine", engine_names())
@pytest.mark.parametrize("protocol,complaint", [
    (None, "names no protocol"),
    ({"kind": "gossip"}, "unknown protocol kind 'gossip'"),
], ids=["missing", "unknown-kind"])
def test_protocol_errors_name_the_field_on_every_engine(
        engine, protocol, complaint):
    with pytest.raises(SpecError, match=complaint) as err:
        execute(_spec(engine=engine, protocol=protocol))
    assert err.value.field == "protocol"


@pytest.mark.parametrize("engine", engine_names())
@pytest.mark.parametrize("over,fieldname,complaint", [
    (dict(protocol={"kind": "pif", "bogus": 1}), "protocol",
     r"'pif' takes no parameter \['bogus'\]; it accepts \['max_state'\]"),
    (dict(protocol={"kind": "me", "tag": "w"}), "protocol",
     r"'me' takes no parameter \['tag'\]"),
    (dict(driver=dict(DRIVER, tag="idl")), "driver",
     "driver tag 'idl' is not a layer of protocol 'pif'"),
], ids=["unknown-parameter", "tag-parameter", "driver-tag"])
def test_protocol_mismatches_fail_before_anything_is_spawned(
        engine, over, fieldname, complaint):
    spawned = interpreters_spawned()
    with pytest.raises(SpecError, match=complaint) as err:
        execute(_spec(engine=engine, **over))
    assert err.value.field == fieldname
    assert interpreters_spawned() == spawned


def test_validate_alone_accepts_a_spec_without_protocol():
    # Axis-only specs (from the CLI) get their protocol from a wrapper.
    TrialSpec(n=4).validate()


def test_unknown_engine_names_the_registry():
    with pytest.raises(SpecError, match=r"unknown engine 'warp'"):
        execute(_spec(engine="warp"))


def test_unknown_transport_names_the_registry():
    with pytest.raises(SpecError, match="unknown transport 'carrier-pigeon'"):
        execute(_spec(
            engine="async",
            transport=TransportOpts(transport="carrier-pigeon"),
        ))


# -- codecs ---------------------------------------------------------------

_PLANS = st.sampled_from([
    None,
    "",
    "drop ship from 1 round 2..4 count 2",
    "crash worker 1 at barrier 3\ncut link 0->1 for rounds 2..3",
])

_NAMESPACES = st.fixed_dictionaries({
    "n": st.integers(min_value=1, max_value=64),
    "seeds": st.lists(st.integers(0, 2**31), min_size=0, max_size=3),
    "loss": st.floats(0.0, 1.0, allow_nan=False),
    "topology": st.sampled_from(
        [None, "ring", "clustered:4", "wan:4", "line"]),
    "latency": st.tuples(st.integers(1, 4), st.integers(4, 9)),
    "horizon": st.one_of(st.none(), st.integers(1, 10**7)),
    "round_budget": st.one_of(st.none(), st.integers(0, 100)),
    "engine": st.sampled_from(engine_names()),
    "shards": st.one_of(st.none(), st.integers(1, 8)),
    "window": st.one_of(st.none(), st.integers(1, 64)),
    "transport": st.sampled_from(["loopback", "tcp", "udp"]),
    "tick": st.one_of(st.none(), st.floats(0.001, 1.0, allow_nan=False)),
    "hosts": st.one_of(st.none(), st.integers(1, 8)),
    "cluster_listen": st.sampled_from([None, "127.0.0.1:0"]),
    "fault_plan": _PLANS,
    "metrics": st.sampled_from([None, "m.json"]),
    "timeline": st.sampled_from([None, "t.json"]),
})


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_NAMESPACES)
def test_cli_spec_provenance_round_trip_is_lossless(fields):
    args = argparse.Namespace(**fields)
    spec = TrialSpec.from_cli_args(args)
    assert spec.codable()
    record = spec.as_provenance()
    rebuilt = TrialSpec.from_provenance(json.loads(json.dumps(record)))
    assert rebuilt == spec
    # A second encode must be byte-for-byte stable, too.
    assert rebuilt.as_provenance() == record


def test_round_trip_keeps_protocol_driver_and_axes():
    spec = _spec(engine="sharded", sharding=ShardingOpts(shards=2, window=8))
    assert spec.codable()
    assert TrialSpec.from_provenance(spec.as_provenance()) == spec


#: One protocol dict per kind, every parameter its builder takes set.
_FULL_PROTOCOLS = [
    {"kind": "pif", "max_state": 5},
    {"kind": "idl", "idents": {1: 50, 2: 7, 3: 9}},
    {"kind": "me", "cs_duration": 4, "use_paper_modulus": True},
]


def _through_json_text(spec: TrialSpec) -> TrialSpec:
    return TrialSpec.from_provenance(
        json.loads(json.dumps(spec.as_provenance())))


@pytest.mark.parametrize("protocol", _FULL_PROTOCOLS, ids=lambda p: p["kind"])
def test_every_protocol_parameter_survives_json_text(protocol):
    row = PROTOCOLS[protocol["kind"]]
    assert protocol.keys() - {"kind"} == row.build.__kwdefaults__.keys()
    spec = row.describe(TrialSpec(n=3, seed=1, protocol=protocol))
    assert spec.codable()
    assert _through_json_text(spec) == spec


def test_idl_identities_replay_from_the_record():
    # JSON stringifies the pid keys; the decoded spec must build the same
    # layers and be judged against the same ground truth.
    spec = TrialSpec(n=3, seed=1, loss=0.1, protocol=_FULL_PROTOCOLS[1])
    direct = run_trial(spec)
    replayed = run_trial(_through_json_text(PROTOCOLS["idl"].describe(spec)))
    assert direct.ok and replayed.ok
    assert replayed.measurements == direct.measurements


def test_prebuilt_topology_collapses_to_its_name():
    from repro.sim.topology import Ring

    spec = _spec(topology=Ring(5))
    assert not spec.codable()
    assert spec.as_provenance()["topology"] == "ring(5)"


def test_provenance_version_gate():
    record = _spec().as_provenance()
    record["spec_version"] = 99
    with pytest.raises(SpecError, match="spec_version"):
        TrialSpec.from_provenance(record)


def test_a_record_with_no_epoch_predates_the_key(monkeypatch):
    import repro.engine.spec as spec_module

    record = _spec().as_provenance()
    del record["epoch"]
    monkeypatch.setattr(spec_module, "SEMANTICS_EPOCH", 1)
    assert TrialSpec.from_provenance(record) == _spec()
    monkeypatch.setattr(spec_module, "SEMANTICS_EPOCH", 2)
    with pytest.raises(SpecError, match="recorded under epoch 1, running 2") as err:
        TrialSpec.from_provenance(record)
    assert err.value.field == "epoch"


@pytest.mark.parametrize("section,key", [
    (None, "sed"),
    ("cluster", "sinc"),
    ("transport", "transprt"),
], ids=["top-level", "cluster-section", "transport-section"])
def test_provenance_decode_rejects_unknown_keys(section, key):
    # Skipping it would replay a default: seed 0 for "sed", sync=None
    # for "sinc".
    record = _spec().as_provenance()
    if section is None:
        record[key] = 3
    else:
        record[section] = {**record[section], key: "windowed"}
    with pytest.raises(SpecError, match="unknown keys") as err:
        TrialSpec.from_provenance(record)
    assert err.value.field == key


def test_a_recorded_freerun_sync_replays_as_a_spec_error():
    # A record decodes whatever sync it names; its replay names the field.
    record = _spec(engine="cluster").as_provenance()
    record["cluster"] = {**record["cluster"], "sync": "freerun"}
    with pytest.raises(SpecError) as err:
        run_trial(TrialSpec.from_provenance(record))
    assert err.value.field == "sync"


def test_spec_validation_rejects_bad_axes():
    for over, fieldname in [
        (dict(n=0), "n"),
        (dict(loss=1.5), "loss"),
        (dict(capacity=0), "capacity"),
        (dict(latency=(3, 1)), "latency"),
        (dict(horizon=0), "horizon"),
        (dict(driver={"requests_per_process": 1}), "driver"),
        (dict(transport=TransportOpts(tick=-1.0)), "tick"),
    ]:
        with pytest.raises(SpecError) as err:
            _spec(**over).validate()
        assert err.value.field == fieldname


# -- the protocol table ---------------------------------------------------


def _verdict(trial):
    return trial.params, trial.ok, trial.violations, trial.measurements


_WRAPPERS = {"pif": run_pif_trial, "idl": run_idl_trial,
             "me": run_mutex_trial}


@pytest.mark.parametrize("kind", PROTOCOLS)
def test_a_spec_naming_only_its_protocol_is_the_wrappers_default_call(kind):
    axes = TrialSpec(n=3, seed=2, loss=0.1, capacity=2)
    direct = run_trial(replace(axes, protocol={"kind": kind}))
    assert _verdict(direct) == _verdict(_WRAPPERS[kind](axes))
    assert direct.ok and direct.params["capacity"] == 2
    # ...and so is its described record, read back from JSON text.
    described = PROTOCOLS[kind].describe(axes)
    assert described.driver["requests_per_process"] == 2
    assert described.horizon == PROTOCOLS[kind].horizon
    assert _verdict(run_trial(_through_json_text(described))) == \
        _verdict(direct)


def test_what_the_spec_names_wins_over_the_rows_default():
    spec = TrialSpec(n=3, protocol={"kind": "me"},
                     driver=dict(tag="me", requests_per_process=1))
    assert run_trial(spec).measurements["requested"] == 3
    with pytest.raises(HorizonExceeded, match="ME trial did not finish") as err:
        run_trial(replace(spec, horizon=40))
    assert "horizon=40" in str(err.value)
    # A wrapper keyword is an explicit override of the spec's own value.
    assert run_mutex_trial(
        spec, requests_per_process=2).measurements["requested"] == 6
    with pytest.raises(SpecError, match="driver tag 'me' is not") as err:
        run_pif_trial(spec)  # a described ME spec is not a PIF trial
    assert err.value.field == "driver"


def test_a_horizon_cut_trial_can_be_judged_as_far_as_it_got():
    axes = TrialSpec(n=3, horizon=40)
    cut = run_trial(replace(axes, protocol={"kind": "me"}),
                    require_completion=False)
    # Unserved requests are not held against a run that was cut short.
    assert cut.measurements["completed"] is False and cut.ok
    assert _verdict(cut) == _verdict(
        run_mutex_trial(axes, require_completion=False))


def test_the_matrix_takes_a_kind_or_its_command_name(capsys):
    from repro.cli import main

    def rows(protocol):
        return run_topology_matrix(
            TrialSpec(n=3), topologies=["ring"], losses=[0.0], seeds=[0],
            protocol=protocol)

    assert rows("me") == rows("mutex")
    with pytest.raises(SpecError, match="unknown protocol kind 'gossip'") as err:
        rows("gossip")
    assert err.value.field == "protocol"
    cell = ["matrix", "--n", "3", "--topologies", "ring", "--losses", "0",
            "--seeds", "0", "--protocol"]
    assert main(cell + ["me"]) == main(cell + ["mutex"]) == 0
    assert main(cell + ["gossip"]) == 1
    assert "unknown protocol kind 'gossip'" in capsys.readouterr().err


# -- one provenance schema for every engine -------------------------------


_SERIAL_KEYS = {"engine", "transport", "wall_clock_s"}
_WINDOW_KEYS = _SERIAL_KEYS | {"window", "barriers", "sync_wall_s"}
_CLUSTER_KEYS = _WINDOW_KEYS | {
    "hosts", "worker_wall_s", "worker_wall_spread_s",
    "registry_round_trips"}


@pytest.mark.parametrize("engine,axes,keys", [
    pytest.param("serial", {}, _SERIAL_KEYS, id="serial-axes0"),
    pytest.param("sharded", dict(sharding=ShardingOpts(shards=2)),
                 _WINDOW_KEYS, id="sharded-axes1"),
    pytest.param("async", {}, _SERIAL_KEYS, id="async-axes2"),
    pytest.param("async", dict(transport=TransportOpts(transport="udp")),
                 _SERIAL_KEYS, id="async-axes3"),
    pytest.param("cluster", dict(cluster=ClusterOpts(hosts=2)),
                 _CLUSTER_KEYS, id="cluster-axes4"),
    # An armed empty plan counts as a plan: its counters are reported.
    pytest.param("cluster", dict(cluster=ClusterOpts(hosts=2),
                                 chaos=ChaosOpts(plan="")),
                 _CLUSTER_KEYS | {"fault_counts", "recoveries",
                                  "replayed_rounds"}, id="cluster-axes5"),
    pytest.param("async", dict(transport=TransportOpts(transport="udp"),
                               chaos=ChaosOpts(plan="")),
                 _SERIAL_KEYS | {"fault_counts"},
                 id="async-axes6"),
])
def test_every_engine_fits_the_provenance_schema(engine, axes, keys):
    run = execute(_spec(engine=engine, **axes))
    record = run.provenance()
    validate_run_provenance(record)
    assert record["engine"] == engine
    assert set(record) == keys


def test_provenance_schema_rejects_malformed_records():
    with pytest.raises(SpecError, match="misses 'engine'"):
        validate_run_provenance({"transport": None, "wall_clock_s": 0.0})
    with pytest.raises(SpecError, match="unknown keys"):
        validate_run_provenance({"engine": "serial", "transport": None,
                                 "wall_clock_s": 0.0, "surprise": 1})
    with pytest.raises(SpecError, match="section key"):
        validate_run_provenance({"engine": "cluster", "transport": "tcp",
                                 "wall_clock_s": 0.0, "hosts": 2})


# -- the registry is a flat namespace -------------------------------------


class _NullBackend(EngineBackend):
    name = "null-test"
    summary = "test double"

    def capabilities(self):
        return frozenset({"obs"})

    def engine(self, spec, topology):
        raise NotImplementedError

    def run(self, prepared):
        raise NotImplementedError


def test_registry_register_resolve_unregister():
    backend = _NullBackend()
    try:
        assert register(backend) is backend
        assert resolve("null-test") is backend
        assert "null-test" in engine_names()
        with pytest.raises(SpecError, match="already registered"):
            register(_NullBackend())
    finally:
        unregister("null-test")
    assert "null-test" not in engine_names()
    with pytest.raises(SpecError, match="expected one of"):
        resolve("null-test")


def test_builtin_backends_present():
    assert engine_names() == ("async", "cluster", "serial", "sharded")
