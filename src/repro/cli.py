"""Command-line interface: check the paper's claims, run trials.

Usage::

    python -m repro list                      # the other subcommands
    python -m repro claims                    # every claim, checked
    python -m repro claims E1 E11a            # those rows' full tables
    python -m repro pif --n 4 --loss 0.2      # E3-style trials
    python -m repro mutex --n 4 --seeds 0 1 2 # E5-style trials
    python -m repro pif --topology ring       # E3 on a ring
    python -m repro collect --topology star   # E12 collect-wave trials

Every trial subcommand accepts ``--topology`` (complete, ring, star,
grid[:RxC], gnp[:P], clustered[:K]) and sweeps the same specification,
generalized to the wave's reach on non-complete graphs.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, NamedTuple, Sequence

from repro.errors import HorizonExceeded, ReproError

# Every ``python -m repro ...`` process — each cluster worker among them
# — imports this module first, so it imports nothing else of the program
# at module scope: a subcommand's flags and handler import what they use.

__all__ = ["main", "build_parser"]


def _flags_trials(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--loss", type=float, default=0.1)
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    p.add_argument("--requests", type=int, default=2)
    _add_topology_arg(p)
    _add_engine_args(p)


def _flags_mutex(p: argparse.ArgumentParser) -> None:
    _flags_trials(p)
    p.add_argument(
        "--round-budget", type=int, default=None, metavar="R",
        help="abort (HorizonExceeded) once more than R CS grants "
             "were spent without serving every request — the cheap "
             "failure mode for slow-converging rings; a completing "
             "trial uses about (requests+1)*n grants (serial engine "
             "only, see docs/engine.md)",
    )


def _flags_claims(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "ids", nargs="*", metavar="ID",
        help="print these rows' full tables instead of the summary",
    )


def _flags_cluster_worker(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--registry", required=True, metavar="HOST:PORT",
        help="the coordinator's rendezvous address (its --cluster-listen, "
             "or the ephemeral address it spawned this worker with)",
    )
    p.add_argument(
        "--shard", type=int, required=True, metavar="K",
        help="which shard of the partition this worker hosts (0-based)",
    )
    p.add_argument(
        "--advertise-host", default="127.0.0.1", metavar="HOST",
        help="address peer shards should dial this worker on (default "
             "127.0.0.1; set to this machine's reachable address when "
             "launching on a remote host)",
    )
    p.add_argument(
        "--chaos", default=None, metavar="TOKEN",
        help="fault-injection token from the coordinator's fault plan "
             "('PHASE' or 'PHASE:ROUND', e.g. 'barrier:5'): crash this "
             "worker at that point (internal; set by the chaos harness)",
    )


def _flags_obs(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="obs JSON files; each is auto-detected as a metrics snapshot "
             "or a Chrome-trace timeline",
    )


def _flags_topology(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="partition into N shards (default: one per arbitration-cluster "
             "group) before reporting the cut and its latency floor",
    )
    p.add_argument(
        "--latency", type=int, nargs=2, default=(1, 3), metavar=("LO", "HI"),
        help="global latency bounds edges without explicit weights fall "
             "back to (default 1 3)",
    )
    _add_topology_arg(p)


def _add_topology_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--topology", default=None, metavar="SPEC",
        help="communication graph: complete (default), ring, star, grid[:RxC], "
             "gnp[:P], clustered[:K], wan[:K] (clustered with fast "
             "intra-cluster and slow cross-cluster edges)",
    )
    parser.add_argument(
        "--wan", action="store_true",
        help="shorthand for --topology wan: the WAN-clustered preset "
             "(intra-cluster latency 1-3, cross-cluster 16-32); widens the "
             "sharded and cluster engines' sync window to the cross-shard "
             "latency floor",
    )
    parser.add_argument(
        "--latency-map", nargs="+", default=None, metavar="SRC-DST=LO:HI",
        help="per-edge latency bounds layered over the topology, e.g. "
             "'1-2=16:32 2-3=16:32'; each entry weighs both directions of "
             "the edge, unmapped edges keep the global --latency bounds",
    )


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    from repro.engine.registry import engine_names
    from repro.net.transport.base import transport_names

    parser.add_argument(
        "--horizon", type=int, default=None, metavar="TICKS",
        help="time budget per trial in ticks (default: the runner's; over "
             "--transport tcp one tick is --tick seconds of wall time, so "
             "prefer an explicit budget there)",
    )
    parser.add_argument(
        "--engine", choices=engine_names(), default="serial",
        help="execution backend (from the repro.engine registry): one "
             "in-process scheduler (serial), the topology partitioned "
             "across worker processes (sharded), the asyncio runtime with "
             "one transport per channel (async), or per-shard worker "
             "interpreters behind real sockets (cluster); serial, sharded, "
             "cluster and async --transport loopback produce identical "
             "trace metrics for the same seed",
    )
    parser.add_argument(
        "--hosts", type=int, default=None, metavar="N",
        help="worker-interpreter count for --engine cluster (default: one "
             "per arbitration-cluster group); each hosts one shard of the "
             "partition in its own OS process",
    )
    parser.add_argument(
        "--cluster-listen", default=None, metavar="HOST:PORT",
        help="for --engine cluster: listen for hand-launched remote workers "
             "('repro cluster-worker') on this registry address instead of "
             "spawning localhost workers",
    )
    parser.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="worker count for --engine sharded (default: one per "
             "arbitration-cluster group)",
    )
    parser.add_argument(
        "--window", type=int, default=None, metavar="W",
        help="time-window size (ticks) for --engine sharded or cluster; must "
             "not exceed the cross-shard latency lower bound (default: "
             "exactly that bound)",
    )
    parser.add_argument(
        "--transport", choices=transport_names(), default="loopback",
        help="channel medium for --engine async (from the transport "
             "registry): in-process scheduler events (loopback, "
             "deterministic), real localhost TCP sockets (tcp), or loopback "
             "UDP datagrams where the network itself is the adversary "
             "(udp); tcp and udp are wall-clock best-effort, their trace "
             "spec-checked like any other",
    )
    parser.add_argument(
        "--tick", type=float, default=None, metavar="SECONDS",
        help="wall-clock length of one tick for the paced transports "
             "(default 0.001); latency bounds are in ticks, so the default "
             "emulates a 1-3 ms link",
    )
    parser.add_argument(
        "--latency", type=int, nargs=2, default=(1, 3), metavar=("LO", "HI"),
        help="message latency bounds in ticks (default 1 3); the lower bound "
             "is the sharded and cluster engines' lookahead, so raising it "
             "allows wider --window values (fewer barriers)",
    )
    parser.add_argument(
        "--fault-plan", default=None, metavar="PLAN",
        help="chaos fault schedule for --engine async/cluster (see "
             "docs/robustness.md): semicolon/newline-separated statements "
             "like 'crash worker 2 at barrier 5', 'cut link 1->3 for "
             "rounds 4..8', 'drop ship from 1 to 3', 'stall registry 2s'; "
             "@FILE reads the plan from FILE",
    )
    parser.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="write a JSON metrics snapshot of the run (scheduler, channel, "
             "wire and sync counters; see docs/observability.md); with "
             "multiple seeds each trial writes PATH suffixed by its seed",
    )
    parser.add_argument(
        "--timeline", default=None, metavar="PATH",
        help="write the run's span timeline as Chrome trace-event JSON "
             "(loadable in Perfetto / chrome://tracing); cluster workers "
             "merge into the coordinator's timeline over CONTROL",
    )
    parser.add_argument(
        "--profile", type=int, nargs="?", const=15, default=None, metavar="N",
        help="run the experiment under cProfile and print the top N "
             "functions by cumulative time (default 15) after the table — "
             "the quick way to find a trial's hot spots",
    )


def _scalar_keys(record: dict) -> list[str]:
    """The table-ready keys of a measurements/provenance record."""
    return [k for k, v in record.items()
            if isinstance(v, (int, float, bool, str))]


def _cmd_trials(args) -> str:
    from dataclasses import replace

    from repro.analysis.runner import run_trial
    from repro.analysis.tables import render_table
    from repro.core.protocols import protocol_named
    from repro.engine.spec import TrialSpec

    row = protocol_named(args.command)
    # One spec for the whole command (the TrialSpec codec reads every
    # engine/topology flag); per-trial variation is seed + obs paths.
    base = TrialSpec.from_cli_args(args)

    def per_seed(seed: int) -> TrialSpec:
        spec = replace(base, seed=seed)
        if len(args.seeds) > 1 and spec.obs.active:
            # One file per trial: multi-seed runs suffix each path by seed.
            from repro.obs.recorder import indexed_path

            spec = spec.with_obs(
                str(indexed_path(spec.obs.metrics, f"seed{seed}"))
                if spec.obs.metrics is not None else None,
                str(indexed_path(spec.obs.timeline, f"seed{seed}"))
                if spec.obs.timeline is not None else None,
            )
        return spec

    trials = [
        run_trial(row.describe(
            per_seed(s), requests_per_process=args.requests))
        for s in args.seeds]
    keys = ["n", "topology", "engine", "seed", "loss", "ok", "violations"]
    extra = sorted(_scalar_keys(trials[0].measurements))
    # Whatever scalar provenance the backend reported (the engine name
    # is already a column), so a newly registered backend prints its own.
    prov = [k for k in _scalar_keys(trials[0].provenance) if k != "engine"]
    return render_table(
        keys + extra + prov,
        [t.row(*(keys + extra + prov)) for t in trials],
        title=row.title,
    )


def _cmd_topology(args) -> str:
    """Structure + edge-weight stats + the sharded engine's lookahead."""
    from repro.analysis.tables import render_table
    from repro.engine.spec import _topology_from_args
    from repro.sim.partition import partition_topology
    from repro.sim.topology import topology_from_spec

    top = _topology_from_args(args, args.n, args.seed)
    if top is None or isinstance(top, str):
        top = topology_from_spec(top or "complete", args.n, seed=args.seed)
    lo, hi = args.latency
    partition = partition_topology(top, args.shards)
    cut = partition.describe()
    floor = partition.latency_floor(lo)
    info = {
        **top.describe(),
        "weighted": top.is_weighted,
        **top.weight_stats(default_latency=(lo, hi)),
        "shards": cut["shards"],
        "shard_sizes": cut["sizes"],
        "cross_edges": cut["cross_edges"],
        "cut_fraction": cut["cut_fraction"],
        "global_latency_floor": lo,
        "cross_shard_latency_floor": floor,
        "default_sharded_window": floor,
    }
    return render_table(
        ["property", "value"],
        [[key, value] for key, value in info.items()],
        title=f"topology — {top.name}",
    )


def _cmd_obs(args) -> str:
    from repro.obs import summarize_obs_file

    return "\n\n".join(summarize_obs_file(path) for path in args.paths)


def _cmd_claims(args) -> int:
    from repro.analysis.claims import named, observe, render, table

    rows = named(args.ids)
    observed = {claim.id: observe(claim) for claim in rows}
    if args.ids:
        print("\n\n".join(table(claim, *observed[claim.id]) for claim in rows))
    else:
        print(render({id: verdict for id, (verdict, _) in observed.items()}))
    wrong = [f"{claim.id} (expected {claim.expected}, observed "
             f"{observed[claim.id][0]})"
             for claim in rows if observed[claim.id][0] != claim.expected]
    if wrong:
        print("unexpected verdict: " + "; ".join(wrong), file=sys.stderr)
    return 1 if wrong else 0


def _cmd_list(_args) -> str:
    return "\n".join(
        name for name in _SUBCOMMANDS if name not in ("list", "cluster-worker"))


def _cmd_cluster_worker(args) -> int:
    # A worker interpreter serves exactly one shard then exits; its
    # stdout belongs to the hosted simulator slice, not to a table.
    from repro.net.cluster_worker import run_cluster_worker

    return run_cluster_worker(
        args.registry, args.shard, args.advertise_host, chaos=args.chaos,
    )


class _Subcommand(NamedTuple):
    help: str
    #: Declares the subcommand's flags on its parser (None: it has none).
    flags: Callable[[argparse.ArgumentParser], None] | None
    #: Runs it: the text to print, or (``claims``, ``cluster-worker``) an
    #: exit code.
    run: Callable[[argparse.Namespace], str | int]


_SUBCOMMANDS: dict[str, _Subcommand] = {
    "list": _Subcommand("list the subcommands", None, _cmd_list),
    "claims": _Subcommand(
        "check every claim of the reproduction, or print the named rows' "
        "tables; exit 1 on an unexpected verdict", _flags_claims, _cmd_claims),
    "pif": _Subcommand(
        "E3: PIF snap-stabilization trials", _flags_trials, _cmd_trials),
    "idl": _Subcommand("E4: IDs-Learning trials", _flags_trials, _cmd_trials),
    "mutex": _Subcommand(
        "E5: mutual-exclusion trials", _flags_mutex, _cmd_trials),
    "collect": _Subcommand(
        "E12: collect-wave (snapshot, reset) trials", _flags_trials,
        _cmd_trials),
    "cluster-worker": _Subcommand(
        "serve one shard of a multi-host trial (launched by the "
        "engine=cluster coordinator, or by hand on a remote machine)",
        _flags_cluster_worker, _cmd_cluster_worker),
    "topology": _Subcommand(
        "inspect a topology: structure, edge-weight stats, shard lookahead",
        _flags_topology, _cmd_topology),
    "obs": _Subcommand(
        "summarize obs files written with --metrics/--timeline "
        "(metrics snapshots and Chrome-trace timelines)",
        _flags_obs, _cmd_obs),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``repro`` parser.  With ``command`` (what :func:`main` passes:
    the subcommand about to run) only that subcommand's flags are
    declared — the engine flags enumerate the registries, which a
    ``cluster-worker`` or ``list`` process has no reason to import."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Snap-stabilization in message-passing systems — experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, subcommand in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=subcommand.help)
        if subcommand.flags is not None and command in (None, name):
            subcommand.flags(p)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return _dispatch(args)
    except HorizonExceeded as exc:
        print(f"horizon exceeded: {exc}", file=sys.stderr)
        return 1
    except ReproError as exc:
        # Engine-axis misuse (--shards without --engine sharded, --tick
        # without --transport tcp, ...) and a bad protocol argument
        # (--requests -1) carry an actionable message; a one-liner beats
        # a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    top_n = getattr(args, "profile", None)
    if top_n is not None:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            code = _run_command(args)
        finally:
            profiler.disable()
            stats = pstats.Stats(profiler, stream=sys.stdout)
            stats.sort_stats("cumulative")
            print(f"\n--- cProfile: top {top_n} by cumulative time ---")
            stats.print_stats(top_n)
        return code
    return _run_command(args)


def _run_command(args) -> int:
    output = _SUBCOMMANDS[args.command].run(args)
    if isinstance(output, int):
        return output
    print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
