"""Per-layer tracing of edgefed, done entirely from outside the package.

`Tracer.install()` replaces public functions and methods of the edgefed
modules with timing wrappers, and `uninstall()` puts every original back.
Each wrapper is a span at a layer boundary. Spans nest on one stack, so a
span's self time is its duration minus the time of the spans it encloses.
Spans are aggregated per name (calls, inclusive seconds, self seconds)
rather than kept one by one, because one N=300 run makes millions of
`handle` calls. Counters are taken at the same boundaries.

Only processes that report per-layer numbers import this module; the
untraced timings come from processes that never load it.
"""

import os
import time
from collections import defaultdict

from edgefed import agents, canonical, cli, contract, ledger, metrics, simkernel

SPAN_ATTR = "_perfbench_span"

_BUILD = ("simkernel.build_participants", "simkernel.build_profiles",
          "simkernel.build_genesis", "simkernel.build_consensus")
_HANDLE = ("ConsumerAgent.handle", "ProviderAgent.handle")
_EXPORT = ("metrics.write_csv", "metrics.write_jsonl")


def _span_name(owner, attr: str) -> str:
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """Spans and counters for one process; reset between repetitions."""

    def __init__(self, on_run=None):
        # on_run(cfg, run_index, result) sees every simkernel.run_once result.
        self._on_run = on_run
        self._stack = []
        self._saved = []
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)

    def reset(self) -> None:
        # Cleared in place: the installed wrappers hold these dicts.
        for table in (self.calls, self.total_s, self.self_s, self.counts):
            table.clear()

    # -- hooks: (pre(args) -> token, post(args, result, token)) -------------

    def _targets(self):
        return [
            (cli, "main", None),
            (simkernel, "load_config", None),
            (simkernel, "run_scenario", None),
            (simkernel, "run_once", (None, self._post_run_once)),
            (simkernel, "build_participants", None),
            (simkernel, "build_profiles", None),
            (simkernel, "build_genesis", None),
            (simkernel, "build_consensus", None),
            (simkernel, "soa_federate", None),
            (simkernel.EventQueue, "step", None),
            (simkernel.EventQueue, "schedule", None),
            (agents.ConsumerAgent, "handle", (self._pre_handle, self._post_handle)),
            (agents.ProviderAgent, "handle", (self._pre_handle, self._post_handle)),
            (agents.DeploymentQueue, "enqueue", (None, self._post_enqueue)),
            (ledger.Ledger, "submit", None),
            (ledger.Ledger, "produce_block", (self._pre_produce, self._post_produce)),
            (ledger, "block_digest", None),
            (canonical, "digest", None),
            (contract.FederationContract, "execute_block", (self._pre_execute, self._post_execute)),
            (metrics, "write_csv", (None, self._post_export)),
            (metrics, "write_jsonl", (None, self._post_export)),
            (metrics, "aggregate", None),
        ]

    def _post_run_once(self, args, result, token):
        if self._on_run is not None:
            self._on_run(args[0], args[1], result)

    def _pre_handle(self, args):
        return self.calls["EventQueue.schedule"]

    def _post_handle(self, args, result, schedules_before):
        if self.calls["EventQueue.schedule"] != schedules_before:
            self.counts["handle_acting"] += 1

    def _post_enqueue(self, args, job, token):
        wait = job.started_us - job.enqueued_us
        if wait > self.counts["deploy_wait_us_max"]:
            self.counts["deploy_wait_us_max"] = wait

    def _pre_produce(self, args):
        depth = len(args[0].mempool)
        if depth > self.counts["mempool_peak"]:
            self.counts["mempool_peak"] = depth

    def _post_produce(self, args, block, token):
        n = len(block.txs)
        self.counts["block_txs"] += n
        if n > self.counts["block_txs_max"]:
            self.counts["block_txs_max"] = n

    def _pre_execute(self, args):
        return len(args[0].rejected)

    def _post_execute(self, args, events, rejected_before):
        self.counts["txs_applied"] += len(events)
        self.counts["rejected"] += len(args[0].rejected) - rejected_before

    def _post_export(self, args, result, token):
        self.counts["export_bytes"] += os.path.getsize(args[1])

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name, hooks):
        pre, post = hooks or (None, None)
        stack, calls, total_s, self_s = self._stack, self.calls, self.total_s, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            token = pre(args) if pre else None
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child_s = stack.pop()
                if stack:
                    stack[-1] += elapsed
                calls[name] += 1
                total_s[name] += elapsed
                self_s[name] += elapsed - child_s
            if post:
                post(args, result, token)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__wrapped__ = fn
        setattr(wrapper, SPAN_ATTR, name)
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for owner, attr, hooks in self._targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, _span_name(owner, attr), hooks))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- per-layer metrics -------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics over everything recorded since the last reset."""
        c, t, s, n = self.calls, self.total_s, self.self_s, self.counts
        handle_calls = sum(c[k] for k in _HANDLE)
        blocks = c["Ledger.produce_block"]
        applied, rejected = n["txs_applied"], n["rejected"]
        return {
            "simkernel.steps": c["EventQueue.step"],
            "simkernel.schedules": c["EventQueue.schedule"],
            "simkernel.dispatch_self_s": s["EventQueue.step"],
            "simkernel.build_s": sum(t[k] for k in _BUILD),
            "agents.handle_calls": handle_calls,
            "agents.handle_acting": n["handle_acting"],
            "agents.handle_s": sum(t[k] for k in _HANDLE),
            "agents.handle_useful_ratio": n["handle_acting"] / handle_calls if handle_calls else 0.0,
            "agents.soa_s": t["simkernel.soa_federate"],
            "agents.deploy_wait_sim_s_max": n["deploy_wait_us_max"] / 1e6,
            "ledger.submits": c["Ledger.submit"],
            "ledger.blocks": blocks,
            "ledger.txs_per_block_mean": n["block_txs"] / blocks if blocks else 0.0,
            "ledger.txs_per_block_max": n["block_txs_max"],
            "ledger.mempool_peak": n["mempool_peak"],
            "ledger.produce_block_self_s": s["Ledger.produce_block"],
            "canonical.digest_calls": c["canonical.digest"],
            "canonical.digest_s": t["canonical.digest"],
            "contract.execute_block_s": t["FederationContract.execute_block"],
            "contract.txs_applied": applied,
            "contract.rejected": rejected,
            "contract.accept_ratio": applied / (applied + rejected) if applied + rejected else 0.0,
            "metrics.export_s": sum(t[k] for k in _EXPORT),
            "metrics.export_bytes": n["export_bytes"],
            "metrics.aggregate_s": t["metrics.aggregate"],
            "cli.self_s": s["cli.main"],
        }
