"""Span tracer that wraps ipsim's public functions from outside the package.

``install`` rebinds every listed function or method, in every ``ipsim``
module that holds it, to a wrapper that opens a span on entry and closes it
on exit (also when the call raises). A span has a name, a start, an end, its
parent span and the session it belongs to; a session is one
``*Config.run_one`` call. Spans outside any session (instance sampling,
judging, report assembly) carry no session.

Self time is computed online: a closing span adds its duration to its
parent's child time, and its own self time is its duration minus that.
Calls, self time and processed elements are aggregated per span name for
every span; full span records are kept in memory for the first
``keep_sessions`` sessions and for all session-less spans, and written out
at the end by the caller.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

# (module, attribute, span name); functions are rebound wherever ipsim binds them
FUNCTIONS = [
    ("m61", "vmul", "m61.vmul"),
    ("m61", "vsub", "m61.vsub"),
    ("m61", "vadd", "m61.vadd"),
    ("m61", "vsum", "m61.vsum"),
    ("stream_ip", "chi_table_for_point", "stream_ip.chi_table_for_point"),
    ("harness", "delegated_measure", "harness.delegated_measure"),
    ("harness", "run_session", "harness.run_session"),
    ("harness", "derive_rng", "harness.derive_rng"),
    ("qcore", "sample_haar_unitary", "qcore.sample_haar_unitary"),
    ("qcore", "eig_sorted", "qcore.eig_sorted"),
    ("qcore", "one_norm_distance", "qcore.one_norm_distance"),
    ("qmeas", "swap_test", "qmeas.swap_test"),
    ("qmeas", "basis_probabilities", "qmeas.basis_probabilities"),
    ("qmeas", "pauli_expectations", "qmeas.pauli_expectations"),
    ("tomo_ip", "prover_tomography", "tomo_ip.prover_tomography"),
    ("tomo_ip", "certify_closeness", "tomo_ip.certify_closeness"),
    ("stab_ip", "all_fidelities", "stab_ip.all_fidelities"),
    ("stab_ip", "estimate_A3", "stab_ip.estimate_A3"),
    ("cli", "run_experiment", "cli.run_experiment"),
    ("cli", "emit_report", "cli.emit_report"),
]
ELEMENT_COUNTED = {"m61.vmul", "m61.vsub", "m61.vadd", "m61.vsum"}

# (module, class, method, span name)
METHODS = [
    ("harness", "CopyOracle", "query", "harness.query"),
    ("harness", "Copy", "with_unitary", "harness.with_unitary"),
    ("harness", "Channel", "send_qudits", "harness.send_qudits"),
    ("stream_ip", "StreamVerifierState", "update_batch", "stream_ip.update_batch"),
    ("stream_ip", "UniformityVerifier", "run", "stream_ip.verifier_run"),
    ("purity_ip", "PurityVerifier", "run", "purity_ip.verifier_run"),
    ("purity_ip", "HonestSwapProver", "answer_round", "purity_ip.answer_round"),
    ("tomo_ip", "TomoVerifier", "run", "tomo_ip.verifier_run"),
    ("stab_ip", "StabVerifier", "run", "stab_ip.verifier_run"),
]
CONFIGS = [
    ("stream_ip", "UniformityConfig"),
    ("purity_ip", "PurityConfig"),
    ("tomo_ip", "TomoConfig"),
    ("stab_ip", "StabConfig"),
]
CONFIG_METHODS = ("sample_instance", "judge")  # session-less trial work


class Tracer:
    """In-memory span recorder; single-threaded, like the sessions it traces."""

    def __init__(self, keep_sessions: int = 2):
        self.keep_sessions = keep_sessions
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.elems: list[int] = []
        self.stack: list[list] = []  # open spans: [span id, name id, start, child seconds]
        self.opened = 0
        self.closed = 0
        self.session = -1  # -1: outside any session
        self.sessions = 0
        self.session_self_s: list[float] = []
        self.cold_ms = 0.0  # enumerate_stabilizers calls that missed its cache
        # stored spans, column-wise
        self.span_id = array("q")
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_session = array("q")
        self.span_start = array("d")
        self.span_end = array("d")

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.elems.append(0)
        return self._name_ids[name]

    def open(self, nid: int):
        self.opened += 1
        self.stack.append([self.opened, nid, perf_counter(), 0.0])

    def close(self, elems: int = 0) -> float:
        end = perf_counter()
        sid, nid, start, child = self.stack.pop()
        dur = end - start
        own = dur - child
        self.calls[nid] += 1
        self.self_s[nid] += own
        self.elems[nid] += elems
        parent = 0
        if self.stack:
            top = self.stack[-1]
            top[3] += dur
            parent = top[0]
        session = self.session
        if session >= 0:
            self.session_self_s[session] += own
        if session < self.keep_sessions:
            self.span_id.append(sid)
            self.span_name.append(nid)
            self.span_parent.append(parent)
            self.span_session.append(session)
            self.span_start.append(start)
            self.span_end.append(end)
        self.closed += 1
        return dur

    def begin_session(self):
        self.session = self.sessions
        self.sessions += 1
        self.session_self_s.append(0.0)

    def end_session(self):
        self.session = -1

    def totals(self, name: str) -> tuple[int, float, int]:
        """(calls, self seconds, elements) summed over every span of ``name``."""
        nid = self._name_ids.get(name)
        if nid is None:
            return 0, 0.0, 0
        return self.calls[nid], self.self_s[nid], self.elems[nid]

    def spans_dump(self) -> dict:
        return {
            "names": self.names,
            "opened": self.opened,
            "closed": self.closed,
            "keep_sessions": self.keep_sessions,
            "session_self_s": list(self.session_self_s[: self.keep_sessions]),
            "id": list(self.span_id),
            "name": list(self.span_name),
            "parent": list(self.span_parent),
            "session": list(self.span_session),
            "start": list(self.span_start),
            "end": list(self.span_end),
        }


def _wrap(tracer: Tracer, fn, name: str):
    nid = tracer.name_id(name)
    counted = name in ELEMENT_COUNTED

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(getattr(args[0], "size", 1) if counted else 0)

    return wrapper


def _wrap_session(tracer: Tracer, fn, name: str):
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.begin_session()
        tracer.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close()
            tracer.end_session()

    return wrapper


def _wrap_sumcheck(tracer: Tracer, fn):
    """run_sumcheck is the verifier side; its prover_rounds callback is the prover round."""
    nid = tracer.name_id("stream_ip.run_sumcheck")
    round_wrap = functools.partial(_wrap, tracer, name="stream_ip.prover_round")

    @functools.wraps(fn)
    def wrapper(claim, prover_rounds, *args, **kwargs):
        tracer.open(nid)
        try:
            return fn(claim, round_wrap(prover_rounds), *args, **kwargs)
        finally:
            tracer.close()

    return wrapper


def _wrap_enumeration(tracer: Tracer, fn):
    """Records the duration of calls that miss the enumeration cache as cold time."""
    nid = tracer.name_id("stab_ip.enumerate_stabilizers")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        misses = fn.cache_info().misses
        tracer.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            dur = tracer.close()
            if fn.cache_info().misses > misses:
                tracer.cold_ms += dur * 1e3

    return wrapper


def _ipsim_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.startswith("ipsim.")]


def install(tracer: Tracer) -> list:
    """Wraps every listed function and method; returns the patches for ``uninstall``."""
    import ipsim.cli  # noqa: F401  (loads every protocol module)

    modules = _ipsim_modules()
    mod = {m.__name__.split(".", 1)[1]: m for m in modules}
    patches = []

    def rebind(fn, wrapper):
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is fn:
                    patches.append((m, attr, value))
                    setattr(m, attr, wrapper)

    def patch_attr(owner, attr, wrapper):
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    for module, attr, name in FUNCTIONS:
        fn = getattr(mod[module], attr)
        rebind(fn, _wrap(tracer, fn, name))
    fn = mod["stream_ip"].run_sumcheck
    rebind(fn, _wrap_sumcheck(tracer, fn))
    fn = mod["stab_ip"].enumerate_stabilizers
    rebind(fn, _wrap_enumeration(tracer, fn))
    for module, cls_name, method, name in METHODS:
        cls = getattr(mod[module], cls_name)
        patch_attr(cls, method, _wrap(tracer, cls.__dict__[method], name))
    for module, cls_name in CONFIGS:
        cls = getattr(mod[module], cls_name)
        patch_attr(cls, "run_one", _wrap_session(tracer, cls.__dict__["run_one"], f"{module}.run_one"))
        for method in CONFIG_METHODS:
            patch_attr(cls, method, _wrap(tracer, cls.__dict__[method], f"{module}.{method}"))
    return patches


def uninstall(patches: list):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, results: list, report_bytes: int, cold_ms: float) -> dict:
    """Per-layer metrics per session of the traced run, in BENCHMARK.json order.

    ``results`` are the traced sessions' SessionResults; ``report_bytes`` the
    size of the report.json files their experiments wrote; ``cold_ms`` the
    cold enumeration time seen by the tracer of the set-up session.
    """
    n = len(results)
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def span(name, *fields):
        calls, self_s, elems = tracer.totals(name)
        for f in fields:
            if f == "calls":
                put(f"{name}.calls", calls / n, "count")
            elif f == "self_ms":
                put(f"{name}.self_ms", self_s * 1e3 / n, "ms")
            else:
                put(f"{name}.elems", elems / n, "count")

    span("m61.vmul", "calls", "elems", "self_ms")
    span("m61.vsub", "elems", "self_ms")
    span("m61.vadd", "self_ms")
    span("m61.vsum", "self_ms")
    span("stream_ip.prover_round", "calls", "self_ms")
    span("stream_ip.run_sumcheck", "self_ms")
    span("stream_ip.update_batch", "self_ms")
    span("stream_ip.chi_table_for_point", "self_ms")
    attempts = [r.extras["attempts"] for r in results if "attempts" in r.extras]
    put("stream_ip.attempts", sum(attempts) / n, "count")
    put("stream_ip.useful_attempt_ratio", sum(1 / a for a in attempts) / n, "ratio")
    for name in ("harness.query", "harness.with_unitary", "harness.send_qudits"):
        span(name, "calls", "self_ms")
    span("harness.delegated_measure", "self_ms")
    span("harness.run_session", "self_ms")
    span("harness.derive_rng", "calls", "self_ms")
    ch = [r.channel_counters for r in results]
    put("harness.qudits", sum(c["qudits_v_to_p"] + c["qudits_p_to_v"] for c in ch) / n, "count")
    put("harness.bits", sum(c["bits_v_to_p"] + c["bits_p_to_v"] for c in ch) / n, "bits")
    put("harness.peak_live_copies", max(r.peak_live_copies for r in results), "count")
    span("qcore.sample_haar_unitary", "calls", "self_ms")
    span("qcore.eig_sorted", "self_ms")
    span("qcore.one_norm_distance", "self_ms")
    span("qmeas.swap_test", "calls", "self_ms")
    span("qmeas.basis_probabilities", "calls", "self_ms")
    span("qmeas.pauli_expectations", "self_ms")
    span("purity_ip.verifier_run", "self_ms")
    span("purity_ip.answer_round", "self_ms")
    span("tomo_ip.prover_tomography", "self_ms")
    span("tomo_ip.certify_closeness", "self_ms")
    put("stab_ip.enumerate_stabilizers.cold_ms", cold_ms, "ms")
    span("stab_ip.all_fidelities", "calls", "self_ms")
    span("stab_ip.estimate_A3", "self_ms")
    span("cli.run_experiment", "self_ms")
    span("cli.emit_report", "self_ms")
    put("cli.report_bytes", report_bytes / n, "bytes")
    return out
