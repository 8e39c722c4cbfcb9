"""Run ``repro.cli serve`` with in-memory spans around each layer's calls.

Usage: ``python perfbench/launcher.py SPANS_OUT -- serve data.csv --tcp ...``

Before entering :func:`repro.cli.main`, the launcher replaces the
functions listed in :data:`WRAPS` at the module or class attribute their
callers resolve, so the unmodified server calls the wrappers.  A wrapper
records ``(id, name, start, end, parent, request_id, extra)`` with
``time.monotonic`` (the client uses the same clock).  ``parent`` is the
enclosing wrapped call on the same thread or task, and ``request_id``
joins the span to the client's request.  The spans are written to
SPANS_OUT as JSON when the server has drained.
"""

from __future__ import annotations

import contextvars
import importlib
import itertools
import json
import sys
import time

#: (span name, module, attribute path) of every wrapped call.
WRAPS = (
    ("server.protocol.parse_request", "repro.server.protocol", "parse_request"),
    ("server.protocol.dispatch", "repro.server.protocol", "dispatch"),
    ("server.protocol.encode_response", "repro.server.protocol", "encode_response"),
    ("server.registry.read_lock_wait", "repro.server.registry", "AsyncRWLock.acquire_read"),
    ("server.registry.write_lock_wait", "repro.server.registry", "AsyncRWLock.acquire_write"),
    ("service.session.top_stable", "repro.service.session", "StabilitySession.top_stable"),
    ("service.session.stability_of", "repro.service.session", "StabilitySession.stability_of"),
    ("service.session.get_next", "repro.service.session", "StabilitySession.get_next"),
    ("service.cache.get", "repro.service.cache", "ResultCache.get"),
    ("service.parallel.observe", "repro.service.parallel", "ObserveExecutor.observe"),
    ("service.persist.save", "repro.service.persist", "save_session"),
    ("service.persist.load", "repro.service.persist", "load_session"),
    ("core.randomized.sample_weights", "repro.core.randomized", "GetNextRandomized.sample_weights"),
    ("core.randomized.reduce_for_weights", "repro.core.randomized", "GetNextRandomized.reduce_for_weights"),
    ("core.randomized.top_from_pool", "repro.core.randomized", "GetNextRandomized.top_from_pool"),
    ("core.randomized.stability_of", "repro.core.randomized", "GetNextRandomized.stability_of"),
    ("engine.kernels.reduce_chunk", "repro.engine.kernels", "KernelBackend.reduce_chunk"),
    ("engine.kernel.score_block", "repro.engine.kernel", "score_block"),
    ("engine.kernel.topk_rows", "repro.engine.kernel", "topk_rows"),
    ("engine.kernel.full_ranking_rows", "repro.engine.kernel", "full_ranking_rows"),
    ("engine.kernel.pack_rows", "repro.engine.kernel", "pack_rows"),
    ("engine.tally.observe_packed", "repro.engine.kernel", "RankingTally.observe_packed"),
    ("engine.tally.top_keys", "repro.engine.kernel", "RankingTally.top_keys"),
    ("engine.tally.prefix_count", "repro.engine.kernel", "RankingTally.prefix_count"),
    ("operators.skyline.band", "repro.operators.skyline", "KSkybandIndex.band"),
)

_spans: list = []
_ids = itertools.count()
_parent: contextvars.ContextVar = contextvars.ContextVar("span_parent", default=None)
_request: contextvars.ContextVar = contextvars.ContextVar("span_request", default=None)
clock = time.monotonic


def _request_id(name: str, args, kwargs, result):
    """The client request id a span belongs to, when its arguments say."""
    if name == "server.protocol.dispatch":
        payload = args[2] if len(args) > 2 else kwargs.get("payload")
        return payload.get("id") if isinstance(payload, dict) else None
    if name == "server.protocol.parse_request":
        return result.get("id") if isinstance(result, dict) else None
    if name == "server.protocol.encode_response":
        response = args[0] if args else kwargs.get("response")
        return response.get("id") if isinstance(response, dict) else None
    return _request.get()


def _extra(name: str, args, result):
    """Counts recorded where the work happens."""
    if name == "service.parallel.observe":
        return {"n": int(args[2]), "mode": result}
    if name == "operators.skyline.band":
        return {"k": int(args[1]), "size": int(len(result)), "n": int(args[0].n_items)}
    return None


def _wrap_sync(name: str, fn):
    def wrapper(*args, **kwargs):
        idx = next(_ids)
        parent = _parent.get()
        token = _parent.set(idx)
        rid_token = None
        if name == "server.protocol.dispatch":
            rid_token = _request.set(_request_id(name, args, kwargs, None))
        result = None
        start = clock()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = clock()
            _parent.reset(token)
            if rid_token is not None:
                _request.reset(rid_token)
            _spans.append((idx, name, start, end, parent,
                           _request_id(name, args, kwargs, result),
                           _extra(name, args, result)))

    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_async(name: str, fn):
    async def wrapper(*args, **kwargs):
        idx = next(_ids)
        start = clock()
        try:
            return await fn(*args, **kwargs)
        finally:
            _spans.append((idx, name, start, clock(), None, _request.get(), None))

    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_process(fn):
    # The server runs each admitted request as one task; tagging the
    # task's context joins its lock waits to the request id.
    async def wrapper(self, payload, *args, **kwargs):
        _request.set(payload.get("id") if isinstance(payload, dict) else None)
        return await fn(self, payload, *args, **kwargs)

    return wrapper


def install() -> list[str]:
    """Install every wrapper; returns the attribute paths not found."""
    import inspect

    missing = []
    for name, module_name, path in WRAPS:
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{path}")
            continue
        wrap = _wrap_async if inspect.iscoroutinefunction(fn) else _wrap_sync
        setattr(owner, attr, wrap(name, fn))
    try:
        from repro.server.app import StabilityServer

        StabilityServer._process = _wrap_process(StabilityServer._process)
    except (ImportError, AttributeError):
        missing.append("repro.server.app.StabilityServer._process")
    return missing


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: launcher.py SPANS_OUT -- serve ...", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    import repro.cli

    missing = install()
    code = repro.cli.main(cli_args)
    with open(out_path, "w") as handle:
        json.dump({"spans": _spans, "missing": missing}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
