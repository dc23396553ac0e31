"""Spans around the calls that cross from one ``apackets`` layer into another.

``install`` replaces each layer's public functions under the names their
callers bind (``apackets.cli.enumerate_params``,
``apackets.packets.pole_contribution_table``, ...) with wrappers that record
a span: name, layer, start, end, parent span, query id and whether it
raised. Spans stay in memory; ``summarize`` turns them into per-layer
metrics. Nothing here changes what the wrapped function computes.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from math import prod
from time import perf_counter

LAYERS = ("cli", "jordan", "lfactors", "packets", "transfer", "jacquet",
          "archimedean", "eisenstein")


class Tracer:
    def __init__(self) -> None:
        # (name, layer, start, end, parent index or -1, query id, raised)
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.query = 0
        self.counts: Counter = Counter()

    def wrap(self, fn, name: str, note=None):
        """``fn`` recording one span per call; ``note(args, result)`` adds counts."""
        layer = name.split(".", 1)[0]
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, layer, start, end, parent, self.query, raised)
            if note is not None:
                note(args, result)
            return result

        return traced

    def counter(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted


def _bump(tr: Tracer, key: str, amount) -> None:
    tr.counts[key] += amount


def install(tr: Tracer) -> None:
    """Wrap the layer boundaries the CLI crosses, in every module that binds them."""
    mod = {m: importlib.import_module(f"apackets.{m}") for m in ("cli", "jordan", "lfactors",
                                                                 "packets", "transfer")}
    cli = mod["cli"]

    def patch(module, attr: str, name: str, note=None) -> None:
        setattr(module, attr, tr.wrap(getattr(module, attr), name, note))

    def parser_note(args, parser) -> None:
        parser.parse_args = tr.wrap(parser.parse_args, "cli.parse_args")

    def parse_note(args, ws) -> None:
        _bump(tr, "cli.parse_bytes", len(args[0]))

    patch(cli, "run", "cli.run")
    patch(cli, "build_parser", "cli.build_parser", parser_note)
    patch(cli, "parse_workspace", "cli.parse_workspace", parse_note)
    patch(cli, "_emit", "cli.emit")
    for cmd, handler in list(cli._HANDLERS.items()):
        cli._HANDLERS[cmd] = tr.wrap(handler, f"cli.handler.{cmd}")

    def blocks_of(x):
        return x.blocks if hasattr(x, "blocks") else tuple(x)

    patch(cli, "validate_parameter", "jordan.validate_parameter",
          lambda a, r: _bump(tr, "jordan.blocks", len(a[0].blocks)))
    patch(mod["transfer"], "good_parity", "jordan.good_parity")
    for m in ("jordan", "packets", "lfactors"):
        mod[m].to_quadruple = tr.counter(mod[m].to_quadruple, "jordan.quadruple_calls")

    patch(cli, "r_order", "lfactors.r_order")
    mod["lfactors"].pole_contribution_table = tr.counter(
        mod["lfactors"].pole_contribution_table, "lfactors.table_calls")
    patch(mod["packets"], "pole_contribution_table", "lfactors.pole_contribution_table",
          lambda a, r: _bump(tr, "lfactors.table_calls", 1))

    def enum_note(args, found) -> None:
        _bump(tr, "packets.candidates", prod(min(b.a, b.b) + 1 for b in blocks_of(args[0])))
        _bump(tr, "packets.members", len(found))

    def order_note(args, result) -> None:
        _bump(tr, "packets.order_blocks", len(blocks_of(args[0])))

    def validate_note(args, violations) -> None:
        order_note(args, violations)
        _bump(tr, "packets.violations", len(violations))

    patch(cli, "enumerate_params", "packets.enumerate_params", enum_note)
    patch(cli, "validate_params", "packets.validate_params")
    patch(cli, "canonical_order", "packets.canonical_order", order_note)
    patch(cli, "validate_order", "packets.validate_order", validate_note)
    for m in ("cli", "transfer"):
        patch(mod[m], "locate_pivot", "packets.locate_pivot")
    for attr in ("check_constraint1", "block_sign", "derive_prime_block"):
        patch(mod["transfer"], attr, f"packets.{attr}")

    patch(cli, "build_psi_plus", "transfer.build_psi_plus")
    patch(cli, "apply_transfer", "transfer.apply_transfer")

    patch(cli, "jac_normal_form", "jacquet.jac_normal_form",
          lambda a, r: _bump(tr, "jacquet.letters", len(a[0].exponents)))
    patch(cli, "jac_nonvanishing_necessary", "jacquet.jac_nonvanishing_necessary")
    patch(cli, "irreducible_cuspidal_twist", "jacquet.irreducible_cuspidal_twist")

    for attr in ("inf_char", "combined_inf_char", "is_regular", "normalization_order"):
        patch(cli, attr, f"archimedean.{attr}")
    for attr in ("eisenstein_verdict", "residue_verdict"):
        patch(cli, attr, f"eisenstein.{attr}")


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def summarize(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics over every span recorded: totals, not per query."""
    spans = tr.spans
    child_time = [0.0] * len(spans)
    for name, layer, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_name: Counter = Counter()
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_ms"] = 0.0
        out[f"{layer}.errors"] = 0
    handler_self = 0.0
    for k, (name, layer, start, end, parent, _, raised) in enumerate(spans):
        dur = end - start
        self_time = dur - child_time[k]
        by_name[name] += dur
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_ms"] += _ms(self_time)
        out[f"{layer}.errors"] += int(raised)
        if name.startswith("cli.handler."):
            handler_self += self_time
    c = tr.counts
    out.update({
        "cli.argparse_ms": _ms(by_name["cli.build_parser"] + by_name["cli.parse_args"]),
        "cli.parse_ms": _ms(by_name["cli.parse_workspace"]),
        "cli.parse_kb": c["cli.parse_bytes"] / 1024,
        "cli.serialize_ms": _ms(by_name["cli.emit"]),
        "cli.out_kb": c["cli.out_bytes"] / 1024,
        "cli.handler_self_ms": _ms(handler_self),
        "jordan.validate_parameter_ms": _ms(by_name["jordan.validate_parameter"]),
        "jordan.blocks": c["jordan.blocks"],
        "jordan.quadruple_calls": c["jordan.quadruple_calls"],
        "lfactors.r_order_ms": _ms(by_name["lfactors.r_order"]),
        "lfactors.table_calls": c["lfactors.table_calls"],
        "packets.enumerate_ms": _ms(by_name["packets.enumerate_params"]),
        "packets.candidates": c["packets.candidates"],
        "packets.members": c["packets.members"],
        "packets.useful_ratio": (c["packets.members"] / c["packets.candidates"]
                                 if c["packets.candidates"] else 0.0),
        "packets.canonical_order_ms": _ms(by_name["packets.canonical_order"]),
        "packets.validate_order_ms": _ms(by_name["packets.validate_order"]),
        "packets.order_blocks": c["packets.order_blocks"],
        "packets.violations": c["packets.violations"],
        "transfer.build_psi_plus_ms": _ms(by_name["transfer.build_psi_plus"]),
        "transfer.apply_transfer_ms": _ms(by_name["transfer.apply_transfer"]),
        "jacquet.normal_form_ms": _ms(by_name["jacquet.jac_normal_form"]),
        "jacquet.letters": c["jacquet.letters"],
        "jacquet.chain_ms": _ms(by_name["jacquet.jac_nonvanishing_necessary"]),
        "jacquet.irreducible_ms": _ms(by_name["jacquet.irreducible_cuspidal_twist"]),
        "archimedean.ms": _ms(sum(d for n, d in by_name.items() if n.startswith("archimedean."))),
        "eisenstein.ms": _ms(sum(d for n, d in by_name.items() if n.startswith("eisenstein."))),
    })
    return out
