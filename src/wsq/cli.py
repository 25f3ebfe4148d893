"""Command line front end.

Subcommands::

    wsq eval STRUCTURE QUERY [--bind x=elem ...] [--input r1,r2,...] [--json]
    wsq check QUERY
    wsq fnn {validate|forward|pwl|integrate|zero|pad} FILE ...
    wsq repl [STRUCTURE]

``STRUCTURE`` is a structure file or a network file (detected by their
top-level keys).  ``QUERY`` is inline text, a path to a query file, or a
``builtin:`` reference such as ``builtin:eval d=2 i=1``; text that parses
is the query even when a file of that name exists.  Exit codes:
0 success, 1 query error (parse error, misused symbol, bad builtin
parameter, unreadable query file), 2 structure or file error (a file
that cannot be read, decoded or parsed included) or bad option value,
3 unbound variables, 4 resource budget exceeded (the bit bound included)
or expression too deeply nested.  Number text over the bit bound is
``number too long (N characters)`` under the exit code of its place.
Budgets, builtin parameters and ``--k`` take ASCII digits only.  Each
error gets its exit code in :func:`main`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from typing import Optional

from .errors import EvalLimits, LoadError, ParseError, ResourceError, UsageError, WsqError
from .fnn import (
    DEFAULT_MAX_PWL_PIECES,
    FnnStructure,
    Pwl,
    fnn_from_json,
    forward,
    pad,
    pwl_integral,
    save_fnn,
    to_pwl,
    validate_fnn,
    with_input,
)
from .numerics import ExtRational, number_text, parse_count
from .structures import WeightedStructure, read_json, structure_from_json

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_STRUCTURE = 2
EXIT_UNBOUND = 3
EXIT_RESOURCE = 4


class _CliError(Exception):
    """An error with an exit code of its own: query errors (1), unbound variables (3)."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_structure_or_fnn(path: str) -> tuple[WeightedStructure, Optional[FnnStructure]]:
    doc = read_json(path)
    try:
        if isinstance(doc, dict) and "nodes" in doc:
            net = fnn_from_json(doc)
            return net.structure, net
        return structure_from_json(doc), None
    except LoadError as exc:
        raise LoadError(f"{path}: {exc}") from exc


def _network(path: str, structure: WeightedStructure, net: Optional[FnnStructure]) -> FnnStructure:
    """The network view of a file loaded from ``path``, which may be a
    network file or a structure file."""
    try:
        return net or FnnStructure(structure)
    except UsageError as exc:
        raise LoadError(f"{path}: {exc}") from exc


def _parse_query(text: str):
    """A ``builtin:`` reference or query text, parsed, with its symbols
    checked for misuse (one name with two arities or two kinds)."""
    from .syntax import parse, vocabulary_of

    if text.startswith("builtin:"):
        from .queries import builtin_query
        query = builtin_query(text[len("builtin:") :])
    else:
        query = parse(text)
    vocabulary_of(query)
    return query


def _resolve_query(text: str):
    """The query named on the command line: query text or a builtin, or,
    only when the text does not parse and names a file, that file's query."""
    try:
        try:
            return _parse_query(text)
        except ParseError:
            if not os.path.isfile(text):
                raise
        try:
            with open(text, "r", encoding="utf-8") as fh:
                source = fh.read()
        except (OSError, ValueError) as exc:
            # an OSError's own text names the file again
            reason = getattr(exc, "strerror", None) or exc
            raise _CliError(f"cannot read query file: {text}: {reason}", EXIT_PARSE)
        return _parse_query(source)
    except (ParseError, UsageError) as exc:
        raise _CliError(f"query error: {exc}", EXIT_PARSE)


def _rational(text: str) -> ExtRational:
    try:
        return ExtRational.parse(text)
    except ValueError as exc:
        raise UsageError(f"bad input value: {exc}") from exc


def _parse_inputs(text: str) -> list[ExtRational]:
    return [_rational(chunk) for chunk in text.split(",")]


def _count(text: str) -> int:
    """The ``type`` of the count options: ASCII digits only."""
    try:
        return parse_count(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_bindings(pairs: list[str]) -> dict[str, str]:
    env = {}
    for pair in pairs:
        var, sep, elem = pair.partition("=")
        if not sep or not var or not elem:
            raise UsageError(f"bindings are VAR=ELEMENT, got {pair!r}")
        env[var] = elem
    return env


def _render_value(value, as_json: bool) -> str:
    is_formula = isinstance(value, bool)
    if as_json:
        payload = {
            "value": value if is_formula else str(value),
            "kind": "formula" if is_formula else "term",
        }
        return json.dumps(payload, sort_keys=True)
    if is_formula:
        return "true" if value else "false"
    return str(value)


# the evaluation budgets by option name: --max-summands, :set max-summands
_BUDGETS = {f.name.replace("_", "-"): f for f in fields(EvalLimits)}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_eval(args) -> int:
    from .evaluator import evaluate
    from .syntax import free_vars

    structure, net = _load_structure_or_fnn(args.structure)
    query = _resolve_query(args.query)
    if args.input is not None:
        structure = with_input(_network(args.structure, structure, net), _parse_inputs(args.input))
    env = _parse_bindings(args.bind)
    missing = sorted(free_vars(query) - env.keys())
    if missing:
        raise _CliError(f"unbound variables: {', '.join(missing)}", EXIT_UNBOUND)
    limits = EvalLimits(**{f.name: getattr(args, f.name) for f in _BUDGETS.values()})
    value = evaluate(query, structure, env, limits)
    print(_render_value(value, args.json))
    return EXIT_OK


def _describe_query(query, out) -> None:
    from .syntax import check_scalar_fragment, free_vars, vocabulary_of

    fv = sorted(free_vars(query))
    out(f"free variables: {', '.join(fv) if fv else 'none'}")
    info = vocabulary_of(query)
    ext = [f"{name}/{arity} (relation)" for name, arity in sorted(info.relations.items())]
    ext += [f"{name}/{arity} (weight)" for name, arity in sorted(info.weights.items())]
    ext += [f"{name}/{arity} (unresolved)" for name, arity in sorted(info.generic.items())]
    out(f"extensional vocabulary: {', '.join(ext) if ext else 'empty'}")
    intensional = [f"{name}/{arity}" for name, arity in sorted(info.intensional.items())]
    out(f"intensional symbols: {', '.join(intensional) if intensional else 'none'}")
    violations = check_scalar_fragment(query)
    if not violations:
        out("in sIFP(SUM)")
    else:
        out("NOT in sIFP(SUM): " + "; ".join(v.describe() for v in violations))


def _cmd_check(args) -> int:
    _describe_query(_resolve_query(args.query), print)
    return EXIT_OK


def _affine_text(slope, intercept) -> str:
    if slope == 0:
        return number_text(intercept)
    head = "x" if slope == 1 else f"{number_text(slope)}*x"
    if intercept == 0:
        return head
    sign = "+" if intercept > 0 else "-"
    return f"{head} {sign} {number_text(abs(intercept))}"


def _print_pwl(p: Pwl) -> None:
    bps = [number_text(x) for x in p.breakpoints]
    bounds = ["-inf", *bps, "+inf"]
    lines = [f"breakpoints: {', '.join(bps) if bps else 'none'}"]
    for i, (slope, intercept) in enumerate(p.pieces):
        lines.append(f"[{bounds[i]}, {bounds[i + 1]}]: {_affine_text(slope, intercept)}")
    print("\n".join(lines))


def _cmd_fnn(args) -> int:
    if args.fnn_command == "validate":
        doc = read_json(args.file)
        try:
            if isinstance(doc, dict) and "nodes" in doc:
                fnn_from_json(doc)
            else:
                problems = validate_fnn(structure_from_json(doc))
                if problems:
                    for problem in problems:
                        print(problem)
                    return EXIT_STRUCTURE
        except LoadError as exc:
            print(exc)
            return EXIT_STRUCTURE
        print("ok")
        return EXIT_OK

    net = _network(args.file, *_load_structure_or_fnn(args.file))
    if args.fnn_command == "forward":
        values = forward(net, _parse_inputs(args.input))
        print(" ".join(map(str, values)))
    elif args.fnn_command == "pwl":
        _print_pwl(to_pwl(net, args.max_pwl_pieces))
    elif args.fnn_command == "integrate":
        lo, hi = _rational(args.lo), _rational(args.hi)
        print(pwl_integral(to_pwl(net, args.max_pwl_pieces), lo, hi))
    elif args.fnn_command == "zero":
        print("true" if to_pwl(net, args.max_pwl_pieces).is_zero else "false")
    elif args.fnn_command == "pad":
        u, sep, v = args.edge.partition(",")
        if not sep:
            raise UsageError("--edge takes FROM,TO")
        padded = pad(net, (u, v), args.k)
        try:
            save_fnn(padded, args.out)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc}") from exc
    return EXIT_OK


# ---------------------------------------------------------------------------
# REPL
# ---------------------------------------------------------------------------

_REPL_HELP = f"""commands:
  :load PATH            load a structure or network file
  :let NAME = QUERY     name a parsed query
  :check NAME|QUERY     free variables, vocabulary, scalar-fragment verdict
  :set format plain|json
  :set input R1,R2,...  attach an input vector to the loaded network
  :set {" | ".join(f"{key} N" for key in _BUDGETS)}
  :quit                 leave (also Ctrl-D)
anything else is evaluated as a query against the loaded structure;
queries may also reference builtins, e.g. builtin:eval_node"""


class Repl:
    """Line-oriented interactive session; errors never terminate the loop."""

    def __init__(self, stdin=None, stdout=None):
        self.stdin = stdin or sys.stdin
        self.stdout = stdout or sys.stdout
        self.path: Optional[str] = None
        self.structure: Optional[WeightedStructure] = None
        self.net: Optional[FnnStructure] = None
        self.inputs: Optional[list[ExtRational]] = None
        self.bindings: dict = {}
        self.format = "plain"
        self.limits = EvalLimits()

    def out(self, text: str) -> None:
        print(text, file=self.stdout)

    def run(self) -> int:
        interactive = self.stdin.isatty()
        if interactive:
            self.out("wsq repl; :help for commands")
        while True:
            if interactive:
                self.stdout.write("wsq> ")
                self.stdout.flush()
            line = self.stdin.readline()
            if not line:
                return EXIT_OK
            line = line.strip()
            if not line:
                continue
            if line in (":quit", ":q"):
                return EXIT_OK
            try:
                self.dispatch(line)
            except WsqError as exc:
                self.out(f"error: {exc}")

    def dispatch(self, line: str) -> None:
        if not line.startswith(":"):
            self.cmd_eval(line)
            return
        word = line.split()[0]
        commands = {":load": self.cmd_load, ":let": self.cmd_let, ":check": self.cmd_check, ":set": self.cmd_set}
        if word == ":help":
            self.out(_REPL_HELP)
        elif word in commands:
            commands[word](line[len(word) :].strip())
        else:
            self.out(f"unknown command {word!r}; :help lists commands")

    def cmd_load(self, path: str) -> None:
        self.structure, self.net = _load_structure_or_fnn(path)
        self.path, self.inputs = path, None
        kind = "network" if self.net is not None else "structure"
        self.out(f"loaded {kind} {path} ({len(self.structure.universe)} elements)")

    def cmd_let(self, rest: str) -> None:
        name, sep, text = rest.partition("=")
        name = name.strip()
        if not sep or not name:
            raise UsageError(":let NAME = QUERY")
        self.bindings[name] = self._query(text.strip())
        self.out(f"{name} bound")

    def cmd_check(self, text: str) -> None:
        _describe_query(self._query(text), self.out)

    def cmd_set(self, rest: str) -> None:
        key, _, value = rest.partition(" ")
        value = value.strip()
        if key == "format":
            if value not in ("plain", "json"):
                raise UsageError("format is plain or json")
            self.format = value
        elif key == "input":
            values = _parse_inputs(value)
            if self.structure is None:
                raise UsageError("load a network before :set input")
            self.net = _network(self.path, self.structure, self.net)
            self.inputs = values
        elif key in _BUDGETS:
            try:
                count = parse_count(value)
            except ValueError as exc:
                raise UsageError(f"{key} {exc}") from exc
            setattr(self.limits, _BUDGETS[key].name, count)
        else:
            raise UsageError(f"unknown option {key!r}")
        self.out("ok")

    def _query(self, text: str):
        if text in self.bindings:
            return self.bindings[text]
        return _parse_query(text)

    def cmd_eval(self, text: str) -> None:
        from .evaluator import evaluate

        query = self._query(text)
        structure = self.structure
        if structure is None:
            raise UsageError("no structure loaded (:load PATH)")
        if self.inputs is not None and self.net is not None:
            structure = with_input(self.net, self.inputs)
        value = evaluate(query, structure, {}, self.limits)
        self.out(_render_value(value, self.format == "json"))


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="wsq", description=__doc__.split("\n\n")[0])
    sub = top.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a query on a structure")
    p_eval.add_argument("structure")
    p_eval.add_argument("query")
    p_eval.add_argument("--bind", action="append", default=[], metavar="VAR=ELEMENT")
    p_eval.add_argument("--input", help="input vector for a network, e.g. 1,1/2")
    p_eval.add_argument("--json", action="store_true", help="emit {'value':..,'kind':..}")
    for key, budget in _BUDGETS.items():
        p_eval.add_argument(f"--{key}", type=_count, default=budget.default)

    p_check = sub.add_parser("check", help="analyze a query without a structure")
    p_check.add_argument("query")

    p_fnn = sub.add_parser("fnn", help="network utilities")
    fnn_sub = p_fnn.add_subparsers(dest="fnn_command", required=True)
    for name in ("validate", "forward", "pwl", "integrate", "zero", "pad"):
        p = fnn_sub.add_parser(name)
        p.add_argument("file")
        if name in ("pwl", "integrate", "zero"):
            p.add_argument("--max-pwl-pieces", type=_count, default=DEFAULT_MAX_PWL_PIECES)
        if name == "forward":
            p.add_argument("--input", required=True)
        if name == "integrate":
            p.add_argument("--lo", required=True)
            p.add_argument("--hi", required=True)
        if name == "pad":
            p.add_argument("--edge", required=True, metavar="FROM,TO")
            p.add_argument("--k", type=_count, required=True)
            p.add_argument("--out", required=True)

    p_repl = sub.add_parser("repl", help="interactive shell")
    p_repl.add_argument("structure", nargs="?")
    return top


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "fnn":
            return _cmd_fnn(args)
        repl = Repl()
        if args.structure:
            repl.cmd_load(args.structure)
        return repl.run()
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (LoadError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURE


if __name__ == "__main__":
    sys.exit(main())
