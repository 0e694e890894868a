"""Command-line front end.

All subcommands print a single JSON document (keys sorted, schema_version
"1") so identical inputs yield byte-identical output.  Exit codes: 0 for a
decided/consistent run, 1 for corpus mismatches, 2 for usage or parse
errors, 3 for an unknown verdict.

Four flags are global: --max-steps is the step budget of divides, occurs
and powerfree and, in decide and corpus, of the division into Z(m, n) only
(the lemma witness and evidence searches keep their own budgets; reduce has
none), --max-image-len caps the images of divides and occurs (unset, they
search at the sound bound, as decide always does), --jobs sets corpus
parallelism and --pretty indents the output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import List, Optional

from .classic import decide_classic
from .decide import UNKNOWN, decide
from .formulas import FormulaSyntaxError, flatten, parse
from .morphisms import (
    DEFAULT_MAX_STEPS,
    SearchBudget,
    SearchBudgetExceeded,
    divides,
    occurs,
)
from .oracle import generate_power_free
from .words import word, word_to_json
from .zimin import enumerate_fragments, stats, template

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3


def _emit(payload: dict, pretty: bool) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    if pretty:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(json.dumps(payload, sort_keys=True))


def _budget(args) -> SearchBudget:
    """The --max-image-len cap if given; unset, the search runs at its sound
    bound, where finding nothing proves absence."""
    return SearchBudget(getattr(args, "max_image_len", None), args.max_steps)


def _parse_formula(text: str):
    try:
        return parse(text)
    except FormulaSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def cmd_decide(args) -> int:
    phi = _parse_formula(args.formula)
    verdict = decide(phi, args.max_steps, evidence=args.evidence)
    _emit(verdict.to_json(), args.pretty)
    return EXIT_UNKNOWN if verdict.status == UNKNOWN else EXIT_OK


def cmd_divides(args) -> int:
    phi = _parse_formula(args.phi)
    psi = _parse_formula(args.psi)
    morphism = divides(phi, psi, _budget(args))
    _emit(
        {
            "phi": str(phi),
            "psi": str(psi),
            "divides": morphism is not None,
            "morphism": None if morphism is None else morphism.to_json(),
        },
        args.pretty,
    )
    return EXIT_OK


def cmd_occurs(args) -> int:
    phi = _parse_formula(args.formula)
    target = word(args.word)
    morphism = occurs(phi, target, _budget(args))
    _emit(
        {
            "formula": str(phi),
            "word": word_to_json(target),
            "occurs": morphism is not None,
            "morphism": None if morphism is None else morphism.to_json(),
        },
        args.pretty,
    )
    return EXIT_OK


def cmd_flatten(args) -> int:
    phi = _parse_formula(args.formula)
    _emit({"formula": str(phi), "flattened": str(flatten(phi))}, args.pretty)
    return EXIT_OK


def cmd_reduce(args) -> int:
    phi = _parse_formula(args.formula)
    try:
        decision = decide_classic(phi)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    chain = decision.reduction
    _emit(
        {
            "formula": str(phi),
            "status": decision.status,
            "reducible": chain is not None,
            "chain": None if chain is None else chain.to_json(),
        },
        args.pretty,
    )
    return EXIT_OK


def cmd_zimin(args) -> int:
    st = stats(args.m, args.n)
    payload = {
        "m": args.m,
        "n": args.n,
        "fragments": st.fragment_count,
        "length": st.fragment_length,
        "template": template(args.m, args.n).render(),
    }
    if st.fragment_count <= args.enumerate_limit:
        payload["fragments_list"] = [str(f) for f in enumerate_fragments(args.m, args.n)]
    _emit(payload, args.pretty)
    return EXIT_OK


def cmd_powerfree(args) -> int:
    try:
        alpha = Fraction(args.alpha)
    except (ValueError, ZeroDivisionError):
        print(f"error: cannot parse exponent {args.alpha!r}", file=sys.stderr)
        return EXIT_USAGE
    report = generate_power_free(args.alphabet_size, alpha, args.length, args.max_steps)
    payload = report.to_json()
    payload["alpha"] = str(alpha)
    _emit(payload, args.pretty)
    return EXIT_OK if report.word is not None else EXIT_MISMATCH


def _corpus_entry(job) -> dict:
    line_no, line, max_steps = job
    try:
        entry = json.loads(line)
    except json.JSONDecodeError as exc:
        return {"line": line_no, "error": f"malformed JSONL: {exc}"}
    if not isinstance(entry, dict) or not isinstance(entry.get("formula"), str):
        return {"line": line_no, "error": "entry must be an object with a string 'formula' field"}
    try:
        phi = parse(entry["formula"])
    except FormulaSyntaxError as exc:
        return {"line": line_no, "error": f"formula does not parse: {exc}"}
    verdict = decide(phi, max_steps)
    expected = entry.get("expected_status")
    result = {
        "line": line_no,
        "formula": entry["formula"],
        "status": verdict.status,
        "expected": expected,
        "match": expected is None or expected == verdict.status,
        "tags": entry.get("tags", []),
    }
    return result


def cmd_corpus(args) -> int:
    try:
        with open(args.path, "r", encoding="utf-8") as handle:
            lines = [(i + 1, raw.strip()) for i, raw in enumerate(handle) if raw.strip()]
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    jobs = [(no, text, args.max_steps) for no, text in lines]
    if args.jobs > 1 and len(jobs) > 1:
        # imported here: it loads multiprocessing, which nothing else needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_corpus_entry, jobs, chunksize=8))
    else:
        results = [_corpus_entry(job) for job in jobs]

    errors = [r for r in results if "error" in r]
    for r in errors:
        print(f"line {r['line']}: {r['error']}", file=sys.stderr)
    if errors:
        return EXIT_USAGE
    mismatches = [r for r in results if not r["match"]]
    counts = {}
    for r in results:
        counts[r["status"]] = counts.get(r["status"], 0) + 1
    _emit(
        {
            "entries": len(results),
            "status_counts": counts,
            "mismatches": [
                {"line": r["line"], "formula": r["formula"], "status": r["status"], "expected": r["expected"]}
                for r in mismatches
            ],
            "results": results,
        },
        args.pretty,
    )
    return EXIT_MISMATCH if mismatches else EXIT_OK


def _common_flags() -> argparse.ArgumentParser:
    """Flags accepted both before and after the subcommand; SUPPRESS keeps
    the subparser from clobbering values given up front."""
    suppress = argparse.SUPPRESS
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--max-image-len", type=int, default=suppress, help="image length cap of divides and occurs (default: the sound bound)")
    p.add_argument("--max-steps", type=int, default=suppress, help="search step budget (default 1e7)")
    p.add_argument("--jobs", type=int, default=suppress, help="parallel corpus workers (default: cores)")
    p.add_argument("--pretty", action="store_true", default=suppress, help="indent JSON output")
    return p


FLAG_DEFAULTS = {
    "max_steps": DEFAULT_MAX_STEPS,
    "pretty": False,
}


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="zimrev",
        description="Decide avoidability of patterns and formulas with reversal.",
        parents=[common],
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide a formula with reversal", parents=[common])
    p.add_argument("formula")
    p.add_argument("--evidence", action="store_true", help="attach a finite avoiding word when found")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("divides", help="search a division between two formulas", parents=[common])
    p.add_argument("phi")
    p.add_argument("psi")
    p.set_defaults(func=cmd_divides)

    p = sub.add_parser("occurs", help="search an occurrence of a formula in a word", parents=[common])
    p.add_argument("formula")
    p.add_argument("word")
    p.set_defaults(func=cmd_occurs)

    p = sub.add_parser("flatten", help="clear all mirror marks", parents=[common])
    p.add_argument("formula")
    p.set_defaults(func=cmd_flatten)

    p = sub.add_parser("reduce", help="reduction chain of a formula without reversal", parents=[common])
    p.add_argument("formula")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("zimin", help="statistics and template of Z(m, n)", parents=[common])
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--enumerate-limit", type=int, default=64, help="list fragments when at most this many")
    p.set_defaults(func=cmd_zimin)

    p = sub.add_parser("powerfree", help="generate a power-free word", parents=[common])
    p.add_argument("alphabet_size", type=int)
    p.add_argument("alpha", help="forbidden exponent, e.g. 2 or 3/2")
    p.add_argument("length", type=int)
    p.set_defaults(func=cmd_powerfree)

    p = sub.add_parser("corpus", help="run decide over a JSONL corpus", parents=[common])
    p.add_argument("path")
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    # flags are declared with SUPPRESS so values placed before the subcommand
    # survive the subparser pass; fill the gaps here
    for key, value in FLAG_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    if not hasattr(args, "jobs"):
        args.jobs = os.cpu_count() or 1
    try:
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except SearchBudgetExceeded as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
